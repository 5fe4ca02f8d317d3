import numpy as np
import pytest

from coolspec import BathSpec, SystemSpec, coupling_operator


@pytest.fixture
def bath():
    # shipped default bath: weak coupling, unit cutoff, warm
    return BathSpec(alpha=0.01, omega_c=1.0, temperature=3.0)


@pytest.fixture
def driven_spec():
    return SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)


@pytest.fixture
def redfield_oracle():
    """Redfield generator applied to a 3x3 state in plain matrix form.

    Returns apply(hamiltonian, eig, gamma, u, rho) -> (L_u(rho), K(rho)) with
    L_u(rho) = -i [H, rho] + Lam_u rho O + O rho Lam_{-u}^dag
               - O Lam_0 rho - rho Lam_0^dag O,
    Lam_u = sum_ij gamma[i, j] exp(i u nu[j, i]) blocks[i, j], and the heat
    kernel K = dL_u/du at u = 0, i.e. K(rho) = Lam' rho O - O rho Lam'^dag
    with Lam' = sum_ij i nu[j, i] gamma[i, j] blocks[i, j].
    """
    def apply(hamiltonian, eig, gamma, u, rho):
        o = coupling_operator()

        def lam(weights):
            return sum(weights[i, j] * eig.blocks[i, j] for i in range(3) for j in range(3))

        def dag(m):
            return m.conj().T

        lam_u = lam(gamma * np.exp(1j * u * eig.nu.T))
        lam_minus_u = lam(gamma * np.exp(-1j * u * eig.nu.T))
        lam_0 = lam(gamma)
        lam_prime = lam(1j * eig.nu.T * gamma)
        out = (-1j * (hamiltonian @ rho - rho @ hamiltonian)
               + lam_u @ rho @ o + o @ rho @ dag(lam_minus_u)
               - o @ lam_0 @ rho - rho @ dag(lam_0) @ o)
        kernel = lam_prime @ rho @ o - o @ rho @ dag(lam_prime)
        return out, kernel

    return apply
