"""Driven three-level impurity: Hamiltonian, eigensystem, phonon coupling.

Working basis order is (|e>, |g_u>, |g_l>) = indices (0, 1, 2).  The laser
drives |g_u> <-> |e> and is treated in the rotating frame, so the
Hamiltonian is time independent.  The phonon bath couples only the two
ground states, split by the manifold energy.  hbar = 1 and k_B = 1
throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

IDX_E, IDX_GU, IDX_GL = 0, 1, 2

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class SystemSpec:
    """Static parameters of the impurity.

    Attributes
    ----------
    e_man:
        Ground-manifold splitting between |g_u> and |g_l>, must be > 0.
    delta:
        Laser detuning from the |g_u> -> |e> transition (laser frequency
        minus bare transition frequency).  Any sign.
    omega_rabi:
        Rabi splitting of the driven transition.  Restricted to >= 0; a
        drive phase can always be absorbed into the definition of |e>.
    gamma_rad:
        Radiative decay rate for |e> -> |g_l>, must be >= 0.
    """

    e_man: float
    delta: float = 0.0
    omega_rabi: float = 0.0
    gamma_rad: float = 0.0

    def __post_init__(self):
        if not self.e_man > 0:
            raise ValueError(f"e_man must be positive, got {self.e_man}")
        if self.omega_rabi < 0:
            raise ValueError(f"omega_rabi must be non-negative, got {self.omega_rabi}")
        if self.gamma_rad < 0:
            raise ValueError(f"gamma_rad must be non-negative, got {self.gamma_rad}")


def build_hamiltonian(spec: SystemSpec) -> np.ndarray:
    """Rotating-frame Hamiltonian in the working basis.

    The driven state |e> sits at -delta, the drive couples it to |g_u>
    with matrix element omega_rabi / 2, and |g_l> sits at -e_man.
    """
    h = np.zeros((3, 3), dtype=complex)
    h[IDX_E, IDX_E] = -spec.delta
    h[IDX_E, IDX_GU] = spec.omega_rabi / 2.0
    h[IDX_GU, IDX_E] = spec.omega_rabi / 2.0
    h[IDX_GL, IDX_GL] = -spec.e_man
    return h


def coupling_operator() -> np.ndarray:
    """System side of the bath coupling: |g_u><g_l| + |g_l><g_u|."""
    o = np.zeros((3, 3), dtype=complex)
    o[IDX_GU, IDX_GL] = 1.0
    o[IDX_GL, IDX_GU] = 1.0
    return o


def lower_ground_state() -> np.ndarray:
    """Default initial state |g_l><g_l|."""
    rho = np.zeros((3, 3), dtype=complex)
    rho[IDX_GL, IDX_GL] = 1.0
    return rho


@dataclass(frozen=True)
class EigenSystem:
    """Spectral data of the Hamiltonian plus eigenbasis coupling blocks.

    energies are ascending.  nu[i, j] = energies[i] - energies[j] is the
    transition frequency attached to the block operator blocks[i, j], which
    is the working-basis matrix of <i|O|j> |i><j|.  Summing blocks over
    both indices reconstructs the coupling operator exactly.
    """

    energies: np.ndarray
    basis: np.ndarray
    nu: np.ndarray
    elements: np.ndarray
    blocks: np.ndarray


def eigensystem(hamiltonian: np.ndarray, coupling: np.ndarray) -> EigenSystem:
    """Diagonalize and decompose the coupling operator into transition blocks.

    Raises ValueError when the Hamiltonian is not hermitian to 1e-12.  The
    decomposition is made deterministic by fixing each eigenvector's phase
    (largest-magnitude component made real positive) and, within exactly
    degenerate eigenvalues, ordering by the index of that component.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    anti = 0.5 * np.abs(h - h.conj().T).max()
    if anti > HERMITICITY_TOL:
        raise ValueError(f"Hamiltonian is not hermitian: anti-hermitian norm {anti:.3e}")
    energies, basis = np.linalg.eigh(h)
    dominant = np.abs(basis).argmax(axis=0)
    order = np.lexsort((dominant, energies))
    energies = energies[order]
    basis = np.ascontiguousarray(basis[:, order])
    for k in range(basis.shape[1]):
        lead = basis[np.abs(basis[:, k]).argmax(), k]
        if lead != 0:
            basis[:, k] *= np.conj(lead) / abs(lead)
    o = np.asarray(coupling, dtype=complex)
    elements = basis.conj().T @ o @ basis
    nu = energies[:, None] - energies[None, :]
    blocks = np.einsum("ij,ai,bj->ijab", elements, basis, basis.conj())
    return EigenSystem(energies=energies, basis=basis, nu=nu, elements=elements, blocks=blocks)
