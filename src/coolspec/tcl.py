"""Second-order time-convolutionless validation integrator.

Checks the Markovian generators against a finite-memory weak-coupling
treatment: the dissipator coefficients are running half-Fourier integrals
of the bath correlation function instead of their infinite-time limits.
As the running integrals saturate, the instantaneous generator converges
to the full (nonsecular) Markovian one with its principal-value shifts,
so long-time observables from the two treatments must agree.

The correlation table is evaluated in closed form (a Matsubara series of
the super-Ohmic spectral density, correlation_grid) and integrated with
the trapezoid rule, so the module needs numpy only; an adaptive quadrature
of the correlation integral in the tests is its independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import BathSpec
from .dynamics import HeatRecord, heat_current_trace, propagate
from .generators import (
    DIM,
    Liouvillian,
    coherent_superoperator,
    radiative_dissipator,
    redfield,
)
from .system import SystemSpec, build_hamiltonian, coupling_operator, eigensystem

# Matsubara terms of correlation_grid summed exactly before the
# Euler-Maclaurin remainder takes over
_SERIES_TERMS = 32


@dataclass(frozen=True)
class MemoryKernelConfig:
    """Discretization of the running memory integrals.

    t_mem:
        Horizon beyond which the correlation function is treated as dead
        and the running integrals are frozen.
    dt:
        Integration step of the propagator.
    quad_points:
        Subdivisions of dt used for the tau grid of the running
        integrals; at least 2.
    """

    t_mem: float = 30.0
    dt: float = 0.02
    quad_points: int = 2

    def __post_init__(self):
        if self.t_mem <= 0:
            raise ValueError(f"t_mem must be positive, got {self.t_mem}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.quad_points < 2:
            raise ValueError(f"quad_points must be at least 2, got {self.quad_points}")


def correlation_grid(taus: np.ndarray, spec: BathSpec) -> np.ndarray:
    """C(tau) on a grid, in closed form.

    Expanding coth(beta w / 2) = 1 + 2 sum_{k>=1} exp(-k beta w) turns every
    term into integral w^3 exp(-s w) dw = 6 / s^4, so with x = 1/omega_c + i tau

        C(tau) = 12 alpha / omega_c^2 (2 Re S(x) - conj(x)^-4),
        S(x) = sum_{k>=0} (x + k beta)^-4.

    The first 32 terms of S are summed exactly; the rest is the
    Euler-Maclaurin remainder 1/(3 beta z^3) + 1/(2 z^4) + beta/(3 z^5)
    - beta^3/(6 z^7) with z = x + 32 beta; its first omitted term is a
    fraction (2/3)(beta/|z|)^6 < 1e-9 of the leading one.  The loop over k
    keeps memory at O(len(taus)).  Agrees with an adaptive quadrature of the
    correlation integral to about 1e-10 absolute at any tau.
    """
    beta = spec.beta
    x = 1.0 / spec.omega_c + 1j * np.asarray(taus, dtype=float)
    q = 1.0 / (x + _SERIES_TERMS * beta)
    r = beta * q
    s = q**3 / (3.0 * beta) + q**4 * (0.5 + r / 3.0 - r**3 / 6.0)
    for k in range(_SERIES_TERMS - 1, -1, -1):
        s += (1.0 / (x + k * beta)) ** 4
    return 12.0 * spec.alpha / spec.omega_c**2 * (2.0 * s.real - np.conj((1.0 / x) ** 4))


class TclPropagator:
    """Precomputed running-coefficient generator on a fixed time grid.

    The running coefficients Gamma[i, j](t) are cumulative integrals of
    C(tau) exp(-i nu[i, j] tau) up to min(t, t_mem), tabulated once on a
    tau grid of spacing dt / quad_points and interpolated linearly in
    between.  The Redfield dissipator (generators.redfield) is real-linear
    in Gamma, so its (matrix, heat kernel) response to each of the 18 real
    and imaginary unit coefficients is tabulated once per propagator; the
    generator at any time contracts that response with Gamma(t) in one
    matmul and adds the coherent and radiative parts.
    """

    def __init__(self, spec: SystemSpec, bath: BathSpec, cfg: MemoryKernelConfig):
        self.spec = spec
        self.bath = bath
        self.cfg = cfg
        self.eig = eigensystem(build_hamiltonian(spec), coupling_operator())

        step = cfg.dt / cfg.quad_points
        n_tau = max(1, int(round(cfg.t_mem / step)))
        taus = np.arange(n_tau + 1) * step
        integrand = correlation_grid(taus, bath) * np.exp(-1j * self.eig.nu[..., None] * taus)
        self._tau_step = step
        # cumulative trapezoid rule along tau, starting from 0
        self._gamma_table = np.zeros_like(integrand)
        self._gamma_table[..., 1:] = np.cumsum(
            np.diff(taus) * (integrand[..., 1:] + integrand[..., :-1]) / 2.0, axis=-1)
        self._n_tau = n_tau
        units = np.eye(DIM * DIM).reshape(-1, DIM, DIM)
        matrix, kernel = redfield(self.eig, self.eig.basis, np.concatenate([units, 1j * units]))
        # row k: response to Re Gamma.flat[k], row 9 + k: to Im Gamma.flat[k]
        self._response = np.stack([matrix, kernel], axis=1).reshape(2 * DIM * DIM, -1)
        self._static = (coherent_superoperator(build_hamiltonian(spec))
                        + radiative_dissipator(spec))

    def coefficients(self, t: float) -> np.ndarray:
        """Running coefficients Gamma[i, j] at time t (frozen past t_mem)."""
        if t <= 0:
            return self._gamma_table[:, :, 0].copy()
        pos = t / self._tau_step
        if pos >= self._n_tau:
            return self._gamma_table[:, :, -1].copy()
        k = int(pos)
        frac = pos - k
        return ((1.0 - frac) * self._gamma_table[:, :, k]
                + frac * self._gamma_table[:, :, k + 1])

    def generator(self, t: float) -> Liouvillian:
        """Instantaneous generator and heat kernel at time t."""
        gamma = self.coefficients(t).ravel()
        matrix, kernel = (np.concatenate([gamma.real, gamma.imag]) @ self._response
                          ).reshape(2, DIM * DIM, DIM * DIM)
        return Liouvillian(matrix=self._static + matrix, u=0.0, heat_kernel=kernel)

    def propagate(self, rho0: np.ndarray, t_end: float) -> tuple[np.ndarray, np.ndarray, HeatRecord]:
        """Fixed-step RK4 (dynamics.propagate) with the time-dependent generator.

        Returns (times, states, record); the record integrates the
        kernel-trace heat current over the trajectory with the trapezoid
        rule.
        """
        times, states = propagate(lambda t: self.generator(t).matrix, rho0, t_end, self.cfg.dt)
        currents = np.array([heat_current_trace(self.generator(t), rho)
                             for t, rho in zip(times, states)])
        heat = float((np.diff(times) * (currents[1:] + currents[:-1]) / 2.0).sum())
        record = HeatRecord(time=float(times[-1]), mean_heat=heat,
                            current=float(currents[-1]), method="tcl_oracle",
                            route="kernel_trace")
        return times, states, record
