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

import math
import sys

import numpy as np

from .bath import BathSpec
from .dynamics import HeatRecord, propagate
from .generators import (
    DIM,
    TRACE_VECTOR,
    Liouvillian,
    from_real,
    redfield,
    static_part,
    to_real,
    vectorize,
)
from .system import EigenSystem, SystemSpec, eigensystem

# widest tau-grid spacing of the running coefficients up to omega_c 1; a
# faster bath gets this / omega_c, since C(tau) varies on the scale
# 1/omega_c.  The grid divides the RK4 half step dt/2 into the fewest equal
# parts no wider than that (README, "Config schema", has its measurements)
_TAU_STEP = 0.01

# Matsubara terms correlation_grid sums exactly before its Euler-Maclaurin tail
_MATSUBARA_TERMS = 11

# largest |C(t_mem)| / |C(0)| accepted: the running integrals are frozen at
# t_mem, so a correlation function still alive there truncates them
# (README, "Config schema", has the plateau errors this admits)
MEMORY_TAIL_TOL = 1e-3


def tau_grid(t_mem: float, dt: float, omega_c: float) -> tuple[float, float]:
    """Spacing and rows of TclPropagator's tau table at t_mem, RK4 step dt and cutoff omega_c.

    The rows, 1 + max(1, rint(t_mem / spacing)), are a float: for extreme
    t_mem / dt they may exceed any array length, or be inf.  Where the count
    of spacings in dt overflows a float (dt near the largest double), the
    spacing is 0 and the rows inf.
    """
    widest = _TAU_STEP * min(1.0, 1.0 / omega_c)
    split = dt / (2 * widest)
    if not 2.0 * split < math.inf:
        return 0.0, math.inf
    step = dt / (2 * math.ceil(split))
    return step, 1.0 + max(1.0, np.rint(t_mem / step))


def correlation_grid(taus: np.ndarray, spec: BathSpec) -> np.ndarray:
    """C(tau) on a grid, in closed form.

    Expanding coth(beta w / 2) = 1 + 2 sum_{k>=1} exp(-k beta w) turns every
    term into integral w^3 exp(-s w) dw = 6 / s^4, so with x = 1/omega_c + i tau

        C(tau) = 12 alpha / omega_c^2 (2 Re S(x) - conj(x)^-4),
        S(x) = sum_{k>=0} (x + k beta)^-4.

    The first 11 terms of S are summed exactly; the rest is the
    Euler-Maclaurin remainder 1/(3 beta z^3) + 1/(2 z^4) + beta/(3 z^5)
    - beta^3/(6 z^7) + 2 beta^5/(9 z^9) - beta^7/(2 z^11) + 5 beta^9/(3 z^13)
    with z = x + 11 beta.  Its first omitted term, 7.68 beta^11 / |z|^15, is
    a fraction 23.04 (beta/|z|)^12 < 1e-11 of the leading one, and at every
    bath and tau below (2/9) beta^5 / |x + 32 beta|^9, that of a remainder
    to beta^3 after 32 terms.  The loop over k keeps memory at
    O(len(taus)).  Agrees with an adaptive quadrature of the
    correlation integral to about 1e-10 absolute at any tau.
    """
    beta = spec.beta
    x = 1.0 / spec.omega_c + 1j * np.asarray(taus, dtype=float)
    q = 1.0 / (x + _MATSUBARA_TERMS * beta)
    r = beta * q
    s = q**3 / (3.0 * beta) + q**4 * (0.5 + r / 3.0 - r**3 / 6.0 + 2.0 * r**5 / 9.0
                                      - r**7 / 2.0 + 5.0 * r**9 / 3.0)
    for k in range(_MATSUBARA_TERMS - 1, -1, -1):
        s += (1.0 / (x + k * beta)) ** 4
    return 12.0 * spec.alpha / spec.omega_c**2 * (2.0 * s.real - np.conj((1.0 / x) ** 4))


class TclPropagator:
    """Precomputed running-coefficient generator on a fixed time grid.

    The running coefficients Gamma[i, j](t) are cumulative integrals of
    C(tau) exp(-i nu[i, j] tau) up to min(t, t_mem), tabulated once on a
    tau grid (taus) and interpolated linearly in between.  Its spacing is
    dt / (2 m), m the smallest whole number that brings it to
    0.01 min(1, 1/omega_c) or below (m = 1 at the default dt 0.02 and
    omega_c 1): every node k dt/2 of propagate's RK4 step dt is a table
    row, a coarse step does not coarsen the coefficients, and a fast bath
    gets a grid that follows its correlation time.  Past the last row,
    taus[-1] (t_mem rounded to the grid), the coefficients and so the
    generator are frozen.  generator(t) is static_part plus the Redfield
    dissipator of Gamma(t) (generators.redfield), the Bloch-Redfield
    generator with the running coefficients in place of rate_table's.
    The dissipator is real-linear in Gamma, so its response to each of the
    18 real and imaginary unit coefficients is tabulated once, and every
    unit response preserves Hermiticity: the matrix responses and
    static_part are mapped once to real Hermitian coordinates
    (generators.to_real), where they are real.  matrix_generator(t)
    contracts that real table with the real rows (Re Gamma(t), Im Gamma(t)),
    which is all an RK4 step reads, and propagate integrates with it
    (dynamics.propagate, which then steps real states).  The heat current
    is linear in Gamma too, so propagate reads it from the traced kernel
    responses.
    Broadcasts over a stacked spec like dynamics.evolve: tables and results
    carry its leading axes (points) before any time axis, each point equal
    to its one-point call.  Raises ValueError when t_mem or dt is not
    positive and finite, when t_mem spans more grid rows than an array
    holds or dt is too large to split into its spacings (tau_grid), or when
    |C(t_mem)| exceeds 1e-3 |C(0)|: the memory window is too short.
    """

    def __init__(self, spec: SystemSpec, bath: BathSpec, t_mem: float = 30.0, dt: float = 0.02):
        if not 0 < t_mem < math.inf:
            raise ValueError(f"t_mem must be positive and finite, got {t_mem}")
        if not 0 < dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {dt}")
        self.dt = dt
        self.eig = eigensystem(spec)

        step, rows = tau_grid(t_mem, dt, bath.omega_c)
        if step == 0.0:
            raise ValueError(f"dt = {dt:g} is too large to split into tau-grid spacings; "
                             f"lower dt")
        if not rows <= sys.maxsize:
            raise ValueError(f"t_mem = {t_mem:g} spans {rows:.3g} tau-grid rows at "
                             f"dt = {dt:g}, more than an array can hold; lower t_mem")
        taus = np.arange(int(rows)) * step
        corr = correlation_grid(taus, bath)
        if abs(corr[-1]) > MEMORY_TAIL_TOL * abs(corr[0]):
            raise ValueError(f"memory window t_mem = {t_mem:g} is too short for the bath: "
                             f"|C(t_mem)| / |C(0)| = {abs(corr[-1] / corr[0]):.2e} exceeds "
                             f"{MEMORY_TAIL_TOL:g}; raise t_mem")
        nu = self.eig.nu[..., None, :, :]
        # the integrand C(tau) exp(-i nu tau), built in place: with the table
        # it is the only array of the table's size alive at once
        integrand = np.multiply(nu, taus[:, None, None], dtype=complex)
        np.multiply(-1j, integrand, out=integrand)
        np.exp(integrand, out=integrand)
        np.multiply(corr[:, None, None], integrand, out=integrand)
        self.taus = taus
        # cumulative trapezoid rule along tau, starting from 0: row k holds
        # Gamma at tau = taus[k], shape points + (len(taus), 3, 3); each
        # panel's sum goes into its own row, which then accumulates in place
        self._table = np.zeros_like(integrand)
        sums = self._table[..., 1:, :, :]
        np.add(integrand[..., 1:, :, :], integrand[..., :-1, :, :], out=sums)
        del integrand
        np.divide(sums, 2.0, out=sums)
        np.multiply(np.diff(taus)[:, None, None], sums, out=sums)
        np.cumsum(sums, axis=-3, out=sums)
        units = np.eye(DIM * DIM).reshape((-1,) + (1,) * (nu.ndim - 3) + (DIM, DIM))
        matrix, kernel = (np.moveaxis(part, 0, -3) for part in
                          redfield(self.eig, self.eig.basis, np.concatenate([units, 1j * units])))
        # Tr(kernel response), points + (18, 9): the current is Re(-i rows @ this @ vec(rho))
        self._trace_kernel = TRACE_VECTOR @ kernel
        self._static = static_part(spec)[..., None, :, :]
        # the matrix response and static_part in real Hermitian coordinates,
        # points + (18, 81) and points + (1, 9, 9); row k of the response is
        # the response to Re Gamma.flat[k], row 9 + k to Im; their imaginary
        # parts are roundoff, since every unit response preserves Hermiticity
        self._real_response = to_real(matrix).reshape(matrix.shape[:-2] + (-1,))
        self._real_static = to_real(self._static)

    def coefficients(self, t: float | np.ndarray) -> np.ndarray:
        """Running coefficients Gamma[i, j] at time(s) t, shape points + t.shape + (3, 3).

        One clipped linear interpolation in the tau table: frac is 0 at
        t <= 0 (Gamma zero) and 1 at the last node (frozen past t_mem).
        """
        last = len(self.taus) - 1
        pos = np.minimum(np.maximum(t / self.taus[1], 0.0), last)
        k = np.minimum(pos, last - 1).astype(int)
        frac = (pos - k)[..., None, None]
        return (1.0 - frac) * self._table[..., k, :, :] + frac * self._table[..., k + 1, :, :]

    def _rows(self, t: float | np.ndarray) -> np.ndarray:
        """[Re Gamma.flat, Im Gamma.flat] at time(s) t, shape points + t.shape + (18,)."""
        gamma = self.coefficients(t)
        return np.stack([gamma.real, gamma.imag], axis=-3).reshape(gamma.shape[:-2] + (-1,))

    def matrix_generator(self, t: float | np.ndarray) -> Liouvillian:
        """generator(t)'s matrix in real Hermitian coordinates, without a heat kernel.

        The matrix is real, generators.to_real(generator(t).matrix) to
        rounding, of shape points + t.shape + (9, 9): the real response
        table contracted with the coefficient rows, one dgemm per point.
        It is all that an RK4 step reads, and dynamics.propagate steps real
        states with it.
        """
        points = self._static.shape[:-3]
        rows = self._rows(t).reshape(points + (-1, 2 * DIM * DIM))
        matrix = (rows @ self._real_response).reshape(rows.shape[:-1] + (DIM * DIM, DIM * DIM))
        shape = points + np.shape(t) + (DIM * DIM, DIM * DIM)
        return Liouvillian(matrix=(self._real_static + matrix).reshape(shape), u=0.0)

    def generator(self, t: float | np.ndarray) -> Liouvillian:
        """Instantaneous generator and heat kernel at time(s) t.

        static_part plus generators.redfield of the running coefficients
        Gamma(t), on the eigensystem with one time axis inserted: the
        Bloch-Redfield generator (generators.total_liouvillian) with Gamma(t)
        for rate_table's Gamma.  matrix and heat_kernel have shape
        points + t.shape + (9, 9).
        """
        eig = self.eig
        timed = EigenSystem(eig.energies[..., None, :], *(
            part[..., None, :, :] for part in (eig.basis, eig.nu, eig.elements)))
        matrix, kernel = redfield(timed, timed.basis, self.coefficients(np.ravel(t)))
        shape = self._static.shape[:-3] + np.shape(t) + (DIM * DIM, DIM * DIM)
        return Liouvillian(matrix=(self._static + matrix).reshape(shape), u=0.0,
                           heat_kernel=kernel.reshape(shape))

    def propagate(self, rho0: np.ndarray, t_end: float) -> tuple[np.ndarray, np.ndarray, HeatRecord]:
        """Fixed-step RK4 (dynamics.propagate) with the time-dependent generator.

        Returns (times, states, record), states of shape points + (len(times), 3, 3).
        dynamics.propagate calls matrix_generator once per chunk of steps, on
        all of the chunk's RK4 node times and every point, steps real
        Hermitian coordinates and returns them; they are mapped to 3x3
        states once (generators.from_real).  The kernel-trace currents
        (heat_current_trace of generator(t) and the state at every grid time)
        come from one contraction with the traced kernel response; the record
        integrates them with the trapezoid rule, per point.
        """
        times, coords = propagate(self.matrix_generator, rho0, t_end, self.dt)
        states = from_real(coords)
        currents = (-1j * (self._rows(times) @ self._trace_kernel
                           * vectorize(states)).sum(-1)).real
        heat = (np.diff(times) * (currents[..., 1:] + currents[..., :-1]) / 2.0).sum(-1)
        record = HeatRecord(time=float(times[-1]), mean_heat=heat[()],
                            current=currents[..., -1][()])
        return times, states, record
