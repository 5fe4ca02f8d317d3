"""Time evolution, steady states, and the two heat measurement routes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bath import BathSpec
from .generators import (
    DIM,
    TRACE_VECTOR,
    Liouvillian,
    total_liouvillian,
    unvectorize,
    vectorize,
)
from .system import SystemSpec, lower_ground_state

TRACE_DRIFT_TOL = 1e-6
# roundoff headroom for the RK4 gain of eigenvalues with real part <= 0
RK4_GAIN_TOL = 1e-9
STEADY_RESIDUAL_TOL = 1e-10
# gap below which the two smallest singular values are considered tied
STEADY_GAP_TOL = 1e-8


class PropagationError(RuntimeError):
    """Raised when a fixed step is unstable or loses the trace normalization."""


class SteadyStateError(RuntimeError):
    """Raised when no unique, well-conditioned steady state exists."""


def propagate(liouvillian: Liouvillian | Callable[[float], np.ndarray], rho0: np.ndarray,
              t_end: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Classical fixed-step fourth-order Runge-Kutta integration.

    liouvillian is either a constant generator or a function t -> generator
    matrix for a time-dependent one.  Returns (times, states) where
    states[k] is the 3x3 state at times[k]; t_end is rounded to a whole
    number of steps of size dt.  An unstable step raises PropagationError:
    before any step, when the RK4 gain max |R(dt lambda)| over the
    eigenvalues of the generator at the first and last grid times (once
    for a constant generator), R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,
    exceeds 1 + 1e-9; and during the steps when the trace drifts by more
    than 1e-6, checked for time-dependent and unannotated (u = 0) constant
    generators, which preserve it exactly.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < 0:
        raise ValueError(f"t_end must be non-negative, got {t_end}")
    steps = int(round(t_end / dt))
    times = np.arange(steps + 1) * dt
    constant = isinstance(liouvillian, Liouvillian)
    matrix_at = (lambda t: liouvillian.matrix) if constant else liouvillian
    check = not constant or liouvillian.u == 0.0
    for t in times[:1] if constant else times[[0, -1]]:
        z = dt * np.linalg.eigvals(matrix_at(t))
        gain = np.abs(1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0).max()
        if gain > 1.0 + RK4_GAIN_TOL:
            raise PropagationError(f"RK4 gain {gain:.6g} at t = {t:.6g} exceeds 1, the step "
                                   f"is unstable; reduce dt (currently {dt})")
    y = vectorize(rho0)
    trace0 = TRACE_VECTOR @ y
    states = np.empty((steps + 1, 3, 3), dtype=complex)
    states[0] = unvectorize(y)
    m_end = matrix_at(times[0])
    for k in range(steps):
        t = times[k]
        m_start, m_half, m_end = m_end, matrix_at(t + 0.5 * dt), matrix_at(t + dt)
        k1 = m_start @ y
        k2 = m_half @ (y + 0.5 * dt * k1)
        k3 = m_half @ (y + 0.5 * dt * k2)
        k4 = m_end @ (y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if check:
            drift = abs(TRACE_VECTOR @ y - trace0)
            if drift > TRACE_DRIFT_TOL:
                raise PropagationError(
                    f"trace drifted by {drift:.3e} at t = {times[k + 1]:.6g}; "
                    f"reduce dt (currently {dt})"
                )
        states[k + 1] = unvectorize(y)
    return times, states


# Pade-13 coefficients b_0 .. b_13 and the 1-norm up to which the
# approximant is accurate to double precision without scaling (Higham,
# SIAM J. Matrix Anal. Appl. 26, 1179 (2005))
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade-13 scaling and squaring.

    a is scaled by 2^-s so that its 1-norm is at most theta_13, the [13/13]
    Pade approximant is solved for, and the result squared s times (Moler
    & Van Loan, SIAM Rev. 45, 3 (2003)).  Unlike an eigendecomposition it
    stays accurate for defective or nearly defective a.
    """
    norm = np.abs(a).sum(axis=0).max()
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    a = a / 2.0**s
    b = _PADE13
    ident = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def evolve(liouvillian: Liouvillian, rho0: np.ndarray, t_end: float,
           dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact evolution under a constant generator on propagate's time grid.

    Returns (times, states) with times[k] = k dt and states[k] =
    exp(times[k] L) rho0, for the same whole number of steps as propagate.
    The one-step propagator P = exp(dt L) is computed once; the states are
    then filled by doubling: states n .. 2n-1 are P^n applied to states
    0 .. n-1, and P^n is squared for the next block.  There is no step
    size limit.  For an unannotated (u = 0) generator a trace drift above
    1e-6 (or a non-finite trace) anywhere along the trajectory raises
    PropagationError.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < 0:
        raise ValueError(f"t_end must be non-negative, got {t_end}")
    steps = int(round(t_end / dt))
    times = np.arange(steps + 1) * dt
    ys = np.empty((steps + 1, DIM * DIM), dtype=complex)
    ys[0] = vectorize(rho0)
    power = _expm(dt * liouvillian.matrix)
    filled = 1
    while filled <= steps:
        block = min(filled, steps + 1 - filled)
        ys[filled:filled + block] = ys[:block] @ power.T
        filled += block
        if filled <= steps:
            power = power @ power
    if liouvillian.u == 0.0:
        drift = np.abs(ys @ TRACE_VECTOR - TRACE_VECTOR @ ys[0])
        k = int(drift.argmax())
        if not drift[k] <= TRACE_DRIFT_TOL:
            raise PropagationError(f"trace drifted by {drift[k]:.3e} at t = {times[k]:.6g}; "
                                   "the generator does not preserve it")
    return times, unvectorize(ys)


def steady_state(liouvillian: Liouvillian) -> np.ndarray:
    """Unique null state of an unannotated generator.

    Found as the right singular vector of the smallest singular value,
    then hermitized and trace normalized.  Raises SteadyStateError when
    the second-smallest singular value is within 1e-8 of the smallest
    (null space effectively degenerate, no unique steady state) or when
    the residual norm of the returned state exceeds 1e-10.
    """
    if liouvillian.u != 0.0:
        raise ValueError("steady_state requires an unannotated (u = 0) generator")
    _, sigmas, vh = np.linalg.svd(liouvillian.matrix)
    if sigmas[-2] < sigmas[-1] + STEADY_GAP_TOL:
        raise SteadyStateError(
            f"steady state is not unique: smallest singular values "
            f"{sigmas[-1]:.3e} and {sigmas[-2]:.3e}"
        )
    rho = unvectorize(vh[-1].conj())
    rho = 0.5 * (rho + rho.conj().T)
    trace = np.trace(rho).real
    if abs(trace) < 1e-12:
        raise SteadyStateError("null vector is traceless, cannot normalize")
    rho = rho / trace
    residual = float(np.linalg.norm(liouvillian.matrix @ vectorize(rho)))
    if residual > STEADY_RESIDUAL_TOL:
        raise SteadyStateError(f"steady-state residual {residual:.3e} exceeds 1e-10")
    return rho


def steady_residual(liouvillian: Liouvillian, rho: np.ndarray) -> float:
    """Norm of the generator applied to a state; zero for a steady state."""
    return float(np.linalg.norm(liouvillian.matrix @ vectorize(rho)))


def heat_current_trace(liouvillian: Liouvillian, rho: np.ndarray) -> float:
    """Instantaneous phonon heat current from the generator's heat kernel.

    Positive values mean energy flowing from the system into the bath.
    Cooling spectra plot bath absorption, which is the negative of this.
    """
    if liouvillian.heat_kernel is None:
        raise ValueError("generator carries no heat kernel")
    val = -1j * (TRACE_VECTOR @ (liouvillian.heat_kernel @ vectorize(rho)))
    return float(val.real)


@dataclass(frozen=True)
class HeatRecord:
    """Mean exchanged heat and instantaneous current from one route.

    mean_heat is the heat transferred to the bath up to `time` (positive
    into the bath).  For the finite-difference route fd_imag stores the
    imaginary part of the difference quotient, which would vanish for an
    exact u-derivative and serves as a step-size diagnostic.
    """

    time: float
    mean_heat: float
    current: float
    method: str
    route: str
    fd_imag: float = 0.0


def mean_heat_fd(method: str, spec: SystemSpec, bath: BathSpec, t_end: float = 30.0,
                 dt: float = 0.05, u_step: float = 0.05, scheme: str = "central",
                 rho0: np.ndarray | None = None, include_shifts: bool = True,
                 pairing_tol: float | None = None) -> HeatRecord:
    """Counting-field finite-difference estimate of the mean heat.

    scheme="forward" uses -i (chi(u_step) - chi(0)) / u_step, the plain
    one-sided quotient.  scheme="central" (default) evaluates chi at
    +u_step/2 and -u_step/2 with the same division, which cancels the odd
    error terms and cuts the leading finite-u bias by a factor of four for
    the same step.  Both carry an O(u_step^2) bias proportional to the
    heat variance times elapsed time; see fd_imag for a consistency check.
    One annotated generator is evolved exactly (evolve), since chi(0, t) =
    Tr rho0 and chi(-u, t) = conj(chi(u, t)); the central fd_imag is
    therefore zero.  The instantaneous current is the change of the
    estimate over the final step dt of the time grid, of which t_end must
    span at least one.
    """
    if u_step <= 0:
        raise ValueError(f"u_step must be positive, got {u_step}")
    if scheme not in ("forward", "central"):
        raise ValueError(f"unknown scheme {scheme!r}; expected 'forward' or 'central'")
    if rho0 is None:
        rho0 = lower_ground_state()

    u = u_step if scheme == "forward" else 0.5 * u_step
    gen = total_liouvillian(method, spec, bath, u=u,
                            include_shifts=include_shifts, pairing_tol=pairing_tol)
    times, states = evolve(gen, rho0, t_end, dt)
    if len(times) < 2:
        raise ValueError(f"t_end {t_end} spans no full step of dt {dt}")
    chi = np.trace(states[-2:], axis1=1, axis2=2)
    chi_other = np.trace(rho0) if scheme == "forward" else chi.conj()
    q_prev, q_last = -1j * (chi - chi_other) / u_step
    current = (q_last - q_prev) / dt
    return HeatRecord(time=float(times[-1]), mean_heat=float(q_last.real),
                      current=float(current.real), method=method, route="counting_fd",
                      fd_imag=float(q_last.imag))


def min_eigenvalue(rho: np.ndarray) -> float:
    """Smallest eigenvalue of the hermitized state; a positivity monitor.

    Accepts a single state or a stack of states (trajectory); for a stack
    the minimum over the whole stack is returned.
    """
    a = np.asarray(rho)
    h = 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))
    return float(np.linalg.eigvalsh(h)[..., 0].min())
