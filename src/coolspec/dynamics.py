"""Time evolution, steady states, and the two heat measurement routes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bath import BathSpec
from .generators import (
    TRACE_VECTOR,
    Liouvillian,
    total_liouvillian,
    unvectorize,
    vectorize,
)
from .system import SystemSpec, dressed_states, lower_ground_state

TRACE_DRIFT_TOL = 1e-6
STEADY_RESIDUAL_TOL = 1e-10
# gap below which the two smallest singular values are considered tied
STEADY_GAP_TOL = 1e-8


class PropagationError(RuntimeError):
    """Raised when fixed-step integration loses the trace normalization."""


class SteadyStateError(RuntimeError):
    """Raised when no unique, well-conditioned steady state exists."""


def propagate(liouvillian: Liouvillian | Callable[[float], np.ndarray], rho0: np.ndarray,
              t_end: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Classical fixed-step fourth-order Runge-Kutta integration.

    liouvillian is either a constant generator or a function t -> generator
    matrix for a time-dependent one.  Returns (times, states) where
    states[k] is the 3x3 state at times[k]; t_end is rounded to a whole
    number of steps of size dt.  The trace is monitored for time-dependent
    generators and for unannotated (u = 0) constant ones: these preserve
    it exactly, so drift beyond 1e-6 means the step size is unstable for
    this generator and a PropagationError is raised.  Annotated generators
    do not preserve the trace and skip the check.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < 0:
        raise ValueError(f"t_end must be non-negative, got {t_end}")
    if isinstance(liouvillian, Liouvillian):
        constant = liouvillian.matrix
        matrix_at = lambda t: constant
        check = liouvillian.u == 0.0
    else:
        matrix_at = liouvillian
        check = True
    steps = int(round(t_end / dt))
    y = vectorize(rho0)
    trace0 = TRACE_VECTOR @ y
    times = np.arange(steps + 1) * dt
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


def characteristic_function(liouvillian: Liouvillian, rho0: np.ndarray,
                            t_end: float, dt: float) -> complex:
    """Trace of the annotated propagation at t_end, chi(u, t) = Tr rho_u(t).

    At u = 0 this is identically 1; the u dependence near zero encodes the
    moments of the exchanged phonon heat.
    """
    _, states = propagate(liouvillian, rho0, t_end, dt)
    return complex(np.trace(states[-1]))


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
                 rho0: np.ndarray | None = None, include_shifts: bool | None = None,
                 pairing_tol: float | None = None) -> HeatRecord:
    """Counting-field finite-difference estimate of the mean heat.

    scheme="forward" uses -i (chi(u_step) - chi(0)) / u_step, the plain
    one-sided quotient.  scheme="central" (default) evaluates chi at
    +u_step/2 and -u_step/2 with the same division, which cancels the odd
    error terms and cuts the leading finite-u bias by a factor of four for
    the same step.  Both carry an O(u_step^2) bias proportional to the
    heat variance times elapsed time; see fd_imag for a consistency check.
    The instantaneous current is the change of the estimate over the final
    integration step.
    """
    if u_step <= 0:
        raise ValueError(f"u_step must be positive, got {u_step}")
    if scheme == "forward":
        u_values = (u_step, 0.0)
    elif scheme == "central":
        u_values = (0.5 * u_step, -0.5 * u_step)
    else:
        raise ValueError(f"unknown scheme {scheme!r}; expected 'forward' or 'central'")
    if rho0 is None:
        rho0 = lower_ground_state()

    finals = []
    time = 0.0
    for u in u_values:
        gen = total_liouvillian(method, spec, bath, u=u,
                                include_shifts=include_shifts, pairing_tol=pairing_tol)
        times, states = propagate(gen, rho0, t_end, dt)
        time = float(times[-1])
        finals.append((np.trace(states[-2]), np.trace(states[-1])))
    q_prev = -1j * (finals[0][0] - finals[1][0]) / u_step
    q_last = -1j * (finals[0][1] - finals[1][1]) / u_step
    current = (q_last - q_prev) / dt
    return HeatRecord(time=time, mean_heat=float(q_last.real), current=float(current.real),
                      method=method, route="counting_fd", fd_imag=float(q_last.imag))


def min_eigenvalue(rho: np.ndarray) -> float:
    """Smallest eigenvalue of the hermitized state; a positivity monitor.

    Accepts a single state or a stack of states (trajectory); for a stack
    the minimum over the whole stack is returned.
    """
    a = np.asarray(rho)
    h = 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))
    return float(np.linalg.eigvalsh(h)[..., 0].min())


def dressed_coherence(rho: np.ndarray) -> complex:
    """Coherence <+|rho|-> between the drive-dressed states."""
    plus, minus = dressed_states()
    return complex(plus.conj() @ np.asarray(rho) @ minus)
