"""Time evolution, steady states, and the two heat measurement routes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bath import BathSpec
from .generators import (
    DIM,
    FROM_REAL,
    TRACE_VECTOR,
    Liouvillian,
    Spectrum,
    from_real,
    to_real,
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
# most RK4 steps whose one-step matrices propagate builds at once
_CHUNK = 128
# relative margin of min_eigenvalue's Sylvester check, far above the
# rounding of its minors (~1e-14) and of eigvalsh
_SYLVESTER_MARGIN = 1e-12
# the trace of a state from its real Hermitian coordinates (generators.to_real)
_REAL_TRACE = (TRACE_VECTOR @ FROM_REAL).real
# FROM_REAL with unit columns (the Re/Im ones scaled by 1/sqrt(2)): a unitary
# map Q.  steady_state reads the real Q^H L Q, with row 0 replaced by the
# trace row _UNIT_TRACE, [1, 1, 1, 0, ..., 0]: its state by one solve, and
# a certificate of its checks by one inverse; an SVD runs only on the
# points that the certificate does not clear
_UNIT_FROM_REAL = FROM_REAL * np.where(np.arange(DIM * DIM) < DIM, 1.0, 0.5 ** 0.5)
_UNIT_TRACE = (TRACE_VECTOR @ _UNIT_FROM_REAL).real
# |trace| of a unit null vector below which it cannot be normalized
_TRACELESS_TOL = 1e-12
# steady_state's certificate margin per unit of ||real||_F + sqrt(3)
_CERTIFICATE_ROUNDING = 64 * np.finfo(float).eps


class PropagationError(RuntimeError):
    """Raised when a fixed step is unstable or loses the trace normalization."""


class SteadyStateError(RuntimeError):
    """Raised when no unique, well-conditioned steady state exists."""


def _time_grid(t_end: float, dt: float) -> np.ndarray:
    """Grid k dt, k = 0 .. round(t_end / dt), shared by propagate and evolve."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (np.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"t_end must be non-negative and finite, got {t_end}")
    return np.arange(int(round(t_end / dt)) + 1) * dt


def _coordinates(liouvillian: Liouvillian, caller: str) -> np.ndarray:
    """A u = 0 generator's matrix in real Hermitian coordinates; ValueError if annotated."""
    if liouvillian.u != 0.0:
        raise ValueError(f"{caller} requires an unannotated (u = 0) generator")
    matrix = liouvillian.matrix
    # a non-finite entry maps to NaNs, which the caller's checks reject
    with np.errstate(over="ignore", invalid="ignore"):
        return to_real(matrix) if np.iscomplexobj(matrix) else matrix


def propagate(generator_at: Callable[[np.ndarray], Liouvillian], rho0: np.ndarray,
              t_end: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Classical fixed-step fourth-order Runge-Kutta integration.

    generator_at maps an array of times to the generators there, which must
    be unannotated (u = 0; an annotated one raises ValueError): a
    Liouvillian whose matrix has shape points + t.shape + (9, 9) (points:
    the leading axes of a stack, none for one point), or for one point a
    single (9, 9) matrix that holds at every time (lambda t: gen for a
    constant generator).  Returns (times, states), states[..., k, ...] being
    the state at times[k] of each point, all started from rho0; t_end is
    rounded to a whole number of steps of size dt.  The states are stepped
    as real 9-vectors in the real Hermitian coordinates of
    generators.to_real, rho0 mapped to them once (an anti-Hermitian part of
    it dropped).  A real matrix is read in them
    (TclPropagator.matrix_generator) and its states are returned as such,
    shape points + (len(times), 9); a complex one is mapped to them by
    to_real as generator_at returns it, and its states come back as 3x3
    states (generators.from_real), shape points + (len(times), 3, 3).

    The grid is walked in chunks of at most _CHUNK steps.  For each chunk
    generator_at is called once, on the grid times and the midpoints
    t + dt/2, and the one-step matrices S = I + D with
    D = dt/6 (K1 + 2 K2 + 2 K3 + K4) are built as stacks, where K1 = M(t),
    K2 = M(t + dt/2)(I + dt/2 K1), K3 = M(t + dt/2)(I + dt/2 K2) and
    K4 = M(t + dt)(I + dt K3): classical RK4 written as a matrix.  The state
    then advances by one matvec per step, y_{k+1} = y_k + D_k y_k; leaving
    I out of the stored D keeps the rounding of each step as small as the
    increment, as in the stage form.  The chunk cap bounds the memory the
    stacks take.

    A generator with an infinite or NaN entry at the first or last grid
    time raises PropagationError before any step.  So does an unstable
    step: before any step, when the RK4 gain max |R(dt lambda)| over the
    eigenvalues of the generator at the first and last grid times,
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, exceeds 1 + 1e-9 at the worst
    point or is not finite; and when the trace of any point drifts by
    more than 1e-6 (or is not finite) at any step, which a u = 0
    generator preserves exactly.  The drift is checked
    per chunk, for all of its states at once; the first drifting step is
    named, with the largest drift over the points there, and no warning
    escapes: a state that overflows after that step is never returned.
    """
    times = _time_grid(t_end, dt)
    ends = generator_at(times[[0, -1]])
    points = ends.matrix.shape[:-3]
    end_matrices = np.broadcast_to(_coordinates(ends, "propagate"),
                                   points + (2, DIM * DIM, DIM * DIM))
    finite = np.isfinite(end_matrices).all(axis=(-2, -1)).reshape(-1, 2).all(axis=0)
    if not finite.all():
        t = times[[0, -1]][finite.argmin()]
        raise PropagationError(f"non-finite generator at t = {t:.6g}: it has an infinite or NaN entry")
    z = dt * np.linalg.eigvals(end_matrices)
    # a step so large that z^4 overflows gives an inf or NaN gain, which fails
    with np.errstate(over="ignore", invalid="ignore"):
        gains = np.abs(1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0).max(axis=-1)
    for t, gain in zip(times[[0, -1]], gains.reshape(-1, 2).max(axis=0)):
        if not gain <= 1.0 + RK4_GAIN_TOL:
            raise PropagationError(f"RK4 gain {gain:.6g} at t = {t:.6g} exceeds 1, the step "
                                   f"is unstable; reduce dt (currently {dt})")
    ident = np.eye(DIM * DIM)
    ys = np.empty(points + (len(times), DIM * DIM))
    y = ys[..., 0, :] = to_real(rho0)
    trace0 = y @ _REAL_TRACE
    for start in range(0, len(times) - 1, _CHUNK):
        grid = times[start:start + _CHUNK + 1]
        n = len(grid) - 1
        nodes = np.concatenate([grid, grid[:-1] + 0.5 * dt])
        mats = np.broadcast_to(_coordinates(generator_at(nodes), "propagate"),
                               points + nodes.shape + ident.shape)
        k1, half, end = mats[..., :n, :, :], mats[..., n + 1:, :, :], mats[..., 1:n + 1, :, :]
        k2 = half @ (ident + 0.5 * dt * k1)
        k3 = half @ (ident + 0.5 * dt * k2)
        k4 = end @ (ident + dt * k3)
        increments = (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        # the chunk raises at its first drifting step, so the states past
        # it, which may overflow, are never returned and do not warn
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n):
                y = ys[..., start + k + 1, :] = (
                    y + (increments[..., k, :, :] @ y[..., None])[..., 0])
            drift = np.abs(ys[..., start + 1:start + n + 1, :] @ _REAL_TRACE - trace0[..., None])
        failed = np.flatnonzero(~(drift <= TRACE_DRIFT_TOL).reshape(-1, n).all(axis=0))
        if failed.size:
            k = failed[0]
            raise PropagationError(
                f"trace drifted by {drift[..., k].max():.3e} at t = {grid[k + 1]:.6g}; "
                f"reduce dt (currently {dt})"
            )
    return times, from_real(ys) if np.iscomplexobj(ends.matrix) else ys


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
    stays accurate for defective or nearly defective a.  Broadcasts over
    leading axes: the 1-norm and s are taken per matrix, and the squaring
    loop runs max(s) times, keeping a square only where the matrix still
    needs one, so each result equals its one-matrix call.  A NaN 1-norm
    gives s = 0; an infinite one is the caller's to reject.
    """
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.fmax(norm, _THETA13) / _THETA13)).astype(int)
    a = a / (2.0 ** s)[..., None, None]
    b = _PADE13
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        r = np.where((k < s)[..., None, None], r @ r, r)
    return r


def _finite(liouvillian: Liouvillian) -> Liouvillian:
    """liouvillian, or PropagationError when an infinite entry leaves exp(dt L) undefined."""
    if np.isinf(liouvillian.matrix).any():
        raise PropagationError("non-finite generator: it has an infinite entry, "
                               "so exp(dt L) is undefined")
    return liouvillian


def evolve(liouvillian: Liouvillian, rho0: np.ndarray, t_end: float,
           dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact evolution under a constant unannotated (u = 0) generator on propagate's time grid.

    Returns (times, states) with times[k] = k dt and states[..., k, ...] =
    exp(times[k] L) rho0, for the same whole number of steps as propagate,
    computed and returned as there: real 9-vectors for a real matrix, 3x3
    states for a complex one.  The one-step propagator P = exp(dt L) is
    computed once; the states are then filled by doubling: states
    n .. 2n-1 are P^n applied to states 0 .. n-1, and P^n is squared for
    the next block.  There is no step size limit.  A generator with an
    infinite entry raises PropagationError, and an annotated one
    ValueError, before the exponential.  A trace drift above 1e-6 (or a
    non-finite trace) anywhere along the trajectory raises
    PropagationError, and no warning escapes: an exponential or a state
    that overflows fails this check by name.  Broadcasts over a stack of
    generators; every point equals its one-point call, and the first point
    that fails a check names it.
    """
    times = _time_grid(t_end, dt)
    n = len(times)
    with np.errstate(over="ignore", invalid="ignore"):
        # an infinite entry is named before to_real turns it into NaNs
        power = _expm(dt * _coordinates(_finite(liouvillian), "evolve"))
        ys = np.empty(power.shape[:-2] + (n, DIM * DIM))
        ys[..., 0, :] = to_real(rho0)
        filled = 1
        while filled < n:
            block = min(filled, n - filled)
            ys[..., filled:filled + block, :] = ys[..., :block, :] @ power.swapaxes(-1, -2)
            filled += block
            if filled < n:
                power = power @ power
        trace = (ys @ _REAL_TRACE).reshape(-1, n)
        drift = np.abs(trace - trace[:, :1])
    failed = np.flatnonzero(~(drift <= TRACE_DRIFT_TOL).all(axis=1))
    if failed.size:
        drift = drift[failed[0]]
        k = int(drift.argmax())
        raise PropagationError(f"trace drifted by {drift[k]:.3e} at t = {times[k]:.6g}; "
                               "the generator does not preserve it")
    return times, from_real(ys) if np.iscomplexobj(liouvillian.matrix) else ys


def _name_traceless(real: np.ndarray, points: np.ndarray):
    """SteadyStateError naming the first of points whose unit null vector (full SVD) is traceless.

    real holds steady_state's matrices, one per point; returns when none
    of points has a traceless null vector.
    """
    if points.size:
        trace = np.linalg.svd(real[points])[2][:, -1, :] @ _UNIT_TRACE
        traceless = np.flatnonzero(np.abs(trace) < _TRACELESS_TOL)
        if traceless.size:
            raise SteadyStateError(f"null vector is traceless (trace {trace[traceless[0]]:.3e}), "
                                   "cannot normalize")


def steady_state(liouvillian: Liouvillian) -> tuple[np.ndarray, np.ndarray]:
    """Unique null state of an unannotated generator, and its residual.

    Found in orthonormal real Hermitian coordinates: with Q the unitary
    _UNIT_FROM_REAL, real = Q^H L Q is real for a Hermiticity-preserving L
    (its imaginary part, roundoff, is dropped) and has L's singular values.
    The state is one bordered solve, B x = e_0 with B real with row 0
    replaced by the trace row, which for a trace-preserving L (row 0 minus
    the sum of rows 1 and 2) gives the null vector with trace 1, mapped
    back by Q to an exactly Hermitian state.  Returns (rho, residual), the
    residual being steady_residual(liouvillian, rho) of the complex L, in
    the shape of the stack.  Raises SteadyStateError when the
    second-smallest singular value is within 1e-8 of the smallest (no
    unique steady state), when the unit null vector's trace is below 1e-12
    in magnitude, or when the residual exceeds 1e-10 max(1, sigma_max); a
    u = 0 matrix that breaks Hermiticity fails this check, as does, without
    a warning, a residual that overflows.

    A certificate clears a point of the tie and residual checks without an
    SVD.  B is a rank-one change of real, so by Weyl's inequalities (Horn &
    Johnson, Topics in Matrix Analysis, Thm 3.3.16) sigma_8(real) >=
    sigma_min(B) >= lower = 1 / ||B^-1||_F (one stacked inverse); and
    sigma_9(real) <= upper = ||real x|| / ||x||, sigma_max >= ||real||_F / 3.
    A point is cleared when lower - upper > 1e-8 + margin and the residual
    is at most 1e-10 max(1, ||real||_F / 3 - margin).  margin = 64 eps
    (||real||_F + sqrt(3)) covers the rounding by first-order bounds, in
    units of eps times a norm, n = 9: the values-only SVD's backward error,
    n for each of sigma_8 and sigma_9 (18; at most 2.2 seen against
    40-digit values on random and graded matrices); the LU inverse's, 3n
    at unit growth, of ||B||_F <= ||real||_F + sqrt(3) (27; 0.07 seen);
    real x (9; 0.4 seen); norms and sums (4).  A solution norm above 1e12
    puts lower below 1e-12, and a LinAlgError clears no point.  Only the
    points not cleared run the SVD: values-only, then full for those whose
    values tie, which decides and names a tie (at a huge norm the values
    may be roundoff) and a traceless null vector, flagged by a singular
    bordered matrix (LinAlgError, re-raised when the SVD finds none) or a
    solution norm, 1 / |trace|, above 1e12.  So every verdict and message
    is the SVD's.  Broadcasts over a stack of generators; the checks hold
    for every point, and the first point that fails one names it.
    """
    if liouvillian.u != 0.0:
        raise ValueError("steady_state requires an unannotated (u = 0) generator")
    real = (_UNIT_FROM_REAL.conj().T @ liouvillian.matrix @ _UNIT_FROM_REAL).real
    square = real.reshape(-1, DIM * DIM, DIM * DIM)
    bordered = real.copy()
    bordered[..., 0, :] = _UNIT_TRACE
    singular, checked = None, np.arange(len(square))
    # an overflowing solution or residual fails below by name, and clears no point
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            lower = 1.0 / np.linalg.norm(np.linalg.inv(bordered), axis=(-2, -1))
            x = np.linalg.solve(bordered, np.eye(DIM * DIM)[:, :1])[..., 0]
        except np.linalg.LinAlgError as exc:
            singular = exc
        else:
            norm = np.linalg.norm(x, axis=-1)
            upper = np.linalg.norm((real @ x[..., None])[..., 0], axis=-1) / norm
            rho = unvectorize(x @ _UNIT_FROM_REAL.T)
            residual = steady_residual(liouvillian, rho)
            fro = np.linalg.norm(real, axis=(-2, -1))
            margin = _CERTIFICATE_ROUNDING * (fro + 3.0 ** 0.5)
            cleared = ((lower - upper > STEADY_GAP_TOL + margin)
                       & (residual <= STEADY_RESIDUAL_TOL * np.maximum(1.0, fro / 3.0 - margin)))
            checked = np.flatnonzero(~np.ravel(cleared))
        flat = (np.linalg.svd(square[checked], compute_uv=False) if checked.size
                else np.empty((0, DIM * DIM)))
        flagged = np.flatnonzero(flat[:, -2] < flat[:, -1] + STEADY_GAP_TOL)
        if flagged.size:
            flat[flagged] = np.linalg.svd(square[checked[flagged]])[1]
            tied = flagged[flat[flagged, -2] < flat[flagged, -1] + STEADY_GAP_TOL]
            if tied.size:
                lowest, second = flat[tied[0], -1], flat[tied[0], -2]
                raise SteadyStateError(
                    f"steady state is not unique: smallest singular values "
                    f"{lowest:.3e} and {second:.3e}"
                )
        if singular is not None:
            _name_traceless(square, checked)
            raise singular
        _name_traceless(square, np.flatnonzero(np.ravel(norm) > 1.0 / _TRACELESS_TOL))
    bound = STEADY_RESIDUAL_TOL * np.maximum(1.0, flat[:, 0])
    failed = np.flatnonzero(~(np.ravel(residual)[checked] <= bound))
    if failed.size:
        k = failed[0]
        raise SteadyStateError(
            f"steady-state residual {residual.flat[checked[k]]:.3e} exceeds {bound[k]:.3g}")
    return rho, residual


def steady_residual(liouvillian: Liouvillian, rho: np.ndarray):
    """Norm of the generator applied to a state; zero for a steady state.

    Broadcasts over stacked generators and states.
    """
    flow = liouvillian.matrix @ vectorize(rho)[..., None]
    return np.linalg.norm(flow[..., 0], axis=-1)[()]


def heat_current_trace(liouvillian: Liouvillian, rho: np.ndarray):
    """Instantaneous phonon heat current Re Tr(Y rho), Y the generator's heat operator.

    Positive values mean energy flowing from the system into the bath.
    Cooling spectra plot bath absorption, which is the negative of this.
    Broadcasts over stacked generators and states.
    """
    if liouvillian.heat_operator is None:
        raise ValueError("generator carries no heat operator")
    return (liouvillian.heat_operator * np.swapaxes(rho, -1, -2)).sum((-2, -1)).real[()]


@dataclass(frozen=True)
class HeatRecord:
    """Mean exchanged heat and instantaneous current, as measured.

    mean_heat_fd and TclPropagator.propagate return it, holding only what
    they measured, not their inputs.  mean_heat is the heat transferred to
    the bath up to `time` (positive into the bath).  For the
    finite-difference route fd_imag stores the imaginary part of the
    difference quotient, which would vanish for an exact u-derivative and
    serves as a step-size diagnostic.  For a stacked spec, mean_heat,
    current and fd_imag (mean_heat_fd) are arrays of the stack's shape.
    """

    time: float
    mean_heat: float
    current: float
    fd_imag: float = 0.0


def mean_heat_fd(method: str, spec: SystemSpec, bath: BathSpec, t_end: float = 30.0,
                 dt: float = 0.05, u_step: float = 0.05, scheme: str = "central",
                 pairing_tol: float | None = None, shared: Spectrum | None = None) -> HeatRecord:
    """Counting-field finite-difference estimate of the mean heat.

    scheme="forward" uses -i (chi(u_step) - chi(0)) / u_step, the plain
    one-sided quotient.  scheme="central" (default) evaluates chi at
    +u_step/2 and -u_step/2 with the same division, which cancels the odd
    error terms and cuts the leading finite-u bias by a factor of four for
    the same step.  With chi(u) = sum_n (iu)^n m_n / n!, m_n = <Q^n> the
    raw moments of the heat, the forward quotient is
    m_1 - u_step^2 m_3 / 6 + O(u_step^4) in its real part and
    u_step m_2 / 2 in its imaginary part (fd_imag), and the central one is
    m_1 - u_step^2 m_3 / 24: both biases come from the third raw moment.
    One generator annotated at u = u_step (forward) or u_step / 2
    (central) is built (total_liouvillian, which reads pairing_tol and
    shared, spectrum's value for spec, and without it builds what method
    reads), always from the lower ground state, so chi(0, t) = 1; as
    chi(-u, t) = conj(chi(u, t)), the central fd_imag is zero.
    chi(u, t) = Tr rho_u(t) at the last two grid times gives the
    mean heat and the instantaneous current, the change of the estimate
    over the final step dt, of which t_end must span at least one.  Only
    those two states are computed, on evolve's time grid (n times), with
    evolve's check for an infinite entry: P = exp(dt L_u) is formed once,
    P^(n-2) is applied to the initial state by the binary squarings of P
    that evolve's doubling uses, and one more P gives the last state.  A
    non-finite chi (an exponential that overflows) or a zero one (an
    exponential that underflows) raises PropagationError, without a
    warning.  Broadcasts over a stacked spec: mean_heat, current
    and fd_imag then hold arrays of the stack's shape, each point equal to
    its one-point call, which gives scalars.
    """
    if not (np.isfinite(u_step) and u_step > 0):
        raise ValueError(f"u_step must be positive and finite, got {u_step}")
    if scheme not in ("forward", "central"):
        raise ValueError(f"unknown scheme {scheme!r}; expected 'forward' or 'central'")
    times = _time_grid(t_end, dt)
    if len(times) < 2:
        raise ValueError(f"t_end {t_end} spans no full step of dt {dt}")
    gen = total_liouvillian(method, spec, bath, u=u_step if scheme == "forward" else 0.5 * u_step,
                            pairing_tol=pairing_tol, shared=shared)
    # a chi that overflows fails below by name
    with np.errstate(over="ignore", invalid="ignore"):
        step = _expm(dt * _finite(gen).matrix)
        state = np.broadcast_to(vectorize(lower_ground_state()), step.shape[:-2] + (1, DIM * DIM))
        power, steps = step, len(times) - 2
        while steps:
            if steps & 1:
                state = state @ power.swapaxes(-1, -2)
            steps >>= 1
            if steps:
                power = power @ power
        last_two = np.concatenate([state, state @ step.swapaxes(-1, -2)], axis=-2)
        chi = np.trace(unvectorize(last_two), axis1=-2, axis2=-1)
    # |chi(u, t)| stays near 1 at a small u: a chi of 0 underflowed
    usable = (np.isfinite(chi) & (chi != 0.0)).reshape(-1, 2)
    failed = np.flatnonzero(~usable.all(axis=1))
    if failed.size:
        k = int(usable[failed[0]].argmin())
        raise PropagationError(f"characteristic function chi(u, t) = "
                               f"{chi.reshape(-1, 2)[failed[0], k]} at t = {times[k - 2]:.6g} "
                               f"is not finite and nonzero; exp(t L_u) over- or underflowed")
    chi_other = 1.0 if scheme == "forward" else chi.conj()
    heat = -1j * (chi - chi_other) / u_step
    q_prev, q_last = heat[..., 0], heat[..., 1]
    current = (q_last - q_prev) / dt
    return HeatRecord(time=float(times[-1]), mean_heat=q_last.real[()],
                      current=current.real[()], fd_imag=q_last.imag[()])


def min_eigenvalue(rho: np.ndarray):
    """Smallest eigenvalue of the hermitized state; a positivity monitor.

    Accepts a single state or a trajectory of states, for which the
    minimum over the trajectory is returned, and broadcasts over leading
    axes of stacked trajectories: 3x3 states, shape (..., T, 3, 3), or the
    real Hermitian coordinates that evolve and propagate return for a real
    generator (generators.to_real), shape (..., T, 9).  3x3 states are
    first reduced to the coordinates of their Hermitian part (to_real,
    which forms every entry that eigvalsh reads as 0.5 (a + a^H) does); the
    kernel below reads coordinates only, and eigvalsh solves their states
    (from_real).  The result equals the minimum of eigvalsh over every
    hermitized state, but only the states that can hold it are solved.
    With m the smallest eigenvalue of state 0, a later state h with s the
    largest |coordinate| is skipped when Sylvester's criterion shows
    h - (m + c s) I positive definite, c = 1e-12: its leading minors,
    formed from h / s, exceed c, c and c.  Every eigenvalue of a skipped
    state then lies above m + c s, and |h| <= 3 sqrt(2) s, so c s is far
    beyond the rounding of the minors and eigvalsh's own error (about
    eps |h|), and the state cannot hold the minimum.  NaN, zero and
    infinite states never pass and are solved, as is every state of a
    trajectory of length 1.
    """
    def lowest_of(c):
        return np.linalg.eigvalsh(from_real(c))[..., 0]

    coords = np.asarray(rho)
    if coords.shape[-1] == DIM:
        coords = to_real(coords)
    points = coords.shape[:-2]
    coords = coords.reshape((-1, coords.shape[-2] if coords.ndim > 1 else 1, DIM * DIM))
    lowest = lowest_of(coords[:, 0])
    if coords.shape[1] > 1:
        # one contiguous row per coordinate, shape (9, points, T - 1)
        later = np.ascontiguousarray(np.moveaxis(coords[:, 1:], -1, 0))
        # zero, infinite and NaN states give NaN minors, which fail; over-
        # and underflow only arise far from a tie, where either answer is exact
        with np.errstate(all="ignore"):
            inv = 1.0 / np.abs(later).max(axis=0)
            d0, d1, d2, xr, xi, yr, yi, zr, zi = later * inv
            shift = lowest[:, None] * inv + _SYLVESTER_MARGIN
            d0, d1, d2 = d0 - shift, d1 - shift, d2 - shift
            xx, yy, zz = xr * xr + xi * xi, yr * yr + yi * yi, zr * zr + zi * zi
            minor2 = d0 * d1 - xx
            # 2 Re(rho01 rho12 conj(rho02)) closes the 3x3 determinant
            cycle = (xr * zr - xi * zi) * yr + (xr * zi + xi * zr) * yi
            minor3 = d0 * (d1 * d2 - zz) - d1 * yy - d2 * xx + 2.0 * cycle
            solve = np.nonzero(~((d0 > _SYLVESTER_MARGIN) & (minor2 > _SYLVESTER_MARGIN)
                                 & (minor3 > _SYLVESTER_MARGIN)))
        np.minimum.at(lowest, solve[0], lowest_of(coords[:, 1:][solve]))
    return lowest.reshape(points)[()]
