import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from coolspec import dynamics
from coolspec.bath import BathSpec
from coolspec.config import profile_config
from coolspec.dynamics import (
    _CHUNK,
    _THETA13,
    STEADY_RESIDUAL_TOL,
    PropagationError,
    SteadyStateError,
    _expm,
    evolve,
    heat_current_trace,
    mean_heat_fd,
    min_eigenvalue,
    propagate,
    steady_residual,
    steady_state,
)
from coolspec.generators import (
    FROM_REAL,
    TO_REAL,
    TRACE_VECTOR,
    Liouvillian,
    from_real,
    spectrum,
    static_part,
    to_real,
    total_liouvillian,
    unvectorize,
    vectorize,
)
from coolspec.sweep import delta_grid
from coolspec.system import (
    IDX_E,
    IDX_GL,
    IDX_GU,
    SystemSpec,
    lower_ground_state,
)
from coolspec.tcl import TclPropagator

from conftest import kron_commutator, kron_lindblad, rk4_stages, steady_state_svd_oracle

BATH = BathSpec(alpha=0.01, omega_c=1.0, temperature=3.0)


def test_propagate_validates_steps():
    spec = SystemSpec(e_man=2.0, omega_rabi=1.0, gamma_rad=0.5)
    gen = total_liouvillian("phenomenological", spec, BATH)
    with pytest.raises(ValueError):
        propagate(lambda t: gen, lower_ground_state(), 1.0, 0.0)
    with pytest.raises(ValueError):
        propagate(lambda t: gen, lower_ground_state(), -1.0, 0.1)


def test_radiative_decay_exponential():
    # pure |e> decay: phonon terms cannot touch an undriven excited state
    spec = SystemSpec(e_man=2.0, delta=0.5, omega_rabi=0.0, gamma_rad=0.5)
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[IDX_E, IDX_E] = 1.0
    for method in ("bloch_redfield", "secular", "phenomenological"):
        gen = total_liouvillian(method, spec, BATH)
        times, states = propagate(lambda t: gen, rho0, 5.0, 0.01)
        populations = states[:, IDX_E, IDX_E].real
        assert_allclose(populations, np.exp(-0.5 * times), atol=1e-8)


def test_rk4_fourth_order_convergence():
    spec = SystemSpec(e_man=2.0, delta=0.3, omega_rabi=1.0, gamma_rad=0.5)
    gen = total_liouvillian("bloch_redfield", spec, BATH)
    rho0 = lower_ground_state()
    exact = expm(gen.matrix * 2.0) @ vectorize(rho0)

    def error(dt):
        _, states = propagate(lambda t: gen, rho0, 2.0, dt)
        return np.linalg.norm(vectorize(states[-1]) - exact)

    ratio = error(0.1) / error(0.05)
    assert 12.0 < ratio < 20.0


@pytest.mark.parametrize("t_end,dt", [(400.0, 5.0), (30.0, 7.0)])
def test_propagation_detects_unstable_step(t_end, dt):
    # a step size beyond the stability region must be refused before any
    # step; over only four steps (30, 7) the blowup is too short to show
    # in the trace
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)
    gen = total_liouvillian("bloch_redfield", spec, BATH)
    with pytest.raises(PropagationError, match="reduce dt"):
        propagate(lambda t: gen, lower_ground_state(), t_end, dt)


@pytest.mark.parametrize("steps", [0, 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
@pytest.mark.parametrize("kind", ["tcl", "tcl_real", "constant"])
def test_propagate_matches_stage_form_across_chunks(kind, steps):
    # the one-step matrices are built per chunk; across every chunk boundary
    # the states must be those of RK4's stage form, and generator_at is
    # called once for the end times and once per chunk, not per step.
    # tcl_real steps real Hermitian coordinates (matrix_generator), returned
    # as such, against the stage form of the complex generator
    spec = SystemSpec(e_man=2.0, delta=-0.5, omega_rabi=0.5, gamma_rad=0.5)
    if kind.startswith("tcl"):
        dt = 0.02
        prop = TclPropagator(spec, BATH, t_mem=30.0, dt=dt)
        generator_at = reference_at = prop.generator
        if kind == "tcl_real":
            generator_at = prop.matrix_generator
    else:
        dt = 0.05
        gen = total_liouvillian("bloch_redfield", spec, BATH)
        generator_at = reference_at = lambda t: gen  # noqa: E731
    calls = []

    def counted(t):
        calls.append(t)
        return generator_at(t)

    times, states = propagate(counted, lower_ground_state(), steps * dt, dt)
    ref_times, ref = rk4_stages(reference_at, lower_ground_state(), steps * dt, dt)
    if kind == "tcl_real":
        assert states.dtype == float and states.shape == (steps + 1, 9)
        states = from_real(states)
    assert states.dtype == complex
    assert len(calls) == 1 + math.ceil(steps / _CHUNK)
    assert times.tobytes() == ref_times.tobytes()
    assert np.abs(states - ref).max() <= 1e-13 * np.abs(ref).max()


def test_unstable_step_between_the_end_times_is_stopped():
    # a generator stable at the first and last grid times passes the gain
    # check; the per-chunk trace check must stop the blowup in between,
    # and no overflow past the drifting step may warn (an overflow
    # RuntimeWarning is an error here)
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)
    gen = total_liouvillian("bloch_redfield", spec, BATH)
    dt, steps = 0.05, 100
    ends = (np.arange(steps + 1) * dt)[[0, -1]]

    def generator_at(t):
        scale = np.where(np.isin(t, ends), 1.0, 1000.0)
        return Liouvillian(matrix=scale[..., None, None] * gen.matrix)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(PropagationError, match="trace drifted"):
            propagate(generator_at, lower_ground_state(), steps * dt, dt)


def _real(matrix):
    """A Hermiticity-preserving generator's matrix in real Hermitian coordinates."""
    return (TO_REAL @ matrix @ FROM_REAL).real


def _leaking_after_first_chunk(matrix, leaks, times, u=0.0):
    """generator_at scaling matrix 1000-fold past times[_CHUNK] where leaks, but at the ends."""
    def generator_at(t):
        scale = np.where(leaks & (t > times[_CHUNK]) & ~np.isin(t, times[[0, -1]]), 1000.0, 1.0)
        return Liouvillian(matrix=scale[..., None, None] * matrix[..., None, :, :], u=u)
    return generator_at


_LEAK_SPEC = SystemSpec(e_man=2.0, delta=np.array([-0.5, 0.0, 0.5]), omega_rabi=1.0,
                       gamma_rad=0.5)


def _leak_messages(matrix):
    """Drift messages of the stack whose point 1 leaks past step 128, and of point 1 alone.

    RuntimeWarnings are errors while they run.
    """
    dt, steps = 0.05, 300
    times = np.arange(steps + 1) * dt
    messages = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        leaks = np.array([False, True, False])[:, None]
        for generator_at in (_leaking_after_first_chunk(matrix, leaks, times),
                             _leaking_after_first_chunk(matrix[1], True, times)):
            with pytest.raises(PropagationError) as failure:
                propagate(generator_at, lower_ground_state(), steps * dt, dt)
            messages.append(str(failure.value))
    return messages


def test_stacked_drift_names_the_first_drifting_step_past_the_first_chunk():
    # only point 1 leaks trace, from step 129 on: the per-chunk check names
    # the same step and drift as a per-step check does, for the stack and
    # for point 1 alone, and nothing warns as the leak overflows later on.
    # A complex generator is stepped in real Hermitian coordinates, so the
    # drift is rounding of a state of norm ~7e12 there, whole ulps of it
    # that the generator's last bits move
    matrix = total_liouvillian("bloch_redfield", _LEAK_SPEC, BATH).matrix
    assert _leak_messages(matrix) == [
        "trace drifted by 9.766e-04 at t = 6.55; reduce dt (currently 0.05)"] * 2


def test_real_states_drift_names_the_same_step():
    # the leak above given in real Hermitian coordinates takes the same
    # stepping path, so it names the same first drifting step and figure
    matrix = _real(total_liouvillian("bloch_redfield", _LEAK_SPEC, BATH).matrix)
    assert _leak_messages(matrix) == [
        "trace drifted by 9.766e-04 at t = 6.55; reduce dt (currently 0.05)"] * 2


def _nan_between_the_ends(matrix):
    """generator_at of 10 steps of 0.05: matrix at the first and last grid times, NaN between."""
    ends = (np.arange(11) * 0.05)[[0, -1]]

    def generator_at(t):
        scale = np.where(np.isin(t, ends), 1.0, np.nan)
        return Liouvillian(matrix=scale[..., None, None] * matrix)
    return generator_at


def test_nan_state_between_the_end_times_is_stopped():
    # a NaN state has a NaN trace drift, which a `drift > tol` check let
    # through: the run went on and returned NaN states.  Nothing warns
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)
    matrix = total_liouvillian("bloch_redfield", spec, BATH).matrix
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(PropagationError, match="trace drifted by nan at t = 0.05"):
            propagate(_nan_between_the_ends(matrix), lower_ground_state(), 0.5, 0.05)


def test_real_nan_state_is_stopped():
    # the NaN generator above in real Hermitian coordinates: real states
    # are stopped at the same step, and nothing warns
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)
    matrix = _real(total_liouvillian("bloch_redfield", spec, BATH).matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(PropagationError, match="trace drifted by nan at t = 0.05"):
            propagate(_nan_between_the_ends(matrix), lower_ground_state(), 0.5, 0.05)


@pytest.mark.parametrize("entry", [math.inf, math.nan])
@pytest.mark.parametrize("coordinates", ["complex", "real"])
@pytest.mark.parametrize("end", [0, -1])
def test_propagate_names_a_non_finite_generator_at_the_end_times(entry, coordinates, end):
    # the RK4 gain check's eigvals raised numpy's bare LinAlgError "Array
    # must not contain infs or NaNs" here; nothing warns either
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)
    matrix = total_liouvillian("bloch_redfield", spec, BATH).matrix
    matrix = matrix if coordinates == "complex" else _real(matrix)
    broken = matrix.copy()
    broken[0, 0] = entry
    bad_time = (np.arange(21) * 0.05)[end]

    def generator_at(t):
        return Liouvillian(matrix=np.where((t == bad_time)[..., None, None], broken, matrix))

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(PropagationError, match=rf"^non-finite generator at t = {bad_time:g}: "
                                                   r"it has an infinite or NaN entry$"):
            propagate(generator_at, lower_ground_state(), 1.0, 0.05)
        if end == 0:
            # the constant generator of the reproduction, at both end times
            with pytest.raises(PropagationError, match=r"^non-finite generator at t = 0: "):
                propagate(lambda t: Liouvillian(matrix=broken), lower_ground_state(), 1.0, 0.05)


@pytest.mark.parametrize("method", ["bloch_redfield", "secular", "phenomenological"])
@pytest.mark.parametrize("delta,omega,u", [(0.0, 0.0, 0.0), (0.3, 0.5, 0.0), (0.0, 1.0, 0.05)])
@pytest.mark.parametrize("dt", [0.05, 30.0])
def test_pade_exponential_matches_scipy(method, delta, omega, u, dt):
    # dt 30 puts the 1-norm of dt L above theta_13, so the squaring runs;
    # delta = omega = 0 is the degenerate point where eigenvectors are unsafe
    spec = SystemSpec(e_man=2.0, delta=delta, omega_rabi=omega, gamma_rad=0.5)
    a = dt * total_liouvillian(method, spec, BATH, u=u).matrix
    assert (np.abs(a).sum(axis=0).max() > _THETA13) == (dt > 1.0)
    exact = expm(a)
    assert np.abs(_expm(a) - exact).max() < 1e-14 * np.abs(exact).max()


@pytest.mark.parametrize("method", ["bloch_redfield", "secular", "phenomenological"])
def test_evolve_matches_fine_rk4(method):
    # RK4 at dt/16 is converged to ~1e-13; evolve must agree on every grid state
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=0.5, gamma_rad=0.5)
    gen = total_liouvillian(method, spec, BATH)
    times, states = evolve(gen, lower_ground_state(), 10.0, 0.05)
    fine_times, fine = propagate(lambda t: gen, lower_ground_state(), 10.0, 0.05 / 16)
    assert states.shape == (201, 3, 3)
    assert_allclose(times, fine_times[::16], rtol=1e-14)
    assert np.abs(states - fine[::16]).max() < 1e-11


def test_evolve_grid_and_validation():
    spec = SystemSpec(e_man=2.0, omega_rabi=1.0, gamma_rad=0.5)
    gen = total_liouvillian("bloch_redfield", spec, BATH)
    rho0 = lower_ground_state()
    times, states = evolve(gen, rho0, 0.02, 0.05)
    assert_allclose(times, [0.0])
    assert_allclose(states, [rho0])
    # the step RK4 refuses at (30, 7) is exact here
    times, states = evolve(gen, rho0, 30.0, 7.0)
    assert_allclose(times, [0.0, 7.0, 14.0, 21.0, 28.0])
    assert_allclose(vectorize(states[-1]), expm(28.0 * gen.matrix) @ vectorize(rho0), atol=1e-13)
    with pytest.raises(ValueError, match="dt"):
        evolve(gen, rho0, 1.0, 0.0)
    with pytest.raises(ValueError, match="dt"):
        evolve(gen, rho0, 1.0, -0.1)
    with pytest.raises(ValueError, match="t_end"):
        evolve(gen, rho0, -1.0, 0.1)
    # non-finite grids are named, not left to a NaN grid or an OverflowError
    for dt in (math.inf, math.nan):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            evolve(gen, rho0, 1.0, dt)
    for t_end in (math.inf, math.nan):
        with pytest.raises(ValueError, match="t_end must be non-negative and finite"):
            evolve(gen, rho0, t_end, 0.1)


def test_evolve_detects_trace_loss():
    # uniform decay loses the trace, which an unannotated generator must
    # keep, given as a complex matrix or in real coordinates
    for dtype in (complex, float):
        leaky = Liouvillian(matrix=-0.01 * np.eye(9, dtype=dtype))
        with pytest.raises(PropagationError, match="trace drifted"):
            evolve(leaky, lower_ground_state(), 1.0, 0.05)
        broken = Liouvillian(matrix=np.full((9, 9), np.nan, dtype=dtype))
        with pytest.raises(PropagationError, match="trace drifted by nan"):
            evolve(broken, lower_ground_state(), 1.0, 0.05)


def test_steady_state_unique_and_stationary():
    spec = SystemSpec(e_man=2.0, delta=0.2, omega_rabi=1.0, gamma_rad=0.5)
    for method in ("bloch_redfield", "secular", "phenomenological"):
        gen = total_liouvillian(method, spec, BATH)
        rho, _ = steady_state(gen)
        assert_allclose(np.trace(rho).real, 1.0, atol=1e-12)
        assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert steady_residual(gen, rho) < 1e-10
        assert min_eigenvalue(rho) > -1e-10


def test_steady_state_matches_long_time_propagation():
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)
    gen = total_liouvillian("bloch_redfield", spec, BATH)
    rho_ss, _ = steady_state(gen)
    _, states = propagate(lambda t: gen, lower_ground_state(), 200.0, 0.01)
    assert np.abs(states[-1] - rho_ss).max() < 1e-6


def test_steady_state_requires_unique_null_space():
    # undriven and undamped, |e><e| is a second stationary state
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=0.0, gamma_rad=0.0)
    gen = total_liouvillian("bloch_redfield", spec, BATH)
    with pytest.raises(SteadyStateError, match="not unique"):
        steady_state(gen)


def _leaking_annotated(gen):
    # an annotated generator that leaks trace and overflows past the first
    # chunk; it is refused before any step
    times = np.arange(301) * 0.05
    return propagate(_leaking_after_first_chunk(gen.matrix, True, times, u=gen.u),
                     lower_ground_state(), 15.0, 0.05)


@pytest.mark.parametrize("entry", [
    steady_state,
    lambda gen: propagate(lambda t: gen, lower_ground_state(), 1.0, 0.05),
    lambda gen: evolve(gen, lower_ground_state(), 1.0, 0.05),
    _leaking_annotated,
], ids=["steady_state", "propagate", "evolve", "propagate_leaking"])
def test_unannotated_entry_points_reject_annotated_generator(entry):
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)
    gen = total_liouvillian("bloch_redfield", spec, BATH, u=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="requires an unannotated \\(u = 0\\) generator"):
            entry(gen)


GENERATORS = ("bloch_redfield", "secular", "phenomenological", "tcl_frozen")


def _u0_generator(name, spec):
    """An unannotated generator of spec: Markovian, or TCL frozen at t_mem."""
    if name == "tcl_frozen":
        prop = TclPropagator(spec, BATH, t_mem=10.0)
        return prop.generator(prop.taus[-1])
    return total_liouvillian(name, spec, BATH)


STACK = SystemSpec(e_man=2.0, delta=np.array([-1.0, -0.3, 0.0, 0.4, 1.2]),
                   omega_rabi=np.array([0.5, 1.0, 0.1, 0.5, 1.0]), gamma_rad=0.5)


@pytest.mark.parametrize("name", GENERATORS)
def test_steady_state_svd_is_real_with_the_generators_singular_values(name, monkeypatch):
    # steady_state works in orthonormal real Hermitian coordinates: a real
    # matrix, unitarily similar to the generator, so with its singular
    # values.  Its certificate inverts that matrix with row 0 replaced by
    # the trace row, B, and solves B x = e_0: 1 / ||B^-1||_F bounds sigma_8
    # from below, ||real x|| / ||x|| bounds sigma_9 from above (up to the
    # rounding its margin covers), and no SVD runs on these healthy points
    gen = _u0_generator(name, STACK)
    inv, solve, seen = np.linalg.inv, np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "inv", lambda a: seen.append((a, inv(a))) or seen[-1][1])
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: seen.append((a, solve(a, b))) or seen[-1][1])
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: pytest.fail("an SVD ran"))
    rho, _ = steady_state(gen)
    monkeypatch.undo()
    (bordered, inverse), (solved, x) = seen
    # Q = FROM_REAL with unit columns; steady_state reads Q^H L Q as
    # to_real(L) with entry [i, j] scaled by n_i / n_j, n the column norms
    norms = np.linalg.norm(FROM_REAL, axis=0)
    unit = FROM_REAL / norms
    real = to_real(gen.matrix) * (norms[:, None] / norms)
    assert np.isrealobj(bordered) and bordered.shape == gen.matrix.shape
    assert np.array_equal(bordered[:, 1:], real[:, 1:]) and np.array_equal(solved, bordered)
    trace_row = TRACE_VECTOR @ unit
    assert np.array_equal(bordered[:, 0], np.broadcast_to(trace_row.real, (5, 9)))
    assert trace_row.tobytes() == (TRACE_VECTOR @ FROM_REAL).tobytes()
    # to_real's entries are sums of at most four exact products of L's
    # entries, weights summing to at most 2, rounded thrice (3 eps max|L|),
    # scaled by at most sqrt(2) and rounded once more; the complex
    # Q^H L Q rounds Q's 1/sqrt(2) and two matmuls of as many terms (about
    # 4 eps max|L|): 8 eps max|L| covers both (about 1 eps seen)
    complex_q = unit.conj().T @ gen.matrix @ unit
    scale = np.abs(gen.matrix).max(axis=(-2, -1))[:, None, None]
    assert (np.abs(real - complex_q.real) <= 8 * np.finfo(float).eps * scale).all()
    expected = np.linalg.svd(gen.matrix, compute_uv=False)
    sigmas = np.linalg.svd(real, compute_uv=False)
    assert np.abs(sigmas - expected).max(axis=-1).max() <= 1e-14 * expected[:, 0].min()
    lower = 1.0 / np.linalg.norm(inverse, axis=(-2, -1))
    upper = np.linalg.norm(real @ x, axis=(-2, -1)) / np.linalg.norm(x, axis=(-2, -1))
    margin = dynamics._CERTIFICATE_ROUNDING * (np.linalg.norm(real, axis=(-2, -1)) + 3.0 ** 0.5)
    assert (lower <= expected[:, -2]).all() and (upper + margin >= expected[:, -1]).all()
    assert (lower - upper > dynamics.STEADY_GAP_TOL + margin).all()
    assert np.array_equal(rho, rho.conj().swapaxes(-1, -2))
    assert_allclose(np.trace(rho, axis1=-2, axis2=-1), 1.0, atol=1e-14)


@pytest.mark.parametrize("name", GENERATORS)
def test_stacked_steady_state_equals_one_point_calls(name):
    rho, residual = steady_state(_u0_generator(name, STACK))
    for k, (delta, omega) in enumerate(zip(STACK.delta, STACK.omega_rabi)):
        spec = replace(STACK, delta=float(delta), omega_rabi=float(omega))
        rho_k, residual_k = steady_state(_u0_generator(name, spec))
        assert np.array_equal(rho[k], rho_k)
        assert residual[k] == residual_k


@pytest.mark.parametrize("name", GENERATORS[1:])
def test_undriven_undamped_steady_state_is_not_unique(name):
    # as test_steady_state_requires_unique_null_space, for the other generators
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=0.0, gamma_rad=0.0)
    with pytest.raises(SteadyStateError, match="not unique"):
        steady_state(_u0_generator(name, spec))


def test_steady_state_rejects_a_generator_that_breaks_hermiticity():
    # i times a Hermiticity-preserving map sends Hermitian states to
    # anti-Hermitian ones; the real coordinates drop that part, and the
    # residual against the full matrix must catch it
    spec = SystemSpec(e_man=2.0, delta=0.2, omega_rabi=1.0, gamma_rad=0.5)
    gen = total_liouvillian("bloch_redfield", spec, BATH)
    broken = Liouvillian(matrix=gen.matrix + 0.1j * static_part(spec))
    with pytest.raises(SteadyStateError, match="steady-state residual .* exceeds"):
        steady_state(broken)


def test_traceless_null_vector_names_the_first_failing_trace():
    # a unique null vector diag(1, -1, 0) / sqrt(2), behind a healthy point
    null = vectorize(np.diag([1.0, -1.0, 0.0])) / math.sqrt(2.0)
    traceless = np.eye(9) - np.outer(null, null.conj())
    healthy = total_liouvillian("secular", SystemSpec(e_man=2.0, omega_rabi=1.0, gamma_rad=0.5),
                                BATH).matrix
    with pytest.raises(SteadyStateError, match="null vector is traceless") as failure:
        steady_state(Liouvillian(matrix=np.stack([healthy, traceless])))
    trace = float(re.search(r"\(trace (\S+)\)", str(failure.value)).group(1))
    assert abs(trace) < 1e-12


def _lindblad_stack(points, seed):
    """points random Hermitian Hamiltonians, each with four jumps between the levels."""
    rng = np.random.default_rng(seed)
    matrices = []
    for _ in range(points):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        matrix = kron_commutator(a + a.conj().T)
        for i, j in ((0, 1), (1, 2), (2, 0), (1, 0)):
            jump = np.zeros((3, 3))
            jump[i, j] = 1.0
            matrix = matrix + rng.uniform(0.1, 2.0) * kron_lindblad(jump)
        matrices.append(matrix)
    return np.stack(matrices)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_steady_state_is_the_full_svds_null_vector(seed):
    # the bordered solve against the null vector of each point's full SVD,
    # trace normalized, on a stack of kron-built Lindblad generators
    matrices = _lindblad_stack(8, seed)
    rho, residual = steady_state(Liouvillian(matrix=matrices))
    for k, matrix in enumerate(matrices):
        null = np.linalg.svd(matrix)[2][-1].conj()
        assert np.abs(rho[k] - unvectorize(null / (TRACE_VECTOR @ null))).max() <= 1e-14
        assert residual[k] == steady_residual(Liouvillian(matrix=matrix), rho[k])
    assert np.array_equal(rho, rho.conj().swapaxes(-1, -2))
    assert np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0).max() <= 1e-15


def _split_levels(s):
    """Levels 0 and 1 exchanged at rates 1 and 0.7, level 2 joined at rate s.

    At s = 0 the null space has rank 2 (|2><2| is stationary too); the
    gap sigma_8 - sigma_9 grows as 1.583 s.
    """
    matrix = kron_commutator(np.diag([0.0, 1.0, 3.0]))
    for i, j, rate in ((0, 1, 1.0), (1, 0, 0.7), (2, 0, s), (0, 2, s)):
        jump = np.zeros((3, 3))
        jump[i, j] = rate ** 0.5
        matrix = matrix + kron_lindblad(jump)
    return matrix


def _gap(matrix):
    sigmas = np.linalg.svd(matrix, compute_uv=False)
    return sigmas[-2] - sigmas[-1]


def _steady_outcome(solver, matrix):
    """solver's (rho, residual) for the generator matrix, or its error's type and message."""
    try:
        return solver(Liouvillian(matrix=matrix))
    except (SteadyStateError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


def _against_oracle(matrix, monkeypatch):
    """steady_state's outcome on matrix, asserted bitwise equal to the oracle's, and its SVD calls.

    The calls are (shape, compute_uv) of each stack steady_state hands
    np.linalg.svd.
    """
    oracle = _steady_outcome(steady_state_svd_oracle, matrix)
    svd, calls = np.linalg.svd, []

    def spy(a, full_matrices=True, compute_uv=True, hermitian=False):
        calls.append((np.shape(a), compute_uv))
        return svd(a, full_matrices, compute_uv, hermitian)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", spy)
        outcome = _steady_outcome(steady_state, matrix)
    if isinstance(oracle[0], type):
        assert outcome == oracle
    else:
        assert all(np.array_equal(a, b) for a, b in zip(outcome, oracle))
    return outcome, calls


@pytest.mark.parametrize("side", [1.0 + 1e-6, 1.0 - 1e-6], ids=["above", "below"])
def test_gap_near_the_tie_tolerance_gets_the_svds_verdict(side, monkeypatch):
    # a gap within 1e-6 of 1e-8 (relative) on either side: the certificate
    # cannot clear it, and the SVD decides as it did for every point
    slope = _gap(_split_levels(1e-8)) / 1e-8
    matrix = _split_levels(side * 1e-8 / slope)
    assert (_gap(matrix) > 1e-8) == (side > 1.0)
    outcome, calls = _against_oracle(matrix, monkeypatch)
    assert calls == [((1, 9, 9), True)]
    if side > 1.0:
        assert steady_residual(Liouvillian(matrix=matrix), outcome[0]) == outcome[1]
    else:
        assert outcome[0] is SteadyStateError
        assert outcome[1].startswith("steady state is not unique: smallest singular values ")


def test_tie_away_from_zero_is_left_to_the_svd(monkeypatch):
    # sigma_8 = sigma_9 = 1e-5 at ||L||_F 2.6e6: the residual, 1e-5, is
    # below 1e-10 ||L||_F / 3 and lower = 1 / ||B^-1||_F is 7e-6, but
    # upper = 1e-5 keeps the tie from being cleared
    unit = FROM_REAL / np.linalg.norm(FROM_REAL, axis=0)
    matrix = unit @ np.diag([1e-5, 1e-5] + [1e6] * 7) @ unit.conj().T
    outcome, calls = _against_oracle(matrix, monkeypatch)
    assert outcome[0] is SteadyStateError and calls == [((1, 9, 9), True)]
    assert outcome[1].startswith("steady state is not unique: smallest singular values ")


def test_residual_between_the_two_bounds_passes_through_the_svd(monkeypatch):
    # i t [H, .] is dropped by the real coordinates, so the residual is
    # t ||[H, rho]||; t puts it above 1e-10 ||L||_F / 3, which clears no
    # point, and below 1e-10 sigma_max, which the SVD's check accepts
    spec = SystemSpec(e_man=2.0, delta=0.2, omega_rabi=1.0, gamma_rad=0.5)
    healthy = 100.0 * total_liouvillian("bloch_redfield", spec, BATH).matrix
    commutator = kron_commutator(np.diag([0.0, 1.0, 3.0]))
    rho, _ = steady_state(Liouvillian(matrix=healthy))
    sigma_max, fro = np.linalg.svd(healthy, compute_uv=False)[0], np.linalg.norm(healthy)
    target = 1e-10 * (sigma_max * fro / 3.0) ** 0.5
    t = target / np.linalg.norm(commutator @ vectorize(rho))
    matrix = np.stack([healthy, healthy + 1j * t * commutator])
    (_, residual), calls = _against_oracle(matrix, monkeypatch)
    assert 1e-10 * fro / 3.0 < residual[1] < 1e-10 * sigma_max and fro / 3.0 > 1.0
    assert calls == [((1, 9, 9), True)]


def test_steady_state_equals_the_svd_oracle_on_random_stacks(monkeypatch):
    # seeded stacks of one to four points, each a random GKLS generator
    # (some scaled towards 1e300), a near-tie or rank-2 null space of
    # _split_levels, a traceless or nearly traceless null vector, or a
    # generator that never changes rho_11, whose bordered matrix has a zero
    # row: every verdict and message of the SVD path must recur
    rng = np.random.default_rng(41)

    def gkls():
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        matrix = kron_commutator(a + a.conj().T)
        for _ in range(3):
            matrix = matrix + kron_lindblad(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        return matrix

    def null_projector():
        u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        tilt = rng.choice([0.0, 1e-13, 1e-11])
        null = vectorize(u @ np.diag([1.0, tilt - 1.0, 0.0]) @ u.conj().T)
        return np.eye(9) - np.outer(null, null.conj()) / (null.conj() @ null)

    def frozen_population():
        matrix = gkls()
        matrix[4] = 0.0
        return matrix

    draws = (
        gkls,
        lambda: 10.0 ** rng.choice([290, 298, 300, 305]) * gkls(),
        lambda: _split_levels(rng.choice([0.0, 1e-9, 6.3e-9, 6.4e-9, 1e-7])),
        null_projector,
        frozen_population,
    )
    kinds = set()
    for _ in range(60):
        picks = rng.choice(len(draws), size=rng.integers(1, 5), p=[0.5, 0.15, 0.15, 0.1, 0.1])
        outcome, calls = _against_oracle(np.stack([draws[k]() for k in picks]), monkeypatch)
        assert len(calls) <= 1 and all(uv for _, uv in calls)
        kinds.add(" ".join(outcome[1].split()[:2]) if isinstance(outcome[0], type)
                  else "ok after an SVD" if calls else "ok")
    assert kinds == {"ok", "ok after an SVD", "steady state", "steady-state residual",
                     "null vector", "Singular matrix"}


@pytest.mark.parametrize("method,alpha,gamma_rad", [("secular", 1e300, 0.5)])
def test_overflowing_steady_residual_fails_by_name_without_warning(method, alpha, gamma_rad):
    # rates of 1e300 put the residual near 1e285, whose square overflows:
    # the plain norm read inf and failed a state that is fine; taken again
    # by a hypot reduction it is finite and within the SVD's bound, and the
    # state is that of rates 1e200, whose residual norm does not overflow
    spec = SystemSpec(e_man=2.0, omega_rabi=0.5, gamma_rad=gamma_rad)
    gen = total_liouvillian(method, spec, replace(BATH, alpha=alpha))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho, residual = steady_state(gen)
        reference, _ = steady_state(total_liouvillian(method, spec, replace(BATH, alpha=1e200)))
        sigma0 = alpha * np.linalg.svd(gen.matrix / alpha, compute_uv=False)[0]
    assert np.isfinite(residual) and residual <= STEADY_RESIDUAL_TOL * sigma0
    assert residual > 1e154
    assert np.abs(rho - reference).max() <= 1e-12


def test_steady_residual_retakes_only_a_norm_whose_squares_overflow():
    # the norm of L rho at scales 1, 1e150, 1e200 and 1e300 of a
    # Bloch-Redfield L on a state that is not stationary: below ~1e154 the
    # plain norm, bitwise; above it a hypot reduction of the moduli, within
    # a few eps of the scaled plain norm (1 eps seen), and nothing warns;
    # an infinite or NaN entry of L keeps the residual non-finite
    spec = SystemSpec(e_man=2.0, delta=0.2, omega_rabi=1.0, gamma_rad=0.5)
    matrix = total_liouvillian("bloch_redfield", spec, BATH).matrix
    rho = lower_ground_state()
    plain = np.linalg.norm(matrix @ vectorize(rho))
    scales = np.array([1.0, 1e150, 1e200, 1e300])
    stack = scales[:, None, None] * matrix
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residual = steady_residual(Liouvillian(matrix=stack), rho)
        one = steady_residual(Liouvillian(matrix=stack[1]), rho)
    assert residual[0] == plain and residual[1] == one == np.linalg.norm(stack[1] @ vectorize(rho))
    assert_allclose(residual[2:] / scales[2:], plain, rtol=4 * np.finfo(float).eps)
    broken = np.stack([stack[3], stack[3]])
    broken[0, 0, 4 * IDX_GL], broken[1, 0, 4 * IDX_GL] = np.inf, np.nan
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(steady_residual(Liouvillian(matrix=broken), rho)).any()


def test_huge_radiative_rate_gives_a_solved_state_without_warning():
    # at gamma_rad 1e300 an SVD null vector kept an ~eps excited population,
    # whose residual, amplified 1e300-fold, overflowed ("residual inf"),
    # though the true residual is ~1e283 against a bound of ~1e290; the
    # bordered solve returns the state itself, its excited population ~0
    spec = SystemSpec(e_man=2.0, omega_rabi=0.5, gamma_rad=1e300)
    gen = total_liouvillian("phenomenological", spec, replace(BATH, alpha=0.01))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho, residual = steady_state(gen)
        sigma0 = np.linalg.svd(gen.matrix, compute_uv=False)[0]
    assert np.isfinite(rho).all()
    assert np.array_equal(rho, rho.conj().T)
    assert abs(np.trace(rho).real - 1.0) <= 1e-15
    assert residual <= STEADY_RESIDUAL_TOL * max(1.0, sigma0)


def test_heat_current_closed_form_without_drive():
    # undriven manifold: current into the bath is e_man (gamma_down p_up -
    # gamma_up p_low) for the rate pair of each method
    from coolspec.bath import rate_a

    spec = SystemSpec(e_man=2.0, delta=0.1, omega_rabi=0.0, gamma_rad=0.0)
    p_up, p_low = 0.55, 0.45
    rho = np.zeros((3, 3), dtype=complex)
    rho[IDX_GU, IDX_GU] = p_up
    rho[IDX_GL, IDX_GL] = p_low
    gamma_down = 2.0 * rate_a(2.0, BATH)
    gamma_up = 2.0 * rate_a(-2.0, BATH)
    expected = 2.0 * (gamma_down * p_up - gamma_up * p_low)
    for method in ("bloch_redfield", "secular", "phenomenological"):
        gen = total_liouvillian(method, spec, BATH)
        assert_allclose(heat_current_trace(gen, rho), expected, rtol=1e-12)


def test_heat_current_requires_heat_operator():
    from coolspec.generators import Liouvillian

    bare = Liouvillian(matrix=np.zeros((9, 9), dtype=complex))
    with pytest.raises(ValueError, match="heat operator"):
        heat_current_trace(bare, lower_ground_state())


# delta, omega: absorption-sign Bloch-Redfield J, J_pop, J_coh and secular J
# of the default steady states, ROADMAP item 4's table
_COHERENCE_TABLE = [
    (0.0, 0.01, 9.34e-5, 9.489e-2, -9.479e-2, 6.907e-2),
    (-0.5, 0.01, 3.273e-5, 4.949e-5, -1.676e-5, 4.615e-5),
    (0.0, 0.5, 8.603e-2, 1.228e-1, -3.675e-2, 1.135e-1),
]


@pytest.mark.parametrize("delta,omega,j_br,j_pop,j_coh,j_secular", _COHERENCE_TABLE)
def test_heat_operator_splits_into_populations_and_coherences(delta, omega, j_br, j_pop,
                                                               j_coh, j_secular):
    # the current is linear in rho, so with Y and rho in the dressed basis
    # J = J_pop + J_coh, their diagonal and off-diagonal parts;
    # Bloch-Redfield's near-total cancellation at resonance (criterion 4's
    # 740x) is between the two, while the secular heat operator is diagonal
    # there at a nondegenerate point, so its J_coh vanishes
    spec = SystemSpec(e_man=2.0, delta=delta, omega_rabi=omega, gamma_rad=0.5)
    shared = spectrum(spec, BATH)
    assert np.diff(shared.eig.energies).min() > 1e-3
    basis = shared.eig.basis
    off = ~np.eye(3, dtype=bool)
    for method, expected in (("bloch_redfield", (j_br, j_pop, j_coh)),
                             ("secular", (j_secular, j_secular, 0.0))):
        gen = total_liouvillian(method, spec, BATH, shared=shared)
        rho, _ = steady_state(gen)
        current = heat_current_trace(gen, rho)
        y, r = (basis.conj().T @ m @ basis for m in (gen.heat_operator, rho))
        pop, coh = (np.diag(y) * np.diag(r)).sum().real, (y[off] * r.T[off]).sum().real
        assert abs(pop + coh - current) <= 1e-15
        assert_allclose(-np.array([current, pop, coh]), expected, rtol=1e-3, atol=1e-15)
        if method == "secular":
            assert np.abs(y[off]).max() <= 1e-15 * np.abs(gen.heat_operator).max()


def test_characteristic_function_properties(characteristic_function):
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)
    rho0 = lower_ground_state()
    at_zero = characteristic_function(
        total_liouvillian("bloch_redfield", spec, BATH, u=0.0), rho0, 10.0, 0.05)
    assert_allclose(at_zero, 1.0, atol=1e-10)
    plus = characteristic_function(
        total_liouvillian("bloch_redfield", spec, BATH, u=0.3), rho0, 10.0, 0.05)
    minus = characteristic_function(
        total_liouvillian("bloch_redfield", spec, BATH, u=-0.3), rho0, 10.0, 0.05)
    # chi(-u) = conj(chi(u)) and |chi| <= 1 for a proper heat distribution
    assert_allclose(minus, np.conj(plus), atol=1e-12)
    assert abs(plus) <= 1.0 + 1e-12


def test_mean_heat_fd_schemes_and_validation():
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)
    for u_step in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="u_step must be positive and finite"):
            mean_heat_fd("bloch_redfield", spec, BATH, u_step=u_step)
    with pytest.raises(ValueError, match="scheme"):
        mean_heat_fd("bloch_redfield", spec, BATH, scheme="midpoint")
    with pytest.raises(ValueError, match="no full step"):
        mean_heat_fd("bloch_redfield", spec, BATH, t_end=0.02, dt=0.05)

    gen = total_liouvillian("bloch_redfield", spec, BATH)
    _, states = propagate(lambda t: gen, lower_ground_state(), 30.0, 0.05)
    reference = heat_current_trace(gen, states[-1])

    central = mean_heat_fd("bloch_redfield", spec, BATH, t_end=30.0, dt=0.05,
                           u_step=0.01, scheme="central")
    forward = mean_heat_fd("bloch_redfield", spec, BATH, t_end=30.0, dt=0.05,
                           u_step=0.01, scheme="forward")
    assert central.time == pytest.approx(30.0)
    # small-step central difference reproduces the trace-route current
    assert abs(central.current - reference) / abs(reference) < 1e-3
    # the one-sided quotient carries the larger finite-step bias
    assert abs(forward.current - reference) > abs(central.current - reference)
    # its imaginary part is O(u_step), nonzero but small
    assert 0.0 < abs(forward.fd_imag) < 0.1
    assert abs(central.fd_imag) < abs(forward.fd_imag)


def test_mean_heat_fd_checks_its_grid_before_building(monkeypatch):
    # a t_end under one dt is refused before any generator or exponential
    # is built
    from coolspec import dynamics

    def refused(*args, **kwargs):
        raise AssertionError("mean_heat_fd built a generator")

    monkeypatch.setattr(dynamics, "total_liouvillian", refused)
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)
    with pytest.raises(ValueError, match="no full step"):
        mean_heat_fd("bloch_redfield", spec, BATH, t_end=0.02, dt=0.05)
    with pytest.raises(ValueError, match="dt must be positive"):
        mean_heat_fd("bloch_redfield", spec, BATH, dt=0.0)


def test_mean_heat_fd_bias_scales_quadratically():
    # halving u_step must cut the central-difference bias about fourfold
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)
    gen = total_liouvillian("bloch_redfield", spec, BATH)
    _, states = propagate(lambda t: gen, lower_ground_state(), 30.0, 0.05)
    reference = heat_current_trace(gen, states[-1])
    bias = []
    for u_step in (0.08, 0.04):
        rec = mean_heat_fd("bloch_redfield", spec, BATH, t_end=30.0, dt=0.05,
                           u_step=u_step, scheme="central")
        bias.append(abs(rec.current - reference))
    assert 3.0 < bias[0] / bias[1] < 5.0


def test_transferred_heat_grows_linearly_at_the_plateau():
    # once the state has settled the mean heat must grow at a constant
    # rate: compare the increment over two disjoint late windows
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)
    records = [
        mean_heat_fd("bloch_redfield", spec, BATH, t_end=t, dt=0.05,
                     u_step=0.02, scheme="central")
        for t in (20.0, 25.0, 30.0)
    ]
    first = records[1].mean_heat - records[0].mean_heat
    second = records[2].mean_heat - records[1].mean_heat
    assert abs(second - first) / abs(first) < 1e-3
    # and the reported instantaneous current matches the window slope
    assert_allclose(records[2].current, second / 5.0, rtol=1e-3)


def test_dressed_coherence_projection(dressed_states, dressed_coherence):
    plus, minus = dressed_states
    assert dressed_coherence(np.outer(plus, plus.conj())) == pytest.approx(0.0, abs=1e-14)
    assert dressed_coherence(np.outer(plus, minus.conj())) == pytest.approx(1.0, abs=1e-14)
    # resonant strong driving leaves a bath-induced dressed coherence in
    # the steady state; the secular generator also produces one here since
    # the dressed splitting pairs transitions nondegenerately
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)
    rho, _ = steady_state(total_liouvillian("bloch_redfield", spec, BATH))
    assert abs(dressed_coherence(rho)) > 1e-3


def test_min_eigenvalue_batched():
    rng = np.random.default_rng(9)
    stack = rng.normal(size=(7, 3, 3)) + 1j * rng.normal(size=(7, 3, 3))
    singles = [min_eigenvalue(m) for m in stack]
    assert min_eigenvalue(stack) == pytest.approx(min(singles), abs=1e-14)


def _fig3a_chunk(real=False):
    # the trajectories of the first 16 points of paper-fig3a, as 3x3 states,
    # or, real, in real Hermitian coordinates as the sweep evolves them
    cfg = profile_config("paper-fig3a")
    deltas = delta_grid(cfg)[:16]
    spec = SystemSpec(e_man=cfg.e_man, gamma_rad=cfg.gamma_rad, delta=deltas,
                      omega_rabi=np.full(deltas.shape, cfg.omega_list[0]))
    bath = BathSpec(alpha=cfg.alpha, omega_c=cfg.omega_c, temperature=cfg.temperature)
    gen = total_liouvillian("bloch_redfield", spec, bath)
    if real:
        gen = Liouvillian(matrix=to_real(gen.matrix))
    return evolve(gen, lower_ground_state(), cfg.t_end, cfg.dt)[1]


def _tcl_slip():
    spec = SystemSpec(e_man=2.0, delta=-0.5, omega_rabi=0.5, gamma_rad=0.5)
    prop = TclPropagator(spec, BATH, t_mem=10.0)
    return prop.propagate(lower_ground_state(), 2.0)[1]


def _tcl_slip_coordinates():
    # the slip above as the sweep steps it, in real Hermitian coordinates
    spec = SystemSpec(e_man=2.0, delta=-0.5, omega_rabi=0.5, gamma_rad=0.5)
    prop = TclPropagator(spec, BATH, t_mem=10.0)
    return propagate(prop.matrix_generator, lower_ground_state(), 2.0, prop.dt)[1]


def _planted_ties():
    # random Hermitian trajectories whose later states have state 0's lowest
    # eigenvalue plus an offset, with random eigenvectors and upper eigenvalues
    rng = np.random.default_rng(18)
    trajectories = []
    for offset in (0.0, 1e-16, -1e-16, 1e-13, -1e-13, 1e-11, -1e-11):
        m = rng.normal(size=(40, 3, 3)) + 1j * rng.normal(size=(40, 3, 3))
        states = 0.5 * (m + m.conj().swapaxes(-1, -2))
        w, v = np.linalg.eigh(states)
        w[1:] += w[0, 0] + offset - w[1:, :1]
        states[1:] = (v[1:] * w[1:, None, :]) @ v[1:].conj().swapaxes(-1, -2)
        trajectories.append(states)
    return np.stack(trajectories)


def _with_nan():
    states = _fig3a_chunk()[:3].copy()
    states[1, 200, 1, 2] = np.nan
    return states


def _with_nan_imaginary_diagonal():
    # eigvalsh reads only the real part of the diagonal
    states = _fig3a_chunk()[:3].copy()
    states[1, 200, 0, 0] = complex(states[1, 200, 0, 0].real, np.nan)
    return states


def _non_hermitian():
    # the Sylvester check reads the hermitized entries from the raw states
    rng = np.random.default_rng(20)
    return rng.normal(size=(4, 60, 3, 3)) + 1j * rng.normal(size=(4, 60, 3, 3))


def _every_state_minimum(rho):
    h = 0.5 * (rho + np.conj(np.swapaxes(rho, -1, -2)))
    return np.linalg.eigvalsh(h)[..., 0].min(axis=-1)


def _outcome(f, rho):
    try:
        return np.asarray(f(rho)).tobytes()
    except np.linalg.LinAlgError as exc:
        return repr(exc)


@pytest.mark.parametrize("trajectories", [
    _fig3a_chunk, _tcl_slip, _planted_ties, _with_nan, _with_nan_imaginary_diagonal,
    lambda: _fig3a_chunk()[..., :1, :, :], lambda: _fig3a_chunk()[..., :2, :, :],
    lambda: _planted_ties()[:, :2], lambda: _planted_ties()[3],
    lambda: _planted_ties() * 2.0**-1000, lambda: _planted_ties() * 2.0**1000, _non_hermitian],
    ids=["fig3a_chunk", "tcl_slip", "planted_ties", "nan_state", "nan_imaginary_diagonal",
         "length_1", "length_2", "planted_length_2", "one_trajectory", "planted_tiny",
         "planted_huge", "non_hermitian"])
def test_min_eigenvalue_equals_every_state_eigvalsh(trajectories):
    # the Sylvester shortcut must not change a single bit of the minimum
    rho = trajectories()
    assert _outcome(min_eigenvalue, rho) == _outcome(_every_state_minimum, rho)


@pytest.mark.parametrize("coordinates", [
    lambda: _fig3a_chunk(real=True), _tcl_slip_coordinates, lambda: to_real(_planted_ties())],
    ids=["fig3a_chunk", "tcl_slip", "planted_ties"])
def test_min_eigenvalue_of_coordinates_equals_mapped_states(coordinates):
    # the real kernel reads coordinates directly; the 3x3 states they map
    # to, reduced to their hermitized coordinates, give the same bits, and
    # so does eigvalsh of every state
    coords = coordinates()
    assert coords.dtype == float and coords.shape[-1] == 9
    states = from_real(coords)
    assert (_outcome(min_eigenvalue, coords) == _outcome(min_eigenvalue, states)
            == _outcome(_every_state_minimum, states))


def test_min_eigenvalue_solves_few_fig3a_states(monkeypatch):
    # the shortcut is exercised: most states are shown not to hold the minimum
    states = _fig3a_chunk()
    eigvalsh, solved = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda h: solved.append(np.size(h) // 9) or eigvalsh(h))
    min_eigenvalue(states)
    assert sum(solved) < 0.1 * states.size // 9
    assert min_eigenvalue(_tcl_slip()) < 0.0


_STACK = SystemSpec(e_man=2.0, delta=np.array([-0.5, 0.0, 0.7, 0.3]),
                    omega_rabi=np.array([0.5, 1.0, 0.2, 0.0]), gamma_rad=0.5)


def _scaled_stack():
    # points whose dt L 1-norms at dt 0.5 lie below and above theta_13, so
    # that they take different numbers of squarings
    gen = total_liouvillian("bloch_redfield", _STACK, BATH)
    scale = np.array([1.0, 40.0, 0.3, 400.0])[:, None, None]
    return Liouvillian(matrix=scale * gen.matrix)


def test_stacked_expm_evolve_counting_fd_equal_one_point_calls():
    dt, rho0 = 0.5, lower_ground_state()
    a = dt * _scaled_stack().matrix
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    squarings = np.ceil(np.log2(np.fmax(norms, _THETA13) / _THETA13))
    assert squarings.min() == 0 and len(set(squarings)) == 3
    stacked = _expm(a)
    for k in range(len(a)):
        assert stacked[k].tobytes() == _expm(a[k]).tobytes()
    gen = _scaled_stack()
    square = Liouvillian(matrix=gen.matrix.reshape(2, 2, 9, 9))
    times, states = evolve(square, rho0, 5.0, dt)
    assert states.shape == (2, 2, 11, 3, 3)
    for k, point in enumerate(states.reshape(4, 11, 3, 3)):
        one = evolve(Liouvillian(matrix=gen.matrix[k]), rho0, 5.0, dt)[1]
        assert point.tobytes() == one.tobytes()
    for scheme in ("forward", "central"):
        record = mean_heat_fd("bloch_redfield", _STACK, BATH, 5.0, dt, 0.05, scheme)
        assert record.current.shape == (4,)
        for k in range(len(a)):
            spec = replace(_STACK, delta=_STACK.delta[k], omega_rabi=_STACK.omega_rabi[k])
            one = mean_heat_fd("bloch_redfield", spec, BATH, 5.0, dt, 0.05, scheme)
            assert isinstance(one.current, float) and one.time == record.time == 5.0
            for field in ("mean_heat", "current", "fd_imag"):
                stacked_value, value = getattr(record, field)[k], getattr(one, field)
                assert stacked_value.tobytes() == np.float64(value).tobytes()


def _expm_powers(a, powers):
    """exp(a) raised to each of powers by numpy's matrix_power, stacked on axis -3.

    The oracle of evolve's doubling and mean_heat_fd's binary powers.  The
    exponential is _expm's, which test_pade_exponential_matches_scipy holds
    to scipy's within 1e-14: over 60 steps the two exponentials' own
    rounding (3e-15 and 5e-15 from a 40-digit one at 400 times the
    generator) grows past the 1e-13 these checks hold.
    """
    step = _expm(a)
    return np.stack([np.linalg.matrix_power(step, k) for k in powers], axis=-3)


@pytest.mark.parametrize("method", ["bloch_redfield", "secular", "phenomenological"])
def test_real_evolve_matches_complex_evolve(method):
    # a real generator is evolved in real Hermitian coordinates and its
    # states come back as such; a complex one is mapped to them on entry
    # and its states back to 3x3 on exit, bitwise the real call's.  They
    # are the powers of exp(dt L) applied to rho0 to rounding, and every
    # point of a stack whose exponentials take different numbers of
    # squarings is its own call
    dt, rho0 = 0.5, lower_ground_state()
    gen = total_liouvillian(method, _STACK, BATH)
    scaled = np.array([1.0, 40.0, 0.3, 400.0])[:, None, None] * gen.matrix
    for matrix in (gen.matrix, scaled):
        real = Liouvillian(matrix=to_real(matrix))
        times, coords = evolve(real, rho0, 30.0, dt)
        assert coords.dtype == float and coords.shape == (4, len(times), 9)
        states = evolve(Liouvillian(matrix=matrix), rho0, 30.0, dt)[1]
        assert np.array_equal(states, from_real(coords))
        ref = unvectorize(_expm_powers(dt * matrix, range(len(times))) @ vectorize(rho0))
        assert np.abs(states - ref).max() <= 1e-13
        for k in range(4):
            one = evolve(Liouvillian(matrix=real.matrix[k]), rho0, 30.0, dt)[1]
            assert coords[k].tobytes() == one.tobytes()


_WIDE = SystemSpec(e_man=2.0, delta=np.array([-0.5, 0.0, 6.0, 40.0]),
                   omega_rabi=np.array([0.5, 1.0, 0.2, 0.5]), gamma_rad=0.5)


def _fd_from_powers(method, spec, t_end, dt, u_step, scheme):
    """mean_heat_fd's (mean_heat, current, fd_imag) from the powers of exp(dt L_u)."""
    gen = total_liouvillian(method, spec, BATH, u=u_step if scheme == "forward" else 0.5 * u_step)
    steps = int(round(t_end / dt))
    states = unvectorize(_expm_powers(dt * gen.matrix, [steps - 1, steps])
                         @ vectorize(lower_ground_state()))
    chi = np.trace(states, axis1=-2, axis2=-1)
    heat = -1j * (chi - (1.0 if scheme == "forward" else chi.conj())) / u_step
    return heat[..., 1].real, ((heat[..., 1] - heat[..., 0]) / dt).real, heat[..., 1].imag


@pytest.mark.parametrize("scheme", ["forward", "central"])
@pytest.mark.parametrize("spec,t_end,dt", [
    (_STACK, 0.05, 0.05), (_STACK, 3.25, 0.05), (_WIDE, 18.0, 1.0)],
    ids=["two_states", "power_of_two", "mixed_squarings"])
def test_mean_heat_fd_matches_evolve_quotient(spec, t_end, dt, scheme):
    # mean_heat_fd computes only the last two states, by binary squarings of
    # exp(dt L_u): 2 grid times, 2 + 64, and 2 + 17 on a stack whose
    # exponentials take 0, 1 and 3 squarings.  The quotient from the
    # powers of exp(dt L_u) agrees to rounding, and each point is its own
    # call
    record = mean_heat_fd("bloch_redfield", spec, BATH, t_end, dt, 0.05, scheme)
    assert record.time == pytest.approx(t_end)
    for value, expected in zip((record.mean_heat, record.current, record.fd_imag),
                               _fd_from_powers("bloch_redfield", spec, t_end, dt, 0.05, scheme)):
        assert value.shape == (4,)
        assert np.abs(value - expected).max() <= 1e-13 * max(1.0, np.abs(expected).max())
    for k in range(4):
        point = replace(spec, delta=spec.delta[k], omega_rabi=spec.omega_rabi[k])
        one = mean_heat_fd("bloch_redfield", point, BATH, t_end, dt, 0.05, scheme)
        for field in ("mean_heat", "current", "fd_imag"):
            assert getattr(record, field)[k].tobytes() == np.float64(getattr(one, field)).tobytes()


@pytest.mark.parametrize("method", ["bloch_redfield", "secular", "phenomenological"])
@pytest.mark.parametrize("scheme", ["forward", "central"])
def test_overflowing_characteristic_function_fails_by_name(method, scheme):
    # at alpha 1e300 exp(t L_u) overflows (secular, phenomenological) or
    # underflows to zero (bloch_redfield, which read mean_heat 0 and
    # fd_imag 1 / u_step): chi is not usable, which is named without a
    # warning, and the u = 0 trajectory fails its drift check, from a
    # complex matrix or a real one
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=0.5, gamma_rad=0.5)
    bath = replace(BATH, alpha=1e300)
    gen = total_liouvillian(method, spec, bath)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PropagationError, match=r"chi\(u, t\) = .* is not finite and nonzero"):
            mean_heat_fd(method, spec, bath, 1.0, 0.05, 0.05, scheme)
        for checked in (gen, Liouvillian(matrix=to_real(gen.matrix))):
            with pytest.raises(PropagationError, match="trace drifted"):
                evolve(checked, lower_ground_state(), 1.0, 0.05)


@pytest.mark.parametrize("rates", [(0.0, 0.01, 0.1), (0.0, 0.0, 0.1)])
def test_stacked_evolve_names_first_trace_losing_point(rates):
    # every point is checked, and the first one that loses the trace gives
    # the message its own call gives
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)
    good = total_liouvillian("bloch_redfield", spec, BATH).matrix
    stack = Liouvillian(matrix=np.stack([good - rate * np.eye(9) for rate in rates]))
    first = next(k for k, rate in enumerate(rates) if rate)
    with pytest.raises(PropagationError) as one:
        evolve(Liouvillian(matrix=stack.matrix[first]), lower_ground_state(), 1.0, 0.05)
    with pytest.raises(PropagationError) as stacked:
        evolve(stack, lower_ground_state(), 1.0, 0.05)
    assert "trace drifted" in str(one.value)
    assert str(stacked.value) == str(one.value)


def _held(matrix):
    # a stack of constant generators, as generator_at of propagate
    return lambda t: Liouvillian(matrix=np.broadcast_to(
        matrix[:, None], matrix.shape[:1] + np.shape(t) + matrix.shape[1:]))


def test_stacked_propagate_equals_one_point_calls():
    # propagate steps every point of a stack at once; each point is bitwise
    # its own call, and one unstable point fails the stack's gain check
    gen = total_liouvillian("bloch_redfield", _STACK, BATH)
    times, states = propagate(_held(gen.matrix), lower_ground_state(), 3.0, 0.05)
    assert states.shape == (4, len(times), 3, 3)
    for k in range(4):
        one = Liouvillian(matrix=gen.matrix[k])
        assert states[k].tobytes() == propagate(lambda t: one, lower_ground_state(),
                                                3.0, 0.05)[1].tobytes()
    unstable = gen.matrix * np.array([1.0, 1.0, 1000.0, 1.0])[:, None, None]
    with pytest.raises(PropagationError, match="RK4 gain .* reduce dt"):
        propagate(_held(unstable), lower_ground_state(), 3.0, 0.05)


def test_stacked_real_propagate_equals_one_point_calls():
    # real states of a TCL stack (matrix_generator) are bitwise those of
    # each point's own propagator, and come back as real Hermitian
    # coordinates, whose 3x3 states equal the complex generator's to rounding
    dt, t_end = 0.05, 15.0
    stack = TclPropagator(_STACK, BATH, t_mem=10.0, dt=dt)
    times, states = propagate(stack.matrix_generator, lower_ground_state(), t_end, dt)
    assert states.shape == (4, len(times), 9) and states.dtype == float
    mapped = from_real(states)
    assert (mapped == mapped.conj().swapaxes(-1, -2)).all()
    for k in range(4):
        spec = replace(_STACK, delta=_STACK.delta[k], omega_rabi=_STACK.omega_rabi[k])
        one = TclPropagator(spec, BATH, t_mem=10.0, dt=dt)
        assert states[k].tobytes() == propagate(one.matrix_generator, lower_ground_state(),
                                                t_end, dt)[1].tobytes()
    ref = propagate(stack.generator, lower_ground_state(), t_end, dt)[1]
    assert np.abs(mapped - ref).max() <= 1e-13


@pytest.mark.parametrize("u", [0.0, 0.1])
def test_evolve_rejects_infinite_generator(u):
    # an inf entry made _expm warn (invalid value in multiply), an error
    # here.  It is named before the generator's annotation is read and
    # before a complex matrix is mapped to real coordinates, where it
    # would turn into NaNs and a NaN drift
    spec = SystemSpec(e_man=2.0, delta=np.array([0.0, 0.5]), omega_rabi=1.0, gamma_rad=0.5)
    gen = total_liouvillian("bloch_redfield", spec, BATH)
    for matrix in (gen.matrix.copy(), to_real(gen.matrix)):
        matrix[1, 4, 0] = np.inf
        for broken in (Liouvillian(matrix=matrix, u=u), Liouvillian(matrix=matrix[1], u=u)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(PropagationError, match="non-finite generator"):
                    evolve(broken, lower_ground_state(), 1.0, 0.05)
