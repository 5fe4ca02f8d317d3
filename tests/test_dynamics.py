import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from coolspec.bath import BathSpec
from coolspec.dynamics import (
    _THETA13,
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
from coolspec.generators import Liouvillian, total_liouvillian, vectorize
from coolspec.system import (
    IDX_E,
    IDX_GL,
    IDX_GU,
    SystemSpec,
    lower_ground_state,
)

BATH = BathSpec(alpha=0.01, omega_c=1.0, temperature=3.0)


def test_propagate_validates_steps():
    spec = SystemSpec(e_man=2.0, omega_rabi=1.0, gamma_rad=0.5)
    gen = total_liouvillian("phenomenological", spec, BATH)
    with pytest.raises(ValueError):
        propagate(gen, lower_ground_state(), 1.0, 0.0)
    with pytest.raises(ValueError):
        propagate(gen, lower_ground_state(), -1.0, 0.1)


def test_radiative_decay_exponential():
    # pure |e> decay: phonon terms cannot touch an undriven excited state
    spec = SystemSpec(e_man=2.0, delta=0.5, omega_rabi=0.0, gamma_rad=0.5)
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[IDX_E, IDX_E] = 1.0
    for method in ("bloch_redfield", "secular", "phenomenological"):
        gen = total_liouvillian(method, spec, BATH)
        times, states = propagate(gen, rho0, 5.0, 0.01)
        populations = states[:, IDX_E, IDX_E].real
        assert_allclose(populations, np.exp(-0.5 * times), atol=1e-8)


def test_rk4_fourth_order_convergence():
    spec = SystemSpec(e_man=2.0, delta=0.3, omega_rabi=1.0, gamma_rad=0.5)
    gen = total_liouvillian("bloch_redfield", spec, BATH)
    rho0 = lower_ground_state()
    exact = expm(gen.matrix * 2.0) @ vectorize(rho0)

    def error(dt):
        _, states = propagate(gen, rho0, 2.0, dt)
        return np.linalg.norm(vectorize(states[-1]) - exact)

    ratio = error(0.1) / error(0.05)
    assert 12.0 < ratio < 20.0


@pytest.mark.parametrize("t_end,dt", [(400.0, 5.0), (30.0, 7.0)])
def test_propagation_detects_unstable_step(t_end, dt):
    # a step size beyond the stability region must be refused, for a
    # constant generator and a time-dependent one alike; over only four
    # steps (30, 7) the blowup is too short to show in the trace
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)
    gen = total_liouvillian("bloch_redfield", spec, BATH)
    for liouvillian in (gen, lambda t: gen.matrix):
        with pytest.raises(PropagationError, match="reduce dt"):
            propagate(liouvillian, lower_ground_state(), t_end, dt)


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
@pytest.mark.parametrize("u", [0.0, 0.05])
def test_evolve_matches_fine_rk4(method, u):
    # RK4 at dt/16 is converged to ~1e-13; evolve must agree on every grid state
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=0.5, gamma_rad=0.5)
    gen = total_liouvillian(method, spec, BATH, u=u)
    times, states = evolve(gen, lower_ground_state(), 10.0, 0.05)
    fine_times, fine = propagate(gen, lower_ground_state(), 10.0, 0.05 / 16)
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


def test_evolve_detects_trace_loss():
    # uniform decay loses the trace; an unannotated generator must keep it
    leaky = Liouvillian(matrix=-0.01 * np.eye(9, dtype=complex))
    with pytest.raises(PropagationError, match="trace drifted"):
        evolve(leaky, lower_ground_state(), 1.0, 0.05)
    broken = Liouvillian(matrix=np.full((9, 9), np.nan, dtype=complex))
    with pytest.raises(PropagationError, match="trace drifted by nan"):
        evolve(broken, lower_ground_state(), 1.0, 0.05)
    annotated = Liouvillian(matrix=leaky.matrix, u=0.1)
    _, states = evolve(annotated, lower_ground_state(), 1.0, 0.05)
    assert_allclose(np.trace(states[-1]), np.exp(-0.01), rtol=1e-14)


def test_steady_state_unique_and_stationary():
    spec = SystemSpec(e_man=2.0, delta=0.2, omega_rabi=1.0, gamma_rad=0.5)
    for method in ("bloch_redfield", "secular", "phenomenological"):
        gen = total_liouvillian(method, spec, BATH)
        rho = steady_state(gen)
        assert_allclose(np.trace(rho).real, 1.0, atol=1e-12)
        assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert steady_residual(gen, rho) < 1e-10
        assert min_eigenvalue(rho) > -1e-10


def test_steady_state_matches_long_time_propagation():
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)
    gen = total_liouvillian("bloch_redfield", spec, BATH)
    rho_ss = steady_state(gen)
    _, states = propagate(gen, lower_ground_state(), 200.0, 0.01)
    assert np.abs(states[-1] - rho_ss).max() < 1e-6


def test_steady_state_requires_unique_null_space():
    # undriven and undamped, |e><e| is a second stationary state
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=0.0, gamma_rad=0.0)
    gen = total_liouvillian("bloch_redfield", spec, BATH)
    with pytest.raises(SteadyStateError, match="not unique"):
        steady_state(gen)


def test_steady_state_rejects_annotated_generator():
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)
    gen = total_liouvillian("bloch_redfield", spec, BATH, u=0.1)
    with pytest.raises(ValueError, match="u = 0"):
        steady_state(gen)


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


def test_heat_current_requires_kernel():
    from coolspec.generators import Liouvillian

    bare = Liouvillian(matrix=np.zeros((9, 9), dtype=complex))
    with pytest.raises(ValueError, match="kernel"):
        heat_current_trace(bare, lower_ground_state())


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
    with pytest.raises(ValueError, match="u_step"):
        mean_heat_fd("bloch_redfield", spec, BATH, u_step=0.0)
    with pytest.raises(ValueError, match="scheme"):
        mean_heat_fd("bloch_redfield", spec, BATH, scheme="midpoint")
    with pytest.raises(ValueError, match="no full step"):
        mean_heat_fd("bloch_redfield", spec, BATH, t_end=0.02, dt=0.05)

    gen = total_liouvillian("bloch_redfield", spec, BATH)
    _, states = propagate(gen, lower_ground_state(), 30.0, 0.05)
    reference = heat_current_trace(gen, states[-1])

    central = mean_heat_fd("bloch_redfield", spec, BATH, t_end=30.0, dt=0.05,
                           u_step=0.01, scheme="central")
    forward = mean_heat_fd("bloch_redfield", spec, BATH, t_end=30.0, dt=0.05,
                           u_step=0.01, scheme="forward")
    assert central.route == "counting_fd"
    assert central.time == pytest.approx(30.0)
    # small-step central difference reproduces the trace-route current
    assert abs(central.current - reference) / abs(reference) < 1e-3
    # the one-sided quotient carries the larger finite-step bias
    assert abs(forward.current - reference) > abs(central.current - reference)
    # its imaginary part is O(u_step), nonzero but small
    assert 0.0 < abs(forward.fd_imag) < 0.1
    assert abs(central.fd_imag) < abs(forward.fd_imag)


def test_mean_heat_fd_bias_scales_quadratically():
    # halving u_step must cut the central-difference bias about fourfold
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)
    gen = total_liouvillian("bloch_redfield", spec, BATH)
    _, states = propagate(gen, lower_ground_state(), 30.0, 0.05)
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
    rho = steady_state(total_liouvillian("bloch_redfield", spec, BATH))
    assert abs(dressed_coherence(rho)) > 1e-3


def test_min_eigenvalue_batched():
    rng = np.random.default_rng(9)
    stack = rng.normal(size=(7, 3, 3)) + 1j * rng.normal(size=(7, 3, 3))
    singles = [min_eigenvalue(m) for m in stack]
    assert min_eigenvalue(stack) == pytest.approx(min(singles), abs=1e-14)
