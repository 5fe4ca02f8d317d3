import numpy as np
import pytest
from numpy.testing import assert_allclose

from coolspec.bath import BathSpec, rate_a, shift_b
from coolspec.dynamics import heat_current_trace, propagate
from coolspec.generators import total_liouvillian, unvectorize, vectorize
from coolspec.system import SystemSpec, build_hamiltonian, lower_ground_state
from coolspec.tcl import (
    MemoryKernelConfig,
    TclPropagator,
    correlation_grid,
)

from conftest import kron_commutator, kron_lindblad

BATH = BathSpec(alpha=0.01, omega_c=1.0, temperature=3.0)
SPEC = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)


def test_memory_config_validation():
    with pytest.raises(ValueError):
        MemoryKernelConfig(t_mem=0.0)
    with pytest.raises(ValueError):
        MemoryKernelConfig(dt=-0.1)
    with pytest.raises(ValueError):
        MemoryKernelConfig(quad_points=1)


def test_correlation_symmetry_and_decay(bath_correlation):
    c0 = bath_correlation(0.0, BATH)
    assert c0.imag == pytest.approx(0.0, abs=1e-12)
    assert c0.real > 0.0
    for tau in (0.4, 1.7, 6.3):
        assert_allclose(bath_correlation(-tau, BATH),
                        np.conj(bath_correlation(tau, BATH)), atol=1e-12)
    # the correlation function is dead after a few tens of inverse cutoffs
    assert abs(bath_correlation(15.0, BATH)) < 1e-3 * abs(c0)
    assert abs(bath_correlation(30.0, BATH)) < 1e-5 * abs(c0)


@pytest.mark.parametrize("omega_c", [0.2, 1.0, 5.0])
@pytest.mark.parametrize("temperature", [0.01, 0.3, 3.0, 30.0])
def test_correlation_grid_matches_adaptive_quadrature(temperature, omega_c, bath_correlation):
    # the closed form has no frequency window, so it must hold from the
    # coldest to the hottest bath and at memory times far past the decay
    bath = BathSpec(alpha=0.01, omega_c=omega_c, temperature=temperature)
    taus = np.array([0.0, 0.3, 2.7, 9.1, 14.0, 600.0, 1000.0])
    grid = correlation_grid(taus, bath)
    for k, tau in enumerate(taus):
        assert_allclose(grid[k], bath_correlation(tau, bath), atol=1e-9)


def test_running_coefficients_saturate_to_markovian_rates():
    # the saturated half-Fourier transform of C must reproduce the
    # golden-rule rate (real part) and the principal-value shift (minus
    # the imaginary part); the coefficient stored at block (i, j) belongs
    # to the reversed transition frequency nu[j, i]
    cfg = MemoryKernelConfig(t_mem=30.0, dt=0.02, quad_points=2)
    prop = TclPropagator(SPEC, BATH, cfg)
    gam = prop.coefficients(cfg.t_mem)
    for i in range(3):
        for j in range(3):
            # the truncated tail of C leaves an O(1e-5) residue at t_mem=30
            nu = prop.eig.nu[j, i]
            assert_allclose(gam[i, j].real, rate_a(nu, BATH), atol=1e-5)
            assert_allclose(-gam[i, j].imag, shift_b(nu, BATH), atol=2e-5)
    # frozen past the memory horizon
    assert np.array_equal(prop.coefficients(cfg.t_mem + 5.0), gam)
    # and zero at the start
    assert np.abs(prop.coefficients(0.0)).max() == 0.0


def test_generator_converges_to_bloch_redfield():
    cfg = MemoryKernelConfig(t_mem=30.0, dt=0.02, quad_points=2)
    late = TclPropagator(SPEC, BATH, cfg).generator(60.0)
    markov = total_liouvillian("bloch_redfield", SPEC, BATH, include_shifts=True)
    assert np.abs(late.matrix - markov.matrix).max() < 1e-4
    assert np.abs(late.heat_kernel - markov.heat_kernel).max() < 1e-4


def test_generator_matches_matrix_form_inside_memory_window(redfield_oracle):
    # mid-memory the running coefficients are far from their Markovian
    # limits; the generator must still be the Redfield form with Gamma(t)
    cfg = MemoryKernelConfig(t_mem=10.0, dt=0.02, quad_points=2)
    prop = TclPropagator(SPEC, BATH, cfg)
    t = 1.37
    gen = prop.generator(t)
    jump = np.zeros((3, 3))
    jump[2, 0] = 1.0
    rng = np.random.default_rng(31)
    for _ in range(5):
        rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        expected, expected_kernel = redfield_oracle(
            build_hamiltonian(SPEC), prop.eig, prop.coefficients(t), 0.0, rho)
        expected += SPEC.gamma_rad * (jump @ rho @ jump.T
                                      - 0.5 * (jump.T @ jump @ rho + rho @ jump.T @ jump))
        assert_allclose(unvectorize(gen.matrix @ vectorize(rho)), expected, atol=1e-13)
        assert_allclose(unvectorize(gen.heat_kernel @ vectorize(rho)), expected_kernel,
                        atol=1e-13)


def test_early_generator_has_no_dissipation():
    cfg = MemoryKernelConfig(t_mem=10.0, dt=0.02, quad_points=2)
    prop = TclPropagator(SPEC, BATH, cfg)
    decay = np.zeros((3, 3))
    decay[2, 0] = 1.0
    static = kron_commutator(build_hamiltonian(SPEC)) + SPEC.gamma_rad * kron_lindblad(decay)
    assert_allclose(prop.generator(0.0).matrix, static, atol=1e-14)
    assert np.abs(prop.generator(0.0).heat_kernel).max() == 0.0


def test_trajectory_slips_then_tracks_markovian_observables():
    cfg = MemoryKernelConfig(t_mem=20.0, dt=0.05, quad_points=2)
    prop = TclPropagator(SPEC, BATH, cfg)
    times, states, record = prop.propagate(lower_ground_state(), 30.0)
    markov = total_liouvillian("bloch_redfield", SPEC, BATH)
    _, markov_states = propagate(markov, lower_ground_state(), 30.0, 0.05)
    currents = np.array([heat_current_trace(markov, s) for s in markov_states])
    tcl_currents = np.array([
        heat_current_trace(prop.generator(t), s) for t, s in zip(times, states)
    ])
    late = times >= 10.0
    rel = np.abs(tcl_currents[late] - currents[late]) / np.abs(currents[late])
    assert rel.max() < 0.05
    # trace preserved along the way
    assert np.abs(np.trace(states, axis1=1, axis2=2) - 1.0).max() < 1e-8
    assert record.method == "tcl_oracle"
    assert record.route == "kernel_trace"
    assert record.time == pytest.approx(30.0)
    assert record.current == pytest.approx(tcl_currents[-1])
    # transferred heat is the time integral of the current
    assert record.mean_heat == pytest.approx(np.trapezoid(tcl_currents, times), rel=1e-12)


def test_memory_horizon_insensitive():
    # doubling t_mem changes the plateau current by well under half a percent
    currents = []
    for t_mem in (20.0, 40.0):
        cfg = MemoryKernelConfig(t_mem=t_mem, dt=0.05, quad_points=2)
        _, _, record = TclPropagator(SPEC, BATH, cfg).propagate(lower_ground_state(), 60.0)
        currents.append(record.current)
    assert abs(currents[1] - currents[0]) / abs(currents[1]) < 0.005


def test_zero_coupling_reduces_to_coherent_evolution():
    dead_bath = BathSpec(alpha=0.0, omega_c=1.0, temperature=3.0)
    cfg = MemoryKernelConfig(t_mem=5.0, dt=0.05, quad_points=2)
    times, states, record = TclPropagator(SPEC, dead_bath, cfg).propagate(lower_ground_state(), 10.0)
    reference = total_liouvillian("bloch_redfield", SPEC, dead_bath)
    _, ref_states = propagate(reference, lower_ground_state(), 10.0, 0.05)
    assert_allclose(states, ref_states, atol=1e-12)
    assert record.mean_heat == 0.0
    assert record.current == 0.0
