import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coolspec.bath import BathSpec, rate_a, rate_table, shift_b
from coolspec.dynamics import heat_current_trace, propagate
from coolspec.generators import (
    FROM_REAL,
    TO_REAL,
    redfield,
    static_part,
    total_liouvillian,
    unvectorize,
    vectorize,
)
from coolspec.system import SystemSpec, build_hamiltonian, lower_ground_state
from coolspec.tcl import TclPropagator, correlation_grid

from conftest import kron_commutator, kron_lindblad

BATH = BathSpec(alpha=0.01, omega_c=1.0, temperature=3.0)
SPEC = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)


def test_memory_config_validation():
    with pytest.raises(ValueError):
        TclPropagator(SPEC, BATH, t_mem=0.0)
    with pytest.raises(ValueError):
        TclPropagator(SPEC, BATH, dt=-0.1)


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
    t_mem = 30.0
    prop = TclPropagator(SPEC, BATH, t_mem=t_mem, dt=0.02)
    gam = prop.coefficients(t_mem)
    # the truncated tail of C leaves an O(1e-5) residue at t_mem=30; on
    # coupled pairs the limit is rate_table's Gamma, in the same convention
    markov = rate_table(prop.eig, BATH)
    coupled = prop.eig.elements.T != 0
    assert_allclose(gam.real[coupled], markov.real[coupled], atol=1e-5)
    assert_allclose(gam.imag[coupled], markov.imag[coupled], atol=2e-5)
    # rate_table leaves uncoupled pairs at zero; their coefficients still
    # saturate to the scalar rate and shift
    nu = prop.eig.nu.T[~coupled]
    assert_allclose(gam.real[~coupled], rate_a(nu, BATH), atol=1e-5)
    assert_allclose(-gam.imag[~coupled], shift_b(nu, BATH), atol=2e-5)
    # frozen past the memory horizon
    assert np.array_equal(prop.coefficients(t_mem + 5.0), gam)
    # and zero at the start
    assert np.abs(prop.coefficients(0.0)).max() == 0.0


@pytest.mark.parametrize("dt", [0.02, 0.05])
def test_coefficients_broadcast_over_times(dt):
    # one clipped interpolation serves a single time and a whole grid: the
    # start (and before it), between nodes, on a node, t_mem and past it
    t_mem = 10.0
    prop = TclPropagator(SPEC, BATH, t_mem=t_mem, dt=dt)
    step = prop.taus[1]
    times = np.array([-1.0, 0.0, 7.5 * step, 7 * step, t_mem, 2.0 * t_mem])
    stacked = prop.coefficients(times)
    assert stacked.shape == (len(times), 3, 3)
    single = np.stack([prop.coefficients(t) for t in times])
    assert stacked.tobytes() == single.tobytes()


@pytest.mark.parametrize("dt", [0.02, 0.05])
def test_generator_broadcasts_over_times(dt):
    # one matmul gives the generators and heat kernels of a whole time
    # array; they match the stacked single-time calls to rounding
    t_mem = 10.0
    prop = TclPropagator(SPEC, BATH, t_mem=t_mem, dt=dt)
    step = prop.taus[1]
    times = np.array([-1.0, 0.0, 7.5 * step, 7 * step, t_mem, 2.0 * t_mem])
    stacked = prop.generator(times)
    assert stacked.matrix.shape == stacked.heat_kernel.shape == (len(times), 9, 9)
    single = [prop.generator(t) for t in times]
    assert_allclose(stacked.matrix, np.stack([g.matrix for g in single]), rtol=0, atol=1e-15)
    assert_allclose(stacked.heat_kernel, np.stack([g.heat_kernel for g in single]),
                    rtol=0, atol=1e-15)


@pytest.mark.parametrize("stacked", [False, True], ids=["one_point", "stack"])
def test_matrix_generator_equals_generator_matrix(stacked):
    # propagate reads only the matrix half of the response, in real
    # Hermitian coordinates: at RK4 node times, between tau rows and past
    # t_mem, for one time and for arrays, it is real and maps back to
    # generator(t).matrix to rounding
    delta, omega = ((np.array([-0.5, 0.0, 0.7]), np.array([0.5, 1.0, 0.2])) if stacked
                    else (0.0, 1.0))
    dt, t_mem = 0.05, 10.0
    prop = TclPropagator(SystemSpec(e_man=2.0, delta=delta, omega_rabi=omega, gamma_rad=0.5),
                         BATH, t_mem=t_mem, dt=dt)
    step = prop.taus[1]
    grid = np.arange(129) * dt
    nodes = np.concatenate([grid, grid[:-1] + 0.5 * dt])
    times = np.array([0.0, 0.5 * dt, dt, 7.5 * step, 7.3 * step, t_mem, 12.0])
    for t in (*times, times, nodes, nodes + 200 * dt):
        callback = prop.matrix_generator(t)
        assert callback.u == 0.0 and callback.heat_kernel is None
        assert callback.matrix.dtype == float
        assert callback.matrix.shape == np.shape(delta) + np.shape(t) + (9, 9)
        matrix = prop.generator(t).matrix
        back = FROM_REAL @ callback.matrix @ TO_REAL
        assert np.abs(back - matrix).max() <= 1e-15 * np.abs(matrix).max()


def test_tau_grid_follows_dt():
    # the spacing is dt/2 split into the fewest parts no wider than
    # 0.01 min(1, 1/omega_c): the default dt and bath keep the plain 0.01
    # grid, a coarser step or a faster bath is refined
    default = TclPropagator(SPEC, BATH, t_mem=30.0, dt=0.02)
    assert default.taus.tobytes() == (np.arange(3001) * 0.01).tobytes()
    assert TclPropagator(SPEC, BATH, dt=0.05).taus[1] == 0.05 / 6
    fast = BathSpec(alpha=0.01, omega_c=5.0, temperature=3.0)
    for (bath, widest), dt in itertools.product([(BATH, 0.01), (fast, 0.002)],
                                                (0.01, 0.02, 0.05, 0.07, 0.3, 1.0)):
        prop = TclPropagator(SPEC, bath, t_mem=30.0, dt=dt)
        assert prop.taus[1] <= widest
        # every RK4 node of a chunk (grid times and midpoints) is a table row
        grid = np.arange(int(round(60.0 / dt)) + 1) * dt
        pos = np.concatenate([grid, grid[:-1] + 0.5 * dt]) / prop.taus[1]
        assert np.abs(pos - np.round(pos)).max() < 1e-9


def _plateau(bath, dt):
    spec = SystemSpec(e_man=2.0, delta=-0.5, omega_rabi=0.5, gamma_rad=0.5)
    prop = TclPropagator(spec, bath, t_mem=30.0, dt=dt)
    _, _, record = prop.propagate(lower_ground_state(), 60.0)
    return record.current


@pytest.mark.parametrize("dt", [0.1, 0.5, 1.0])
def test_coarse_step_keeps_plateau_current(dt):
    # the coefficient grid does not coarsen with the RK4 step, so a coarse
    # step reproduces the fine-step plateau current
    fine = _plateau(BATH, 0.02)
    assert abs(_plateau(BATH, dt) - fine) < 1e-5 * abs(fine)


def test_coarse_step_keeps_sign_of_cold_bath_current():
    # at temperature 0.3 the plateau current is small: a coefficient grid
    # of spacing dt/2 flips its sign at dt 1.0
    cold = BathSpec(alpha=0.01, omega_c=1.0, temperature=0.3)
    fine, coarse = _plateau(cold, 0.02), _plateau(cold, 1.0)
    assert np.sign(coarse) == np.sign(fine)
    assert abs(coarse - fine) < 1e-4 * abs(fine)


def test_generator_converges_to_bloch_redfield():
    late = TclPropagator(SPEC, BATH, t_mem=30.0, dt=0.02).generator(60.0)
    markov = total_liouvillian("bloch_redfield", SPEC, BATH, include_shifts=True)
    assert np.abs(late.matrix - markov.matrix).max() < 1e-4
    assert np.abs(late.heat_kernel - markov.heat_kernel).max() < 1e-4


def test_generator_matches_matrix_form_inside_memory_window(redfield_oracle):
    # mid-memory the running coefficients are far from their Markovian
    # limits; the generator must still be the Redfield form with Gamma(t)
    prop = TclPropagator(SPEC, BATH, t_mem=10.0, dt=0.02)
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


def test_generator_is_bloch_redfield_of_running_coefficients():
    # generator(t) is the Bloch-Redfield generator with Gamma(t) for
    # rate_table's Gamma: bitwise static_part plus the Redfield dissipator,
    # and total_liouvillian given them as its shared spectrum, inside the
    # memory window and past it
    spec = SystemSpec(e_man=2.0, delta=np.array([-0.5, 0.0, 0.7]),
                      omega_rabi=np.array([0.5, 1.0, 0.2]), gamma_rad=0.5)
    prop = TclPropagator(spec, BATH, t_mem=10.0, dt=0.05)
    for t in (1.37, 10.0, 12.0):
        gen = prop.generator(t)
        gamma = prop.coefficients(t)
        matrix, kernel = redfield(prop.eig, prop.eig.basis, gamma)
        bloch = total_liouvillian("bloch_redfield", spec, BATH, shared=(prop.eig, gamma))
        for got, expected in ((gen.matrix, static_part(spec) + matrix),
                              (gen.heat_kernel, kernel), (gen.matrix, bloch.matrix),
                              (gen.heat_kernel, bloch.heat_kernel)):
            assert got.shape == expected.shape == (3, 9, 9)
            assert got.tobytes() == expected.tobytes()


def test_early_generator_has_no_dissipation():
    prop = TclPropagator(SPEC, BATH, t_mem=10.0, dt=0.02)
    decay = np.zeros((3, 3))
    decay[2, 0] = 1.0
    static = kron_commutator(build_hamiltonian(SPEC)) + SPEC.gamma_rad * kron_lindblad(decay)
    assert_allclose(prop.generator(0.0).matrix, static, atol=1e-14)
    assert np.abs(prop.generator(0.0).heat_kernel).max() == 0.0


def test_trajectory_slips_then_tracks_markovian_observables():
    prop = TclPropagator(SPEC, BATH, t_mem=20.0, dt=0.05)
    times, states, record = prop.propagate(lower_ground_state(), 30.0)
    markov = total_liouvillian("bloch_redfield", SPEC, BATH)
    _, markov_states = propagate(lambda t: markov, lower_ground_state(), 30.0, 0.05)
    currents = np.array([heat_current_trace(markov, s) for s in markov_states])
    tcl_currents = np.array([
        heat_current_trace(prop.generator(t), s) for t, s in zip(times, states)
    ])
    late = times >= 10.0
    rel = np.abs(tcl_currents[late] - currents[late]) / np.abs(currents[late])
    assert rel.max() < 0.05
    # trace preserved along the way
    assert np.abs(np.trace(states, axis1=1, axis2=2) - 1.0).max() < 1e-8
    assert record.time == pytest.approx(30.0)
    assert record.current == pytest.approx(tcl_currents[-1], rel=1e-13)
    # transferred heat is the time integral of the current
    assert record.mean_heat == pytest.approx(np.trapezoid(tcl_currents, times), rel=1e-12)


def test_memory_horizon_insensitive():
    # doubling t_mem changes the plateau current by well under half a percent
    currents = []
    for t_mem in (20.0, 40.0):
        prop = TclPropagator(SPEC, BATH, t_mem=t_mem, dt=0.05)
        _, _, record = prop.propagate(lower_ground_state(), 60.0)
        currents.append(record.current)
    assert abs(currents[1] - currents[0]) / abs(currents[1]) < 0.005


def test_zero_coupling_reduces_to_coherent_evolution():
    dead_bath = BathSpec(alpha=0.0, omega_c=1.0, temperature=3.0)
    prop = TclPropagator(SPEC, dead_bath, t_mem=5.0, dt=0.05)
    times, states, record = prop.propagate(lower_ground_state(), 10.0)
    reference = total_liouvillian("bloch_redfield", SPEC, dead_bath)
    _, ref_states = propagate(lambda t: reference, lower_ground_state(), 10.0, 0.05)
    assert_allclose(states, ref_states, atol=1e-12)
    assert record.mean_heat == 0.0
    assert record.current == 0.0


@pytest.mark.parametrize("dt", [0.02, 1e-300])
def test_memory_window_beyond_any_array_is_named(dt):
    # t_mem / step reaches 1e302 rows, or overflows to infinity at a tiny
    # dt; either is a ValueError naming both settings, not numpy's message
    with pytest.raises(ValueError, match=r"^t_mem = 1e\+300 spans .* rows at dt = "):
        TclPropagator(SPEC, BATH, t_mem=1e300, dt=dt)


def test_stacked_points_equal_their_one_point_calls():
    # a stacked spec puts its points before every time axis; each point of
    # the tables, generators, trajectory and record is bitwise its own call
    deltas, omegas = np.array([-0.5, 0.0, 0.7]), np.array([0.5, 1.0, 0.2])
    stacked = TclPropagator(SystemSpec(e_man=2.0, delta=deltas, omega_rabi=omegas,
                                       gamma_rad=0.5), BATH, t_mem=10.0, dt=0.05)
    times = np.array([-1.0, 0.0, 1.37, 10.0, 12.0])
    _, states, record = stacked.propagate(lower_ground_state(), 3.0)
    assert states.shape == (3, 61, 3, 3)
    assert record.mean_heat.shape == record.current.shape == (3,)
    for k, (delta, omega) in enumerate(zip(deltas, omegas)):
        single = TclPropagator(SystemSpec(e_man=2.0, delta=delta, omega_rabi=omega,
                                          gamma_rad=0.5), BATH, t_mem=10.0, dt=0.05)
        assert stacked.coefficients(times)[k].tobytes() == single.coefficients(times).tobytes()
        for t in (1.37, times):
            many, one = stacked.generator(t), single.generator(t)
            assert many.matrix[k].tobytes() == one.matrix.tobytes()
            assert many.heat_kernel[k].tobytes() == one.heat_kernel.tobytes()
        _, one_states, one_record = single.propagate(lower_ground_state(), 3.0)
        assert states[k].tobytes() == one_states.tobytes()
        assert record.mean_heat[k].tobytes() == np.float64(one_record.mean_heat).tobytes()
        assert record.current[k].tobytes() == np.float64(one_record.current).tobytes()
