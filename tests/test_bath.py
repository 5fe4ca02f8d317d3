import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from coolspec.bath import BathSpec, QuadratureError, rate_a, rate_table, shift_b
from coolspec.system import SystemSpec, eigensystem

from conftest import bose_occupation, spectral_density

BATH = BathSpec(alpha=0.01, omega_c=1.0, temperature=3.0)


def test_bath_spec_validation():
    with pytest.raises(ValueError):
        BathSpec(alpha=-0.01)
    with pytest.raises(ValueError):
        BathSpec(alpha=0.01, omega_c=0.0)
    with pytest.raises(ValueError):
        BathSpec(alpha=0.01, temperature=0.0)
    with pytest.raises(ValueError):
        BathSpec(alpha=0.01, temperature=-3.0)


@pytest.mark.parametrize("omega_c", [1e-300, 1e-160])
def test_bath_spec_rejects_a_subnormal_cutoff_square(omega_c):
    # alpha / omega_c**2 divided by zero at 1e-300 and gave an inf (then
    # "invalid value") at 1e-160: a square below the smallest normal double
    # is refused by name
    with pytest.raises(ValueError, match=r"^omega_c must be at least 1.49e-154, so that "
                                         r"omega_c\*\*2 is a normal double"):
        BathSpec(alpha=0.01, omega_c=omega_c)


def test_spectral_density_closed_form_values():
    # j(w) = 2 alpha w^3 / omega_c^2 exp(-w / omega_c)
    assert_allclose(spectral_density(2.0, BATH), 0.16 * math.exp(-2.0), rtol=1e-14)
    assert_allclose(spectral_density(1.0, BATH), 0.02 * math.exp(-1.0), rtol=1e-14)
    assert_allclose(spectral_density(2.0, BATH), 0.0216536453179, rtol=1e-10)


def test_spectral_density_support_and_peak():
    assert spectral_density(0.0, BATH) == 0.0
    assert spectral_density(-1.0, BATH) == 0.0
    w = np.linspace(-2.0, 20.0, 4401)
    j = spectral_density(w, BATH)
    assert np.all(j[w <= 0] == 0.0)
    assert np.all(j[w > 0] > 0.0)
    # single maximum at 3 omega_c
    assert_allclose(w[np.argmax(j)], 3.0, atol=0.01)
    scaled = spectral_density(w, BathSpec(alpha=0.03, omega_c=1.0, temperature=3.0))
    assert_allclose(scaled, 3.0 * j, rtol=1e-15)


def test_bose_occupation_value_and_domain():
    assert_allclose(bose_occupation(2.0, BATH), 1.0 / math.expm1(2.0 / 3.0), rtol=1e-14)
    assert_allclose(bose_occupation(2.0, BATH), 1.055148339810, rtol=1e-10)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            bose_occupation(bad, BATH)
    # beta*nu far past the exp overflow threshold (~709) of a cold bath:
    # the occupation decays to exp(-beta nu) and then underflows to zero
    cold = BathSpec(alpha=0.01, omega_c=1.0, temperature=0.01)
    assert_allclose(bose_occupation(0.4, cold), math.exp(-40.0), rtol=1e-14)
    assert_allclose(bose_occupation(7.0, cold), math.exp(-700.0), rtol=1e-14)
    assert 0.0 <= bose_occupation(7.2, cold) < 1e-312
    assert bose_occupation(40.0, cold) == 0.0
    assert rate_a(-40.0, cold) == 0.0
    assert_allclose(rate_a(40.0, cold), math.pi * spectral_density(40.0, cold), rtol=1e-14)


def test_bose_occupation_series_branch_continuous():
    # no series branch is needed at small beta*nu: the expm1 form keeps
    # full relative accuracy there
    for nu in (1e-10, 1e-9, 2.9e-8):
        assert_allclose(bose_occupation(nu, BATH), 1.0 / math.expm1(nu / 3.0), rtol=1e-12)


def test_rate_detailed_balance():
    rng = np.random.default_rng(23)
    for nu in rng.uniform(0.05, 6.0, size=40):
        ratio = rate_a(nu, BATH) / rate_a(-nu, BATH)
        assert_allclose(ratio, math.exp(nu / 3.0), rtol=1e-10)


def test_rate_values_and_zero_limit():
    # pi (n + 1) j on the emission side, pi n j on the absorption side
    n2 = 1.0 / math.expm1(2.0 / 3.0)
    j2 = 0.16 * math.exp(-2.0)
    assert_allclose(rate_a(2.0, BATH), math.pi * (n2 + 1.0) * j2, rtol=1e-13)
    assert_allclose(rate_a(-2.0, BATH), math.pi * n2 * j2, rtol=1e-13)
    assert rate_a(0.0, BATH) == 0.0
    # cubic density kills the rate near zero frequency
    assert abs(rate_a(1e-9, BATH)) < 1e-15
    assert abs(rate_a(-1e-9, BATH)) < 1e-15
    # the golden rule written out with the test's own formulas, on both
    # sides, for a warm and a cold bath
    nu = np.linspace(0.05, 6.0, 120)
    for bath in (BATH, BathSpec(alpha=0.01, omega_c=1.0, temperature=0.01)):
        n, j = bose_occupation(nu, bath), spectral_density(nu, bath)
        assert_allclose(rate_a(nu, bath), math.pi * (n + 1.0) * j, rtol=1e-13)
        assert_allclose(rate_a(-nu, bath), math.pi * n * j, rtol=1e-13)


def _pv_integrand(w: float, nu: float, bath: BathSpec) -> float:
    if w <= 0.0:
        return 0.0
    n = bose_occupation(w, bath)
    return spectral_density(w, bath) * (w + (2.0 * n + 1.0) * nu)


def _pv_shift_cauchy(nu: float, bath: BathSpec, epsabs: float = 1e-12) -> float:
    """Independent principal-value oracle via Cauchy-weight quadrature.

    The Cauchy weight covers shift_b's window max(40 omega_c, 2 |nu|), which
    holds the pole and the bulk of the bath.
    """
    s = abs(nu)
    f = lambda w: _pv_integrand(w, nu, bath) / (w + s)
    return quad(f, 0.0, max(40.0 * bath.omega_c, 2.0 * s), weight="cauchy", wvar=s,
                limit=400, epsabs=epsabs, epsrel=1e-12)[0]


def _pv_shift_simpson(nu: float, bath: BathSpec, omega_max: float = 40.0) -> float:
    """Independent oracle: symmetric pairing across the pole plus Simpson.

    The window (s - h, s + h) is integrated as the integral over x in (0, h)
    of f(s + x) + f(s - x), where the simple pole cancels; the remainder is
    smooth and integrated on fine composite grids.  Every node is positive
    (|nu| > h), so f is evaluated on whole node arrays.
    """
    from scipy.integrate import simpson

    s = abs(nu)
    h = 0.25

    def f(w):
        numerator = spectral_density(w, bath) * (w + (2.0 * bose_occupation(w, bath) + 1.0) * nu)
        return numerator / (w * w - s * s)

    left = np.linspace(1e-12, s - h, 60001)
    right = np.linspace(s + h, omega_max, 60001)
    x = np.linspace(1e-9, h, 60001)
    return (simpson(f(left), x=left) + simpson(f(right), x=right)
            + simpson(f(s + x) + f(s - x), x=x))


def test_shift_zero_frequency_closed_form():
    # at nu = 0 the integral reduces to int j(w)/w dw = 4 alpha omega_c
    assert_allclose(shift_b(0.0, BATH), 0.04, atol=1e-9)
    other = BathSpec(alpha=0.02, omega_c=0.7, temperature=3.0)
    assert_allclose(shift_b(0.0, other), 4.0 * 0.02 * 0.7, atol=1e-9)


def test_shift_frozen_values():
    # frozen from the two independent principal-value oracles below
    assert_allclose(shift_b(2.0, BATH), 3.386059013788e-02, atol=1e-9)
    assert_allclose(shift_b(-2.0, BATH), 4.104959759359e-02, atol=1e-9)


@pytest.mark.parametrize("nu", [2.0, -2.0, 0.37, -1.23, 3.8])
def test_shift_matches_cauchy_oracle(nu):
    assert_allclose(shift_b(nu, BATH), _pv_shift_cauchy(nu, BATH), atol=2e-9)


@pytest.mark.parametrize("nu", [2.0, -2.0, 1.1])
def test_shift_matches_symmetric_simpson_oracle(nu):
    assert_allclose(shift_b(nu, BATH), _pv_shift_simpson(nu, BATH), atol=1e-6)


@pytest.mark.parametrize("temperature", [0.01, 0.3, 3.0, 30.0])
@pytest.mark.parametrize("omega_c", [0.02, 0.2, 1.0, 5.0])
def test_shift_matches_adaptive_oracles(temperature, omega_c, quad_shift):
    # the graded Gauss-Legendre rule against two adaptive quadratures, from
    # far below every scale of the bath to windows widened past 40 omega_c
    # (2 |nu| at magnitudes 30 and 100)
    bath = BathSpec(alpha=1.0, omega_c=omega_c, temperature=temperature)
    for magnitude in (1e-7, 1e-4, 0.01, 0.3, 1.0, 2.5, 7.0, 30.0, 100.0):
        for nu in (magnitude, -magnitude):
            got = shift_b(nu, bath)
            bound = 1e-11 * max(abs(got), 4.0 * omega_c)
            assert abs(got - quad_shift(nu, bath)) < bound
            assert abs(got - _pv_shift_cauchy(nu, bath, epsabs=1e-13 * 4.0 * omega_c)) < bound


def test_shift_budget_is_relative_at_hot_baths(quad_shift):
    # the integral grows like T (1.4e6 at nu 0.5, T 1e6); an absolute budget
    # of 1e-9 failed every coupled transition there.  The rule agrees with
    # the adaptive oracle to 3e-13 relative; the bound is 1e-11
    bath = BathSpec(alpha=1.0, omega_c=1.0, temperature=1e6)
    for nu in (0.5, 2.0, 2.4, -1.7, 1e-4, 0.01, 7.0, 30.0, -100.0):
        got = shift_b(nu, bath)
        assert abs(got - quad_shift(nu, bath)) < 1e-11 * max(abs(got), 4.0)


def test_shift_alpha_linearity_exact():
    doubled = BathSpec(alpha=0.02, omega_c=1.0, temperature=3.0)
    for nu in (0.0, 2.0, -2.0, 0.9):
        assert shift_b(nu, doubled) == 2.0 * shift_b(nu, BATH)


def test_shift_refinement_stability():
    # halving the error budget must not move the result by more than it
    for nu in (2.0, -2.0, 0.37):
        coarse = shift_b(nu, BATH, tol=1e-9)
        fine = shift_b(nu, BATH, tol=5e-10)
        assert abs(coarse - fine) < 1e-9


def test_shift_window_widens_to_hold_frequency(quad_shift):
    # the window widens to 2 |nu| past 40 omega_c, which loses nothing of the bath
    for nu in (50.0, -50.0):
        assert_allclose(shift_b(nu, BATH), quad_shift(nu, BATH, 400.0), rtol=1e-9)


def test_quadrature_error_type():
    assert issubclass(QuadratureError, RuntimeError)
    err = QuadratureError("budget", 1e-3)
    assert err.estimate == 1e-3
    # a budget below the 20- vs 10-point panel difference raises, estimate set
    with pytest.raises(QuadratureError, match="exceeds budget") as info:
        shift_b(0.7, BATH, tol=1e-30)
    assert 1e-30 < info.value.estimate < 1e-12


def test_import_loads_no_scipy():
    # the package and its CLI need numpy only
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, coolspec; from coolspec import cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_no_process_pool():
    # worker processes are started only by run_sweep with jobs > 1
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; from coolspec import cli; "
            "print('concurrent.futures.process' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_rate_table_consistent_with_scalars():
    # Gamma[j, i] = rate_a(nu[i, j]) - i shift_b(nu[i, j]), the convention of
    # TclPropagator.coefficients
    spec = SystemSpec(e_man=2.0, delta=0.3, omega_rabi=1.1, gamma_rad=0.5)
    eig = eigensystem(spec)
    gamma = rate_table(eig, BATH)
    assert gamma.dtype == complex and gamma.shape == (3, 3)
    for i in range(3):
        for j in range(3):
            if eig.elements[i, j] == 0:
                # a transition the bath does not couple is never evaluated
                assert gamma[j, i] == 0.0
                continue
            assert gamma[j, i].real == rate_a(eig.nu[i, j], BATH)
            assert -gamma[j, i].imag == shift_b(eig.nu[i, j], BATH)
            if eig.nu[i, j] > 0:
                assert_allclose(gamma[j, i].real / gamma[i, j].real,
                                math.exp(eig.nu[i, j] / 3.0), rtol=1e-10)
    assert np.all(np.diag(gamma) == 0.0)


@pytest.mark.parametrize("omega_c", [0.02, 100.0])
@pytest.mark.parametrize("temperature", [0.01, 1.0, 3.0])
def test_vectorized_rates_and_shifts_match_scalar_calls(temperature, omega_c):
    # one array call evaluates all transitions together, with panels padded
    # to the longest edge list (tiny |nu| doubles ~1000 times, |nu| beyond
    # 40 omega_c widens the window); each entry must equal its scalar call
    # exactly, or sweep output would depend on how points are chunked
    spec = BathSpec(alpha=0.01, omega_c=omega_c, temperature=temperature)
    nus = np.array([-3.0, -0.7, -1e-3, 0.0, 1e-3, 0.05, 0.7, 3.0, 1e-200, -1e-300])
    shifts, rates = shift_b(nus, spec), rate_a(nus, spec)
    assert shifts.shape == rates.shape == nus.shape
    assert np.all(np.isfinite(shifts)) and np.all(np.isfinite(rates))
    for nu, b, a in zip(nus, shifts, rates):
        assert b == shift_b(float(nu), spec)
        assert a == rate_a(float(nu), spec)


def test_stacked_rate_table_matches_single_points():
    # omega 0 leaves |e> uncoupled; delta 0 and 2 tie it with |g_u>, |g_l>
    deltas, omegas = np.array([0.0, 2.0, 0.3, -0.5, 0.0]), np.array([0.0, 0.0, 1.1, 0.7, 1.0])
    eig = eigensystem(SystemSpec(e_man=2.0, delta=deltas, omega_rabi=omegas))
    gamma = rate_table(eig, BATH)
    assert gamma.shape == (5, 3, 3)
    uncoupled = eig.elements.swapaxes(-1, -2) == 0
    assert np.any(uncoupled)
    assert np.all(gamma[uncoupled] == 0.0)
    for k, (delta, omega) in enumerate(zip(deltas, omegas)):
        spec = SystemSpec(e_man=2.0, delta=float(delta), omega_rabi=float(omega))
        single = rate_table(eigensystem(spec), BATH)
        assert np.array_equal(gamma[k].real, single.real)
        assert np.array_equal(gamma[k].imag, single.imag)


def test_shift_blocks_equal_scalar_calls():
    # shift_b evaluates at most _SHIFT_BLOCK transitions together; more
    # than two blocks of mixed signs, tiny and zero frequencies must each
    # equal their scalar call exactly
    import coolspec.bath as bath_module

    block = bath_module._SHIFT_BLOCK
    magnitudes = np.geomspace(1e-300, 30.0, block + 3)
    nus = np.concatenate([magnitudes, -magnitudes[::-1], [0.0, 5e-324]]).reshape(2, -1)
    shifts = shift_b(nus, BATH)
    assert shifts.shape == nus.shape
    for nu, b in zip(nus.ravel(), shifts.ravel()):
        assert b == shift_b(float(nu), BATH)


def test_shift_failure_in_later_block_names_first_failing_transition():
    # at tol 1e-15 nu 30 passes while nu 3 and -0.7 fail, with different
    # estimates; the first failure in input order is the larger magnitude,
    # and the error is its scalar error.  Each sign of a magnitude has its
    # own estimate and budget: 0.7 and -3.0 pass, and sharing a rule
    # evaluation with -0.7 and 3.0 must not fail them
    import coolspec.bath as bath_module

    block = bath_module._SHIFT_BLOCK
    nus = np.full(3 * block, 30.0)
    nus[block + 5] = 3.0
    nus[2 * block + 5] = -0.7
    with pytest.raises(QuadratureError) as first:
        shift_b(3.0, BATH, tol=1e-15)
    with pytest.raises(QuadratureError) as other:
        shift_b(-0.7, BATH, tol=1e-15)
    assert first.value.estimate != other.value.estimate
    with pytest.raises(QuadratureError) as info:
        shift_b(nus, BATH, tol=1e-15)
    assert str(info.value) == str(first.value)
    assert info.value.estimate == first.value.estimate
    with pytest.raises(QuadratureError) as info:
        shift_b([0.7, -3.0, 30.0, -0.7, 3.0], BATH, tol=1e-15)
    assert str(info.value) == str(other.value)
    assert info.value.estimate == other.value.estimate
    passing = shift_b([0.7, -3.0], BATH, tol=1e-15)
    assert passing.tolist() == [shift_b(0.7, BATH, tol=1e-15), shift_b(-3.0, BATH, tol=1e-15)]


@pytest.mark.parametrize("nu", [1e-300, -1e-300, 1e-200, 1e-160])
def test_shift_at_tiny_frequency_approaches_zero_frequency_limit(nu):
    # (w - s)(w + s) underflowed to 0 below |nu| ~ 1e-161, so the integrand
    # was 0/0 and the shift a silent NaN
    spec = BathSpec(alpha=1.0, omega_c=1.0, temperature=1.0)
    assert_allclose(shift_b(nu, spec), shift_b(0.0, spec), rtol=1e-15)


@pytest.mark.parametrize("temperature", [0.01, 3.0, 1e6])
@pytest.mark.parametrize("nu", [1e-306, -1e-306, 1e-310, -1e-310, 5e-324, -5e-324])
def test_rate_and_shift_at_tiny_frequency(nu, temperature):
    # n(|nu|) ~ T / |nu|, the pole term's log argument and the panel grid's
    # doubling count overflowed here; the rate vanishes as nu^2, and below
    # the smallest normal double the shift takes its nu = 0 value
    spec = BathSpec(alpha=0.01, omega_c=1.0, temperature=temperature)
    assert rate_a(nu, spec) == 0.0
    assert_allclose(shift_b(nu, spec), shift_b(0.0, spec), rtol=1e-15)


def test_nan_error_estimate_raises(monkeypatch):
    # a NaN estimate compares False against the budget; it must still fail
    import coolspec.bath as bath_module

    monkeypatch.setattr(bath_module, "_thermal_parts",
                        lambda w, omega_c, beta: (np.full(np.shape(w), np.nan),) * 2)
    with pytest.raises(QuadratureError, match="nan exceeds budget") as info:
        shift_b(0.7, BATH)
    assert math.isnan(info.value.estimate)
