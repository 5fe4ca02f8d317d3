import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import IntegrationWarning, quad
from scipy.special import expi, expn

from coolspec import bath as bath_module
from coolspec.bath import SHIFT_TOL, BathSpec, _h, _h_seed, rate_a, rate_table, shift_b
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
    # h_n(0) = (n - 1)! exactly, so the series gives it bitwise, at any tol
    for spec in (BATH, other, BathSpec(alpha=0.3, omega_c=0.02, temperature=1e6),
                 BathSpec(alpha=1.0, omega_c=5.0, temperature=0.01)):
        for tol in (SHIFT_TOL, 1e-9, 0.0):
            assert shift_b(0.0, spec, tol=tol) == 4.0 * spec.alpha * spec.omega_c


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
    # the graded Gauss-Kronrod rule against two adaptive quadratures, from
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


def _h_row_mp(x, top: int) -> list:
    """h_0 .. h_top at x to 40 digits: the recurrence from -e^-x Ei(x), with the digits it cancels added."""
    with mpmath.workdps(40 + int((top + 1) * math.log10(abs(float(x)) + 1.0)) + 5):
        x = mpmath.mpf(x)
        row = [-mpmath.exp(-x) * mpmath.ei(x)]
        for n in range(1, top + 1):
            row.append(x * row[-1] + math.factorial(n - 1))
        return row


def _shift_pair_mp(s: float, omega_c: float, temperature: float) -> tuple:
    """shift_b / alpha at nu = s and -s: 60 exact Matsubara terms at 40 digits, then the tail to B_12."""
    with mpmath.workdps(40):
        beta = 1 / mpmath.mpf(temperature)
        b = [1 / mpmath.mpf(omega_c) + k * beta for k in range(61)]
        plus = [_h_row_mp(bk * s, 3)[3] / bk**3 for bk in b[:-1]]
        minus = [_h_row_mp(-bk * s, 3)[3] / bk**3 for bk in b[:-1]]
        up, down = _h_row_mp(b[-1] * s, 14), _h_row_mp(-b[-1] * s, 14)
        d = [(up[n] - down[n]) / b[-1] ** n for n in range(15)]
        odd = sum(plus[1:]) - sum(minus[1:]) + d[2] / beta + d[3] / 2 + sum(
            mpmath.bernoulli(2 * m) / mpmath.factorial(2 * m) * beta ** (2 * m - 1) * d[2 * m + 2]
            for m in range(1, 7))
        return tuple(float(2 / mpmath.mpf(omega_c) ** 2 * v) for v in (plus[0] + odd, minus[0] - odd))


@pytest.mark.parametrize("temperature, omega_c", [
    (temperature, omega_c) for temperature in (0.01, 0.3, 3.0, 30.0)
    for omega_c in (0.02, 0.2, 1.0, 5.0)] + [(1e6, 1.0)])
def test_shift_matches_a_40_digit_matsubara_sum(temperature, omega_c):
    # shift_b's term count brings its tail's first omitted term to SHIFT_TOL
    # of the tail's leading term, at most 1.7 max(|b|, 4 omega_c) on this
    # grid; the omitted terms measure below 1e-13 of it, and roundoff, up to
    # 3e-13 of max(|b|, 4 omega_c), takes the rest of the bound
    bath = BathSpec(alpha=1.0, omega_c=omega_c, temperature=temperature)
    for magnitude in (1e-7, 1e-4, 0.01, 0.3, 1.0, 2.5, 7.0, 30.0, 100.0):
        for nu, ref in zip((magnitude, -magnitude), _shift_pair_mp(magnitude, omega_c, temperature)):
            assert abs(shift_b(nu, bath) - ref) <= SHIFT_TOL * max(abs(ref), 4.0 * omega_c)


def test_shift_sums_at_most_13_exact_terms(monkeypatch):
    # 10 at the default bath, 13 as the temperature vanishes, the cap at tol 0
    counts = []
    shift_pair = bath_module._shift_pair

    def counted(s, spec, terms):
        counts.append(terms)
        return shift_pair(s, spec, terms)

    monkeypatch.setattr(bath_module, "_shift_pair", counted)
    for temperature in (3.0, 1e-3, 1e6):
        shift_b(0.5, BathSpec(alpha=0.01, omega_c=1.0, temperature=temperature))
    shift_b(0.5, BATH, tol=0.0)
    assert counts == [10, 13, 1, 32]


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


def test_tol_sets_the_number_of_exact_terms():
    # tol 1e-10 and 5e-11 sum 6 and 7 exact terms at this bath: the
    # results differ, by far less than either bound
    for nu in (2.0, -2.0, 0.37, 30.0):
        coarse, fine = shift_b(nu, BATH, tol=1e-10), shift_b(nu, BATH, tol=5e-11)
        assert coarse != fine
        assert abs(coarse - fine) < 1e-11 * max(abs(fine), 4.0 * BATH.alpha * BATH.omega_c)
    for tol in (-1e-9, math.nan):
        with pytest.raises(ValueError, match="tol must be non-negative"):
            shift_b(1.0, BATH, tol=tol)


def _h_reference(x: float, n: int) -> float:
    """h_n(x) from scipy: n! e^-x E_(n+1)(-x) for x < 0, else a Cauchy-weight quadrature."""
    if x < 0.0:
        return math.factorial(n) * math.exp(-x) * expn(n + 1, -x)
    top = x + 60.0 + 2.0 * n
    # at x 10, n 10 quad warns that it cannot certify epsrel 1e-13; it is
    # 8.5e-16 off a 40-digit value there
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        pole = quad(lambda t: t**n * math.exp(-t), 0.0, top, weight="cauchy", wvar=x,
                    epsabs=0.0, epsrel=1e-13, limit=400)[0]
    return pole + quad(lambda t: t**n * math.exp(-t) / (t - x), top, math.inf,
                       epsabs=0.0, epsrel=1e-13, limit=400)[0]


def _switches() -> np.ndarray:
    """Both sides of every branch switch of _h (x = -2, +-40), by one ulp and by 1e-9."""
    return np.array([point for c in (-2.0, 40.0, -40.0)
                     for point in (np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf),
                                   c - 1e-9, c + 1e-9)])


def _h_of(x: np.ndarray, order: int) -> np.ndarray:
    """_h's rows h_1 .. h_order at x, RuntimeWarnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(divide="ignore", over="ignore"):
            u = 1.0 / x
        return _h(x, u, _h_seed(x, u), order)


def test_exponential_integral_matches_scipy_at_branch_switches():
    # h_1(x) = 1 - x e^-x Ei(x), so e^-x Ei(x) = (1 - h_1(x)) / x on every
    # branch, -2.0000000000000013 (three ulps past the switch at -2) included
    x = np.concatenate([_switches(), [-2.0000000000000013, -3.0, -0.5, 0.5, 3.0, 39.0, 100.0]])
    assert_allclose((1.0 - _h_of(x, 1)[0]) / x, np.exp(-x) * expi(x), rtol=1e-13, atol=0)
    # and -x h_0(x) / x from _h_seed below |x| = 40, down to tiny x
    near = np.concatenate([x[np.abs(x) < 40.0], [1e-300, -1e-300, 1e-20, -1e-20]])
    assert_allclose(-_h_seed(near, 1.0 / near) / near, np.exp(-near) * expi(near), rtol=1e-14, atol=0)


def test_h_matches_scipy_on_both_sides_of_every_branch_switch():
    # the recurrence h_n = x h_(n-1) + (n-1)! loses about |x|^n / n! ulps
    # below |x| = 40, the asymptotic series as much above it; from |x| 73 on
    # that series stops at its 60th term
    x = np.concatenate([_switches(), [-2.0000000000000013, -10.0, 1.0, 10.0, 39.0, 73.0, -73.0]])
    h = _h_of(x, 12)
    for n in (1, 2, 3, 4, 6, 8, 10, 12):
        for point, got in zip(x, h[n - 1]):
            ref = _h_reference(float(point), n)
            assert abs(got - ref) <= (1e-13 + 2e-15 * abs(point) ** n / math.factorial(n)) * abs(ref)


def test_h_at_zero_and_at_the_ends_of_the_doubles():
    # h_n(0) = (n - 1)!, which the recurrence gives exactly up to subnormal
    # |x|, as does scipy's 1 - x e^-x Ei(x) for h_1; at +-1e308 the
    # asymptotic series is -n! / x
    tiny = np.array([1e-300, -1e-300, 5e-324, -5e-324, 0.0, -0.0])
    huge = np.array([1e308, -1e308])
    h, far = _h_of(tiny, 12), _h_of(huge, 12)
    for n in range(1, 13):
        assert h[n - 1].tolist() == [math.factorial(n - 1)] * tiny.size
        assert_allclose(far[n - 1], -math.factorial(n) / huge, rtol=1e-15, atol=0)
    assert h[0, :4].tolist() == (1.0 - tiny[:4] * np.exp(-tiny[:4]) * expi(tiny[:4])).tolist()


def test_shift_array_spanning_every_branch_equals_scalar_calls():
    # magnitudes from subnormal to far above the bath put b_k |nu| in every
    # branch of _h and every loop count; each entry must equal its scalar
    # call exactly, whatever the others in the array
    for spec in (BATH, BathSpec(alpha=0.01, omega_c=0.02, temperature=0.3)):
        magnitudes = np.geomspace(1e-300, 1e3, 61)
        nus = np.concatenate([magnitudes, -magnitudes[::-1], [0.0, 5e-324, 1e308]]).reshape(5, -1)
        shifts = shift_b(nus, spec)
        for nu, b in zip(nus.ravel(), shifts.ravel()):
            assert b == shift_b(float(nu), spec)


@pytest.mark.parametrize("temperature", [1e-320, 1e-310])
def test_shift_at_a_vanishing_temperature_is_its_cold_limit(temperature):
    # beta omega_c overflows to inf here; only the k = 0 term remains, as at
    # T 1e-100, where the terms k >= 1 fall below 1e-300 of it
    cold = BathSpec(alpha=0.01, omega_c=1.0, temperature=1e-100)
    spec = BathSpec(alpha=0.01, omega_c=1.0, temperature=temperature)
    nus = np.array([0.5, -0.5, 0.0, 5e-324, 3.0, -3.0, 1e3, -1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_allclose(shift_b(nus, spec), shift_b(nus, cold), rtol=1e-15, atol=0)


def test_shift_window_widens_to_hold_frequency(quad_shift):
    # the window widens to 2 |nu| past 40 omega_c, which loses nothing of the bath
    for nu in (50.0, -50.0):
        assert_allclose(shift_b(nu, BATH), quad_shift(nu, BATH, 400.0), rtol=1e-9)


def _after_cli_import(expression: str) -> str:
    """What a fresh interpreter prints for expression after importing coolspec.cli."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys; from coolspec import cli; print({expression})"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_loads_no_scipy():
    # the package and its CLI need numpy only
    assert _after_cli_import(
        "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))") == "[]"


def test_import_loads_no_numpy_polynomial():
    # the shift rule's nodes and weights are constants, not leggauss output
    assert _after_cli_import(
        "sorted(m for m in sys.modules if m.startswith('numpy.polynomial'))") == "[]"


def test_import_loads_no_process_pool():
    # worker processes are started only by run_sweep with jobs > 1
    assert _after_cli_import("'concurrent.futures.process' in sys.modules") == "False"


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


@pytest.mark.parametrize("temperature, omega_c", [(3.0, 1.0), (0.01, 0.02), (1e6, 1.0)])
def test_shift_at_huge_frequency_falls_as_one_over_nu(temperature, omega_c):
    # far above the bath, nu b(nu) -> -integral of j(w) (2 n(w) + 1): w^2,
    # q nu, the pole constant's s^2 and the window's 2 |nu| overflowed here
    spec = BathSpec(alpha=0.01, omega_c=omega_c, temperature=temperature)
    nus = np.array([1e100, -1e100, 1e200, -1e200, 1e300, -1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scaled = nus * shift_b(nus, spec)
    limit = -quad(lambda w: spectral_density(w, spec) / math.tanh(0.5 * spec.beta * w),
                  0.0, 200.0 * omega_c, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    assert_allclose(scaled, scaled[0], rtol=1e-12)
    assert_allclose(scaled[0], limit, rtol=1e-9)


@pytest.mark.parametrize("temperature, omega_c", [(3.0, 1.0), (0.01, 0.02)])
@pytest.mark.parametrize("nu", [1e155, 1e200, 1e300, 1.7e308, np.finfo(float).max])
def test_rate_and_shift_finite_up_to_the_largest_double(nu, temperature, omega_c):
    spec = BathSpec(alpha=0.01, omega_c=omega_c, temperature=temperature)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rates = rate_a(np.array([nu, -nu]), spec)
        shifts = shift_b(np.array([nu, -nu]), spec)
    assert rates.tolist() == [0.0, 0.0]
    assert np.isfinite(shifts).all() and shifts[0] != 0.0
    assert_allclose(shifts[1], -shifts[0], rtol=1e-12)
