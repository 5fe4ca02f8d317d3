import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from coolspec.bath import (
    BathSpec,
    QuadratureError,
    bose_occupation,
    rate_a,
    rate_table,
    shift_b,
    spectral_density,
)
from coolspec.system import SystemSpec, build_hamiltonian, coupling_operator, eigensystem

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
    # series branch must join the expm1 branch smoothly near the cutoff
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


def _pv_integrand(w: float, nu: float, bath: BathSpec) -> float:
    if w <= 0.0:
        return 0.0
    n = bose_occupation(w, bath)
    return spectral_density(w, bath) * (w + (2.0 * n + 1.0) * nu)


def _pv_shift_cauchy(nu: float, bath: BathSpec, omega_max: float = 40.0) -> float:
    """Independent principal-value oracle via Cauchy-weight quadrature."""
    s = abs(nu)
    val, _ = quad(lambda w: _pv_integrand(w, nu, bath) / (w + s), 0.0, omega_max,
                  weight="cauchy", wvar=s, limit=400, epsabs=1e-12, epsrel=1e-12)
    return val


def _pv_shift_simpson(nu: float, bath: BathSpec, omega_max: float = 40.0) -> float:
    """Independent oracle: symmetric pairing across the pole plus Simpson.

    The window (s - h, s + h) is integrated as the integral over x in (0, h)
    of f(s + x) + f(s - x), where the simple pole cancels; the remainder is
    smooth and integrated on fine composite grids.
    """
    from scipy.integrate import simpson

    s = abs(nu)
    h = 0.25
    f = lambda w: _pv_integrand(w, nu, bath) / (w * w - s * s)
    left = np.linspace(1e-12, s - h, 60001)
    right = np.linspace(s + h, omega_max, 60001)
    x = np.linspace(1e-9, h, 60001)
    paired = np.array([f(s + xx) + f(s - xx) for xx in x])
    return (simpson([f(w) for w in left], x=left)
            + simpson([f(w) for w in right], x=right)
            + simpson(paired, x=x))


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


def test_shift_rejects_frequency_outside_window():
    # an explicit window must contain the transition frequency
    with pytest.raises(ValueError, match="window"):
        shift_b(50.0, BATH, omega_max=40.0)
    # the default one widens to 2 |nu|, which loses nothing of the bath
    for nu in (50.0, -50.0):
        assert_allclose(shift_b(nu, BATH), shift_b(nu, BATH, omega_max=400.0), rtol=1e-9)


def test_quadrature_error_type():
    assert issubclass(QuadratureError, RuntimeError)
    err = QuadratureError("budget", 1e-3)
    assert err.estimate == 1e-3


def test_rate_table_consistent_with_scalars():
    spec = SystemSpec(e_man=2.0, delta=0.3, omega_rabi=1.1, gamma_rad=0.5)
    eig = eigensystem(build_hamiltonian(spec), coupling_operator())
    table = rate_table(eig, BATH)
    for i in range(3):
        for j in range(3):
            assert table.a[i, j] == rate_a(eig.nu[i, j], BATH)
            assert table.b[i, j] == shift_b(eig.nu[i, j], BATH)
            if eig.nu[i, j] > 0:
                assert_allclose(table.a[i, j] / table.a[j, i],
                                math.exp(eig.nu[i, j] / 3.0), rtol=1e-10)
    assert np.all(np.diag(table.a) == 0.0)
