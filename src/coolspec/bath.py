"""Super-Ohmic phonon bath: spectral density, occupation, rates, and shifts.

The spectral density is j(w) = 2 alpha w^3 / omega_c^2 exp(-w / omega_c)
for w > 0 and zero otherwise.  Golden-rule rates and principal-value
shifts are evaluated per transition frequency of the system eigenbasis and
collected in a RateTable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .system import EigenSystem

# integration window: the exponential cutoff leaves nothing measurable
# beyond a few tens of omega_c
OMEGA_MAX_FACTOR = 40.0
SHIFT_TOL = 1e-9

# below this value of beta*nu the occupation switches to a series to keep
# the w -> 0 behaviour of integrands smooth
_SERIES_CUTOFF = 1e-8


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not meet the requested error budget."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class BathSpec:
    """Phonon bath parameters: dimensionless coupling, cutoff, temperature."""

    alpha: float
    omega_c: float = 1.0
    temperature: float = 1.0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if self.omega_c <= 0:
            raise ValueError(f"omega_c must be positive, got {self.omega_c}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")

    @property
    def beta(self) -> float:
        return 1.0 / self.temperature


def spectral_density(omega, spec: BathSpec):
    """Spectral density j(omega); zero for omega <= 0.

    Accepts scalars or arrays.  The single maximum sits at 3 omega_c.
    """
    w = np.asarray(omega, dtype=float)
    safe = np.where(w > 0.0, w, 1.0)
    out = np.where(
        w > 0.0,
        2.0 * spec.alpha * safe**3 / spec.omega_c**2 * np.exp(-safe / spec.omega_c),
        0.0,
    )
    return out.item() if out.ndim == 0 else out


def bose_occupation(nu: float, spec: BathSpec) -> float:
    """Thermal occupation 1 / (exp(beta nu) - 1), requires nu > 0.

    For beta*nu below 1e-8 the Laurent series 1/x - 1/2 + x/12 is used so
    that products with the spectral density stay smooth as nu -> 0.
    """
    if nu <= 0:
        raise ValueError(f"bose_occupation requires nu > 0, got {nu}")
    return _occupation(spec.beta * nu)


def _occupation(x: float) -> float:
    """1 / expm1(x) for x > 0, in a form that cannot overflow at large x."""
    if x < _SERIES_CUTOFF:
        return 1.0 / x - 0.5 + x / 12.0
    return -math.exp(-x) / math.expm1(-x)


def rate_a(nu: float, spec: BathSpec) -> float:
    """Half-Fourier golden-rule rate at transition frequency nu.

    nu > 0 (system loses energy to the bath): pi (n(nu) + 1) j(nu).
    nu < 0 (system absorbs energy):           pi n(|nu|) j(|nu|).
    nu = 0: zero, since j(w)/w -> 0 for the cubic density.

    Rates at opposite frequencies obey detailed balance,
    rate_a(nu) / rate_a(-nu) = exp(beta nu).
    """
    if nu > 0:
        return math.pi * (bose_occupation(nu, spec) + 1.0) * spectral_density(nu, spec)
    if nu < 0:
        return math.pi * bose_occupation(-nu, spec) * spectral_density(-nu, spec)
    return 0.0


def _thermal_numerator(w: float, nu: float, omega_c: float, beta: float) -> float:
    """j(w)/alpha * (w + (2 n(w) + 1) nu) with the w <= 0 tail cut off."""
    if w <= 0.0:
        return 0.0
    n = _occupation(beta * w)
    jw = 2.0 * w**3 / omega_c**2 * math.exp(-w / omega_c)
    return jw * (w + (2.0 * n + 1.0) * nu)


@lru_cache(maxsize=16384)
def _unit_shift(nu: float, omega_c: float, beta: float, omega_max: float, tol: float) -> float:
    """Principal-value shift integral at unit coupling (alpha = 1)."""
    if nu == 0.0:
        # integrand reduces to j(w)/w, no pole
        val, err = quad(
            lambda w: _thermal_numerator(w, 0.0, omega_c, beta) / (w * w) if w > 0.0 else 0.0,
            0.0,
            omega_max,
            epsabs=tol,
            epsrel=1e-12,
            limit=400,
        )
        if err > tol:
            raise QuadratureError(
                f"shift integral error estimate {err:.3e} exceeds budget {tol:.3e}", err
            )
        return val

    s = abs(nu)
    if s >= omega_max:
        raise ValueError(f"transition frequency {nu} outside integration window {omega_max}")
    # subtract the simple pole at w = s: near the pole the integrand behaves
    # as c / (w - s) with c = numerator(s) / (2 s)
    c = _thermal_numerator(s, nu, omega_c, beta) / (2.0 * s)

    def regular(w: float) -> float:
        d = w - s
        if abs(d) < 1e-9 * max(1.0, s):
            # removable limit: derivative of numerator(w)/(w + s) at w = s
            h = 1e-5 * max(1.0, s)
            phi = lambda x: _thermal_numerator(x, nu, omega_c, beta) / (x + s)
            return (phi(s + h) - phi(s - h)) / (2.0 * h)
        return _thermal_numerator(w, nu, omega_c, beta) / (w * w - s * s) - c / d

    val, err = quad(regular, 0.0, omega_max, points=[s], epsabs=tol, epsrel=1e-12, limit=400)
    if err > tol:
        raise QuadratureError(
            f"shift integral error estimate {err:.3e} exceeds budget {tol:.3e}", err
        )
    # analytic principal value of the subtracted pole over (0, omega_max)
    return val + c * math.log((omega_max - s) / s)


def shift_b(nu: float, spec: BathSpec, omega_max: float | None = None, tol: float = SHIFT_TOL) -> float:
    """Principal-value frequency shift at transition frequency nu.

    Evaluates PV of the integral over w in (0, omega_max) of
    j(w) (w + (2 n(w) + 1) nu) / (w^2 - nu^2).  The pole at w = |nu| is
    subtracted analytically, the smooth remainder integrated adaptively,
    and the exact principal value of the subtracted term added back.  The
    coupling alpha enters exactly linearly and is factored out, which also
    lets results be cached across sweeps that share omega_c and beta.  The
    default window is 40 omega_c, widened to 2 |nu| for transitions beyond
    it; an explicit omega_max that does not contain |nu| raises ValueError.
    """
    if omega_max is None:
        omega_max = max(OMEGA_MAX_FACTOR * spec.omega_c, 2.0 * abs(nu))
    return spec.alpha * _unit_shift(float(nu), spec.omega_c, spec.beta, float(omega_max), tol)


@dataclass(frozen=True)
class RateTable:
    """Golden-rule rates a[i, j] and shifts b[i, j] on the transition grid.

    nu[i, j] is the transition frequency between eigenstates i and j;
    a[i, j] = rate_a(nu[i, j]) and b[i, j] = shift_b(nu[i, j]).
    """

    nu: np.ndarray
    a: np.ndarray
    b: np.ndarray


def rate_table(eig: EigenSystem, spec: BathSpec, omega_max: float | None = None,
               tol: float = SHIFT_TOL) -> RateTable:
    """Evaluate rates and shifts for every ordered eigenstate pair."""
    n = eig.nu.shape[0]
    a = np.zeros((n, n))
    b = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            a[i, j] = rate_a(eig.nu[i, j], spec)
            b[i, j] = shift_b(eig.nu[i, j], spec, omega_max=omega_max, tol=tol)
    return RateTable(nu=eig.nu.copy(), a=a, b=b)
