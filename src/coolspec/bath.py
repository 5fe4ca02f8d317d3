"""Super-Ohmic phonon bath: spectral density, occupation, rates, and shifts.

The spectral density is j(w) = 2 alpha w^3 / omega_c^2 exp(-w / omega_c)
for w > 0 and zero otherwise.  Golden-rule rates and principal-value
shifts are evaluated per transition frequency of the system eigenbasis and
collected in a RateTable.  Shifts come from a fixed composite
Gauss-Legendre rule whose panels are graded to the singularities of the
integrand, so the module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .system import EigenSystem

# integration window: the exponential cutoff leaves nothing measurable
# beyond a few tens of omega_c
OMEGA_MAX_FACTOR = 40.0
SHIFT_TOL = 1e-9


class QuadratureError(RuntimeError):
    """The shift quadrature's error estimate exceeds the requested budget."""

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

    Evaluated as -exp(-x) / expm1(-x) with x = beta nu, which cannot
    overflow at large x and keeps full relative accuracy as nu -> 0.
    """
    if nu <= 0:
        raise ValueError(f"bose_occupation requires nu > 0, got {nu}")
    x = spec.beta * nu
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


def _thermal_numerator(w: np.ndarray, nu: float, omega_c: float, beta: float) -> np.ndarray:
    """j(w)/alpha * (w + (2 n(w) + 1) nu) at w > 0, elementwise."""
    em1 = np.expm1(-beta * w)
    coth = (2.0 + em1) / -em1  # 2 n(w) + 1 = coth(beta w / 2), no overflow
    return 2.0 * w**3 / omega_c**2 * np.exp(-w / omega_c) * (w + coth * nu)


def _breakpoints(s: float, omega_c: float, temperature: float, omega_max: float) -> np.ndarray:
    """Panel edges on (0, omega_max), graded to the singularities of the integrand.

    Edges double from h = min(s, 2 pi T, omega_c) / 2 up to 4 omega_c, so a
    panel [a, 2a] keeps a distance of about a from the pole at -s and the Bose
    poles at +-2 pi i T m; they step by 4 omega_c up to 40 omega_c across the
    exponential cutoff and double again beyond it.  s and omega_max are edges
    themselves; other edges within 1e-3 s of s are dropped.
    """
    h = 0.5 * min(s, 2.0 * math.pi * temperature, omega_c)
    near = 4.0 * omega_c
    grid = [near * k for k in range(1, 11)]
    for edge, stop in ((h, near), (20.0 * near, omega_max)):
        while edge < stop:
            grid.append(edge)
            edge *= 2.0
    kept = [edge for edge in grid if edge < omega_max and abs(edge - s) > 1e-3 * s]
    return np.array(sorted(kept + [0.0, s, omega_max]))


# Gauss-Legendre rules of 20 and 10 points on [-1, 1], evaluated on one
# shared node array: row 0 of _PANEL_WEIGHTS gives the 20-point sum, row 1
# the 10-point sum
_X20, _W20 = leggauss(20)
_X10, _W10 = leggauss(10)
_PANEL_NODES = np.concatenate((_X20, _X10))
_PANEL_WEIGHTS = np.zeros((2, _PANEL_NODES.size))
_PANEL_WEIGHTS[0, :20] = _W20
_PANEL_WEIGHTS[1, 20:] = _W10


def _unit_shift(nu: float, omega_c: float, beta: float, omega_max: float, tol: float) -> float:
    """Principal-value shift integral at unit coupling (alpha = 1)."""
    if nu == 0.0:
        # integrand reduces to j(w)/w = 2 w^2 / omega_c^2 exp(-w / omega_c),
        # no pole and no temperature: the window integral is exact
        x = omega_max / omega_c
        return 4.0 * omega_c * (1.0 - math.exp(-x) * (1.0 + x + 0.5 * x * x))

    s = abs(nu)
    if s >= omega_max:
        raise ValueError(f"transition frequency {nu} outside integration window {omega_max}")
    # subtract the simple pole at w = s: near the pole the integrand behaves
    # as c / (w - s) with c = numerator(s) / (2 s); the remainder g is
    # analytic on the whole window
    c = float(_thermal_numerator(np.array(s), nu, omega_c, beta)) / (2.0 * s)
    edges = _breakpoints(s, omega_c, 1.0 / beta, omega_max)
    half = 0.5 * np.diff(edges)
    w = (edges[:-1] + half)[:, None] + half[:, None] * _PANEL_NODES
    g = _thermal_numerator(w, nu, omega_c, beta) / ((w - s) * (w + s)) - c / (w - s)
    panels = half[:, None] * (g @ _PANEL_WEIGHTS.T)
    estimate = float(np.abs(panels[:, 0] - panels[:, 1]).sum())
    if estimate > tol:
        raise QuadratureError(
            f"shift integral error estimate {estimate:.3e} exceeds budget {tol:.3e}", estimate
        )
    # analytic principal value of the subtracted pole over (0, omega_max)
    return float(panels[:, 0].sum()) + c * math.log((omega_max - s) / s)


def shift_b(nu: float, spec: BathSpec, omega_max: float | None = None, tol: float = SHIFT_TOL) -> float:
    """Principal-value frequency shift at transition frequency nu.

    Evaluates PV of the integral over w in (0, omega_max) of
    j(w) (w + (2 n(w) + 1) nu) / (w^2 - nu^2).  The pole at w = s = |nu| is
    subtracted as c / (w - s) and its exact principal value
    c log((omega_max - s) / s) added back.  The remainder is analytic on the
    window; its nearest singularities are the pole at -s and the Bose poles
    at +-2 pi i T m, with exp(-w / omega_c) setting the scale beyond.  It is
    integrated by 20-point Gauss-Legendre panels on edges 0, then doubling
    from min(s, 2 pi T, omega_c) / 2 to 4 omega_c, every 4 omega_c to
    40 omega_c, doubling again to omega_max, plus s and omega_max, which
    converges geometrically (Trefethen, SIAM Rev. 50, 67 (2008)).  A 10-point
    rule on the same panels gives the error estimate, the sum of the panel
    differences; above tol (on the integral at alpha = 1) QuadratureError
    carries it.  At nu = 0 there is no pole and the integral is taken in
    closed form.  The coupling alpha enters exactly linearly and is factored
    out.  The default window is 40 omega_c, widened to 2 |nu| for
    transitions beyond it; an explicit omega_max that does not contain |nu|
    raises ValueError.
    """
    if omega_max is None:
        omega_max = max(OMEGA_MAX_FACTOR * spec.omega_c, 2.0 * abs(nu))
    return spec.alpha * _unit_shift(float(nu), spec.omega_c, spec.beta, float(omega_max), tol)


@dataclass(frozen=True)
class RateTable:
    """Golden-rule rates a[i, j] and shifts b[i, j] on the transition grid.

    With nu[i, j] the transition frequency between eigenstates i and j,
    a[i, j] = rate_a(nu[i, j]) and b[i, j] = shift_b(nu[i, j]) at shift_b's
    default window and tolerance where the bath couples i and j
    (eig.elements[i, j] != 0), and zero elsewhere.
    """

    a: np.ndarray
    b: np.ndarray


def rate_table(eig: EigenSystem, spec: BathSpec) -> RateTable:
    """Evaluate rates and shifts for every coupled ordered eigenstate pair.

    Uncoupled pairs stay zero unevaluated, so they cannot fail the table.
    Shifts use shift_b's default window and tolerance.
    """
    n = eig.nu.shape[0]
    a = np.zeros((n, n))
    b = np.zeros((n, n))
    for i, j in zip(*np.nonzero(eig.elements)):
        a[i, j] = rate_a(eig.nu[i, j], spec)
        b[i, j] = shift_b(eig.nu[i, j], spec)
    return RateTable(a=a, b=b)
