"""Super-Ohmic phonon bath: golden-rule rates and principal-value shifts.

The spectral density is j(w) = 2 alpha w^3 / omega_c^2 exp(-w / omega_c)
for w > 0 and zero otherwise, with thermal occupation
n(w) = 1 / (exp(beta w) - 1).  Neither is formed on its own: rate_a and
the shift numerator combine them as j(s)/s and s (n(s) + 1), which stay
finite as s -> 0.  Rates and shifts are evaluated per transition
frequency of the system eigenbasis and combined into the half-Fourier
coefficients Gamma = a - i b that every generator reads (rate_table).
Shifts come from a fixed composite Gauss-Legendre rule whose panels are
graded to the singularities of the integrand, so the module needs numpy
only; one evaluation per distinct |nu| serves both signs (a rate table
holds -nu with every nu), each sign with its own error estimate and budget.
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
# below the smallest normal double, shift_b takes its nu = 0 value
_SMALLEST_NORMAL = np.finfo(float).tiny
# transitions whose panels shift_b evaluates together, as _SHIFT_BLOCK // 2
# magnitudes of both signs: the rule's temporaries grow with it (the 1,296
# coupled transitions of paper-fig2's 324 points, 629 magnitudes, peaked
# at 31.3 MB under tracemalloc in one block of transitions, 3.2 MB in
# blocks of 128 transitions and 2.3 MB in blocks of 64 magnitudes)
_SHIFT_BLOCK = 128


class QuadratureError(RuntimeError):
    """The shift quadrature's error estimate exceeds the requested budget."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class BathSpec:
    """Phonon bath parameters: dimensionless coupling, cutoff, temperature, all real and finite."""

    alpha: float
    omega_c: float = 1.0
    temperature: float = 1.0

    def __post_init__(self):
        # a complex field fails by name, not by a TypeError from the comparison
        if np.iscomplexobj(self.alpha) or not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be real, non-negative and finite, got {self.alpha}")
        if np.iscomplexobj(self.omega_c) or not 0 < self.omega_c < math.inf:
            raise ValueError(f"omega_c must be real, positive and finite, got {self.omega_c}")
        # j(w) scales as alpha / omega_c**2, which a subnormal square turns
        # into a division by zero or an inf
        if not self.omega_c**2 >= _SMALLEST_NORMAL:
            raise ValueError(f"omega_c must be at least {math.sqrt(_SMALLEST_NORMAL):.3g}, "
                             f"so that omega_c**2 is a normal double, got {self.omega_c}")
        if np.iscomplexobj(self.temperature) or not 0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be real, positive and finite, "
                             f"got {self.temperature}")

    @property
    def beta(self) -> float:
        return 1.0 / self.temperature


def _thermal(w, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """expm1(-beta w) and w (n(w) + 1) = w / (1 - exp(-beta w)), elementwise for w >= 0.

    The second tends to the temperature as w -> 0 where n(w) alone
    overflows, and is that limit where beta w underflows to 0.
    """
    em1 = np.expm1(-beta * w)
    zero = em1 == 0.0
    return em1, np.where(zero, 1.0 / beta, w / np.where(zero, -1.0, -em1))


def rate_a(nu, spec: BathSpec):
    """Half-Fourier golden-rule rate at transition frequency nu.

    nu > 0 (system loses energy to the bath): pi (n(nu) + 1) j(nu).
    nu < 0 (system absorbs energy):           pi n(|nu|) j(|nu|).
    nu = 0: zero, since j(w)/w -> 0 for the cubic density.

    Evaluated as pi j(s)/s * s (n(s) + 1), s = |nu|, times exp(-beta s) for
    nu < 0, so that nothing overflows as nu -> 0.  Accepts scalars or
    arrays.  Rates at opposite frequencies obey detailed balance,
    rate_a(nu) / rate_a(-nu) = exp(beta nu).
    """
    nu = np.asarray(nu, dtype=float)
    s = np.abs(nu)
    _, emitted = _thermal(s, spec.beta)
    absorbed = np.where(nu > 0.0, 1.0, np.exp(-spec.beta * s))
    out = (2.0 * math.pi * spec.alpha / spec.omega_c**2 * s**2 * np.exp(-s / spec.omega_c)
           * emitted * absorbed)
    return out.item() if out.ndim == 0 else out


def _thermal_parts(w, omega_c: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """j(w) / (alpha w) and w (2 n(w) + 1) at w > 0, elementwise.

    The shift numerator j(w)/alpha * (w + (2 n(w) + 1) nu) is
    p (w w + q nu) with (p, q) these two, which do not depend on nu.
    w (2 n(w) + 1) = w coth(beta w / 2) is formed as (2 + em1) w / -em1,
    em1 = expm1(-beta w), which stays finite as w -> 0.
    """
    em1, emitted = _thermal(w, beta)
    return 2.0 * w**2 / omega_c**2 * np.exp(-w / omega_c), (2.0 + em1) * emitted


def _breakpoints(s: np.ndarray, omega_c: float, temperature: float,
                 omega_max: np.ndarray) -> np.ndarray:
    """Panel edges on (0, omega_max), graded to the singularities of the integrand.

    Row k holds the edges of s[k] and omega_max[k] in ascending order.
    Edges double from h = min(s, 2 pi T, omega_c) / 2 up to 4 omega_c, so a
    panel [a, 2a] keeps a distance of about a from the pole at -s and the Bose
    poles at +-2 pi i T m; they step by 4 omega_c up to 40 omega_c across the
    exponential cutoff and double again beyond it.  s and omega_max are edges
    themselves; other edges within 1e-3 s of s are dropped.  Rows shorter
    than the longest end in repeats of omega_max, i.e. in panels of zero
    width.
    """
    h = 0.5 * np.minimum(s, min(2.0 * math.pi * temperature, omega_c))
    near = 4.0 * omega_c
    far = 20.0 * near
    # doublings of each row up to near, from logarithms: near / h overflows
    # for h below near * 5.6e-309
    doublings = np.ceil(np.log2(near) - np.log2(h)).astype(int)
    fine = np.ldexp(h[:, None], np.minimum(np.arange(doublings.max() + 1), doublings[:, None]))
    coarse = far * 2.0 ** np.arange(math.ceil(math.log2(max(omega_max.max(), far) / far)) + 1)
    grid = np.concatenate([np.broadcast_to(near * np.arange(1, 11), (len(s), 10)),
                           np.where(fine < near, fine, np.inf),
                           np.broadcast_to(coarse, (len(s), len(coarse)))], axis=1)
    kept = (grid < omega_max[:, None]) & (np.abs(grid - s[:, None]) > 1e-3 * s[:, None])
    edges = np.column_stack([np.zeros_like(s), s, omega_max, np.where(kept, grid, np.inf)])
    return np.minimum(np.sort(edges, axis=1), omega_max[:, None])


# Gauss-Legendre rules of 20 and 10 points on [-1, 1], evaluated on one
# shared node array: row 0 of _PANEL_WEIGHTS gives the 20-point sum, row 1
# the 10-point sum
_X20, _W20 = leggauss(20)
_X10, _W10 = leggauss(10)
_PANEL_NODES = np.concatenate((_X20, _X10))
_PANEL_WEIGHTS = np.zeros((2, _PANEL_NODES.size))
_PANEL_WEIGHTS[0, :20] = _W20
_PANEL_WEIGHTS[1, 20:] = _W10


def _window(s, omega_c: float) -> np.ndarray:
    """Shift integral's upper end at |nu| = s: 40 omega_c, widened to 2 s to hold the pole."""
    return np.maximum(OMEGA_MAX_FACTOR * omega_c, 2.0 * s)


def _principal_value(s: np.ndarray, omega_c: float, beta: float, tol: float) -> np.ndarray:
    """Principal-value shift integrals at unit coupling at nu = +s and -s, s > 0.

    Returns the integral, its error estimate and its budget, shape
    (3, len(s), 2), column 0 at +s and column 1 at -s.  One panel set per s
    on (0, _window(s)) serves both signs: the nodes and the transcendental
    parts of the numerator are evaluated once, and each sign is summed on
    them.  Each result depends on its own nu only: each row's panels are
    summed in panel order, so the zero-width padding adds exact zeros.
    """
    omega_max = _window(s, omega_c)
    p_s, q_s = _thermal_parts(s, omega_c, beta)
    edges = _breakpoints(s, omega_c, 1.0 / beta, omega_max)
    half = 0.5 * np.diff(edges, axis=1)
    panel = half > 0.0
    row = np.nonzero(panel)[0]
    width = half[panel][:, None]
    w = (edges[:, :-1] + half)[panel][:, None] + width * _PANEL_NODES
    p, q = _thermal_parts(w, omega_c, beta)
    # (numerator / (w + s) - c) / (w - s): the product (w - s)(w + s) would
    # underflow for |nu| below ~1e-161
    ww, above, below = w * w, w + s[row, None], w - s[row, None]
    # analytic principal value of the subtracted pole over (0, omega_max)
    log_ratio = np.log(omega_max - s) - np.log(s)
    out = np.empty((3, s.size, 2))
    panels = np.zeros(half.shape + (2,))
    for k, nu in enumerate((s, -s)):
        # subtract the simple pole at w = s: near the pole the integrand
        # behaves as c / (w - s) with c = numerator(s) / (2 s); the
        # remainder g is analytic on the whole window
        c = p_s * (s * s + q_s * nu) / (2.0 * s)
        g = (p * (ww + q * nu[row, None]) / above - c[row, None]) / below
        panels[panel] = width * (g[:, None, :] * _PANEL_WEIGHTS).sum(axis=-1)
        integral = panels[..., 0].cumsum(axis=1)[:, -1] + c * log_ratio
        out[:, :, k] = (integral,
                        np.abs(panels[..., 0] - panels[..., 1]).cumsum(axis=1)[:, -1],
                        tol * np.maximum(1.0, np.abs(integral)))
    return out


def shift_b(nu, spec: BathSpec, tol: float = SHIFT_TOL):
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
    differences; above tol max(1, |integral|) (the integral at alpha = 1,
    which grows like T), or NaN, QuadratureError carries it.  At nu = 0
    there is no pole and the integral is taken in closed form.  Subnormal nu
    (|nu| < 2.2e-308), whose pole the panels cannot resolve, take that value
    too; the shift differs from it by O(alpha (1 + T / omega_c) |nu|).  The
    coupling alpha enters exactly linearly and is factored out.  The
    window omega_max is 40 omega_c, widened to 2 |nu| for transitions
    beyond it, so it always holds the pole (_window).  Accepts scalars or
    arrays of nu.  The rule is evaluated once per distinct |nu|, its
    panels, nodes and thermal factors serving both signs, each sign with
    its own pole constant, panel sums, estimate and budget, in blocks of
    _SHIFT_BLOCK // 2 magnitudes so that memory does not grow with the
    array.  Each result equals its scalar call, and a failure raises the
    error of the first failing transition in input order.
    """
    nu = np.asarray(nu, dtype=float)
    flat = nu.ravel()
    out = np.empty_like(flat)
    pole = np.abs(flat) >= _SMALLEST_NORMAL
    # nu = 0: the integrand reduces to j(w)/w = 2 w^2 / omega_c^2 exp(-w / omega_c),
    # no pole and no temperature: the window integral is exact
    x = _window(np.abs(flat[~pole]), spec.omega_c) / spec.omega_c
    out[~pole] = 4.0 * spec.omega_c * (1.0 - np.exp(-x) * (1.0 + x + 0.5 * x * x))
    # one rule evaluation per distinct |nu| serves both signs; column 1 holds -|nu|
    s, which = np.unique(np.abs(flat[pole]), return_inverse=True)
    step = _SHIFT_BLOCK // 2
    rule = np.empty((3, s.size, 2))
    for start in range(0, s.size, step):
        block = slice(start, start + step)
        rule[:, block] = _principal_value(s[block], spec.omega_c, spec.beta, tol)
    integral, estimate, budget = rule[:, which, (flat[pole] < 0.0).astype(int)]
    # a NaN estimate fails too
    failed = np.flatnonzero(~(estimate <= budget))
    if failed.size:
        k = failed[0]
        raise QuadratureError(f"shift integral error estimate {estimate[k]:.3e} exceeds "
                              f"budget {budget[k]:.3e}", float(estimate[k]))
    out[pole] = integral
    out = spec.alpha * out.reshape(nu.shape)
    return out.item() if out.ndim == 0 else out


def rate_table(eig: EigenSystem, spec: BathSpec) -> np.ndarray:
    """Half-Fourier coefficients Gamma of every coupled ordered eigenstate pair.

    With nu[i, j] the transition frequency between eigenstates i and j,
    Gamma[..., i, j] = rate_a(nu[j, i]) - i shift_b(nu[j, i]) where the bath
    couples the pair (eig.elements[j, i] != 0), and zero elsewhere: the
    infinite-time limit of TclPropagator.coefficients, in its convention
    (Breuer & Petruccione, The Theory of Open Quantum Systems (2002),
    sec. 3.3).  Broadcasts over leading axes of eig: the coupled transitions
    of every point are evaluated together.  Uncoupled pairs stay zero
    unevaluated, so they cannot fail the table.  Shifts use shift_b's
    default tolerance.
    """
    coupled = eig.elements != 0
    nu = eig.nu[coupled]
    gamma = np.zeros(eig.nu.shape, dtype=complex)
    gamma[coupled] = rate_a(nu, spec) - 1j * shift_b(nu, spec)
    return gamma.swapaxes(-1, -2)
