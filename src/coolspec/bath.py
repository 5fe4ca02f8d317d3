"""Super-Ohmic phonon bath: golden-rule rates and principal-value shifts.

The spectral density is j(w) = 2 alpha w^3 / omega_c^2 exp(-w / omega_c)
for w > 0 and zero otherwise, with thermal occupation
n(w) = 1 / (exp(beta w) - 1).  Neither is formed on its own: rate_a
combines them as j(s)/s and s (n(s) + 1), which stay finite as s -> 0.
Rates and shifts are evaluated per transition frequency of the system
eigenbasis and combined into the half-Fourier coefficients Gamma = a - i b
that every generator reads (rate_table; without shifts for callers that
read none).  Shifts are the Matsubara series that
tcl.correlation_grid also sums, in closed form through the real
exponential integral: ten or so exact terms and an Euler-Maclaurin tail
(shift_b), so the module needs numpy only; one evaluation per distinct
|nu| serves both signs (a rate table holds -nu with every nu).  Rates
and shifts stay finite, and raise no warning, at every finite nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .system import EigenSystem

SHIFT_TOL = 1e-12
# Matsubara terms summed exactly in shift_b before its Euler-Maclaurin tail
# takes over, at most (at tol 0, for one)
_SERIES_TERMS = 32
_SMALLEST_NORMAL = np.finfo(float).tiny
_EULER_GAMMA = 0.5772156649015329
# _h_seed's branches: Ei's power series, coefficients 1 / (m m!) for
# m = 1, 2, ..., from x = -2 up to 40; E1's continued fraction below -2;
# from |x| = 40, where h_3 and h_12 from it are as good as from the
# recurrence from h_0 (7e-13 and 2.4e-6 relative, against 1.4e-12 and
# 7.8e-6), the asymptotic series of h_12 (the highest order shift_b
# reads), coefficients (12 + m)! / 12! for m = 0 .. 60
_FRACTION_BELOW = -2.0
_ASYMPTOTIC = 40.0
_TOP = 12
_EI_COEFFICIENTS = np.array([1.0 / (m * math.factorial(m)) for m in range(1, 120)])
_ASYMPTOTIC_COEFFICIENTS = np.cumprod([1.0] + list(range(_TOP + 1, _TOP + 61)))


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


def _emitted(w, beta: float) -> np.ndarray:
    """w (n(w) + 1) = w / (1 - exp(-beta w)), elementwise for w >= 0.

    It tends to the temperature as w -> 0 where n(w) alone overflows, and
    is that limit where beta w underflows to 0.
    """
    em1 = np.expm1(-beta * w)
    zero = em1 == 0.0
    return np.where(zero, 1.0 / beta, w / np.where(zero, -1.0, -em1))


def rate_a(nu, spec: BathSpec):
    """Half-Fourier golden-rule rate at transition frequency nu.

    nu > 0 (system loses energy to the bath): pi (n(nu) + 1) j(nu).
    nu < 0 (system absorbs energy):           pi n(|nu|) j(|nu|).
    nu = 0: zero, since j(w)/w -> 0 for the cubic density.

    Evaluated as pi j(s)/s * s (n(s) + 1), s = |nu|, times exp(-beta s) for
    nu < 0, so that nothing overflows as nu -> 0, with j(s)/s from
    _density, which is 0, not NaN, where s^2 would overflow.  Accepts
    scalars or arrays.  Rates at opposite frequencies obey detailed
    balance, rate_a(nu) / rate_a(-nu) = exp(beta nu).
    """
    nu = np.asarray(nu, dtype=float)
    s = np.abs(nu)
    # beta s and s / (2 omega_c) overflow only as exponents: exp gives 0,
    # expm1 -1
    with np.errstate(over="ignore"):
        emitted = _emitted(s, spec.beta)
        absorbed = np.where(nu > 0.0, 1.0, np.exp(-spec.beta * s))
        out = math.pi * spec.alpha * _density(s, spec.omega_c) * emitted * absorbed
    return out.item() if out.ndim == 0 else out


def _density(w, omega_c: float) -> np.ndarray:
    """j(w) / (alpha w) = 2 (w / omega_c)^2 exp(-w / omega_c), elementwise for w >= 0.

    Formed as 2 x x with x = w exp(-w / (2 omega_c)) / omega_c, which is at
    most 2 / e: where w^2 would overflow, x is 0, not inf times 0.
    """
    x = w * np.exp(-0.5 / omega_c * w) / omega_c
    return 2.0 * x * x


def _longest_first(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order putting the largest counts first, and how many counts are >= m, for m = 0 .. max.

    A loop from the largest count down then works on a leading slice of the
    ordered elements, which each element joins at its own count.
    """
    order = np.argsort(-counts, kind="stable")
    ranked = -counts[order]
    top = -ranked[0] if ranked.size else 0
    return order, np.searchsorted(ranked, -np.arange(top + 1), side="right")


def _horner(x: np.ndarray, degrees: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """sum_{m = 0 .. degree} coefficients[m] x^m, by Horner's rule from each element's own degree."""
    order, joined = _longest_first(degrees)
    xs = x[order]
    p = np.zeros_like(xs)
    for m in range(joined.size - 1, -1, -1):
        n = joined[m]
        p[:n] *= xs[:n]
        p[:n] += coefficients[m]
    out = np.empty_like(x)
    out[order] = p
    return out


def _e1_fraction(y: np.ndarray) -> np.ndarray:
    """e^y E1(y) = 1/(y + 1 - 1/(y + 3 - 4/(y + 5 - ...))) for y > 2, from each element's depth 100/y + 7."""
    order, joined = _longest_first((100.0 / y).astype(np.int16) + 7)
    ys = y[order]
    t = np.zeros_like(ys)
    for j in range(joined.size - 1, 0, -1):
        tn = t[:joined[j]]
        np.subtract(ys[:tn.size] + (2 * j + 1), tn, out=tn)
        np.divide(j * j, tn, out=tn)
    out = np.empty_like(y)
    out[order] = 1.0 / (ys + 1.0 - t)
    return out


def _h_seed(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """x h_0(x) = -x e^-x Ei(x) where |x| < 40, and h_12(x) where |x| >= 40 (_h).

    u = 1/x is passed in as well: it stays finite where x overflows.  Each
    series runs to its own element's degree: Ei's to 1.6|x| + 6 sqrt|x| + 12,
    which leaves a remainder below eps/4, h_12's to its smallest term, at
    most the 60th, which is below eps/4 from |x| = 73 on.  x h_0 is its
    limit 0 at x = 0, and NaN stays NaN.
    """
    far = np.abs(u) <= 1.0 / _ASYMPTOTIC
    out = np.where(x == 0.0, 0.0, np.nan)
    uf = u[far]
    degrees = (1.0 / np.maximum(np.abs(uf), 1.0 / 73.0)).astype(np.int16) - _TOP - 1
    out[far] = -math.factorial(_TOP) * uf * _horner(uf, degrees, _ASYMPTOTIC_COEFFICIENTS)
    series = ~far & (x >= _FRACTION_BELOW) & (x != 0.0)
    xs = x[series]
    a = np.abs(xs)
    ei = xs * _horner(xs, (1.6 * a + 6.0 * np.sqrt(a)).astype(np.int16) + 11, _EI_COEFFICIENTS)
    out[series] = -xs * np.exp(-xs) * (_EULER_GAMMA + np.log(a) + ei)
    fraction = ~far & (x < _FRACTION_BELOW)
    y = -x[fraction]
    out[fraction] = -y * _e1_fraction(y)
    return out


def _h(x: np.ndarray, u: np.ndarray, seed: np.ndarray, order: int) -> np.ndarray:
    """h_n(x) = PV integral over t > 0 of t^n e^-t / (t - x) for n = 1 .. order <= 12, row n - 1.

    u = 1/x and seed = _h_seed(x, u).  With h_0(x) = -e^-x Ei(x),
    h_n = x h_(n-1) + (n-1)!, so h_n(0) = (n-1)! exactly.  The recurrence
    runs upwards from x h_0 where |x| < 40 and downwards from h_12 where
    |x| >= 40, the direction in which it is stable.  Every loop stops per
    element, so each result depends on its own x only.
    """
    out = np.empty((order,) + x.shape)
    # upwards on every element: where |x| >= 40 this may overflow, and is
    # overwritten below
    with np.errstate(over="ignore", invalid="ignore"):
        out[0] = seed + 1.0
        for n in range(2, order + 1):
            np.multiply(x, out[n - 2], out=out[n - 1])
            out[n - 1] += math.factorial(n - 1)
    far = np.abs(u) <= 1.0 / _ASYMPTOTIC
    u = u[far]
    h = [seed[far]]
    for n in range(_TOP - 1, 0, -1):
        h.append((h[-1] - math.factorial(n)) * u)
    out[:, far] = h[::-1][:order]
    return out


def _shift_pair(s: np.ndarray, spec: BathSpec, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """shift_b / alpha at nu = s and at nu = -s, s >= 0, from terms exact Matsubara terms."""
    omega_c, temperature = spec.omega_c, spec.temperature
    # b_k omega_c = 1 + k beta omega_c; past 1e300 the terms k >= 1 vanish anyway
    beta = min(omega_c / temperature, 1e300)
    scale = 1.0 + beta * np.arange(terms + 1)
    with np.errstate(over="ignore", divide="ignore"):
        x = np.multiply.outer(scale, s / omega_c)
        u = np.multiply.outer(1.0 / scale, omega_c / s)
    # b_k nu at nu = s and -s: columns k < K hold the exact terms, K the tail
    x, u = np.stack([x, -x]), np.stack([u, -u])
    seed = _h_seed(x, u)
    exact = _h(x[:, :-1], u[:, :-1], seed[:, :-1], 3)[2]
    edge = _h(x[:, -1], u[:, -1], seed[:, -1], _TOP)
    # d[n - 1] = h_n(b_K s) - h_n(-b_K s), so D_n = omega_c^n d_n / (b_K omega_c)^n;
    # d_2 = x (h_1(x) + h_1(-x)) at small x avoids the cancellation of h_2(+-x) ~ 1
    d = edge[:, 0] - edge[:, 1]
    small = np.abs(x[0, -1]) < 1.0
    d[1, small] = x[0, -1, small] * (edge[0, 0, small] + edge[0, 1, small])
    r = 1.0 / (temperature / omega_c + terms)  # beta / b_K
    cube = (1.0 / scale) ** 3
    tail = (d[2] / 2.0 + r * d[3] / 12.0 - r**3 * d[5] / 720.0 + r**5 * d[7] / 30240.0
            - r**7 * d[9] / 1209600.0 + r**9 * d[11] / 47900160.0) * cube[-1]
    # the terms k = K-1 .. 1 added to it one at a time, smallest first
    odd = np.concatenate([tail[None], ((exact[0] - exact[1]) * cube[:-1, None])[:0:-1]])
    odd = np.add.accumulate(odd)[-1]
    # the tail's leading term D_2 / beta, formed as T d_2 / (b_K omega_c)^2
    odd = 2.0 * omega_c * odd + temperature * (2.0 * d[1] * (1.0 / scale[-1]) ** 2)
    return 2.0 * omega_c * exact[0, 0] + odd, 2.0 * omega_c * exact[1, 0] - odd


def shift_b(nu, spec: BathSpec, tol: float = SHIFT_TOL):
    """Principal-value frequency shift at transition frequency nu.

    The principal value of the integral over w > 0 of
    j(w) (w + coth(beta w / 2) nu) / (w^2 - nu^2) in closed form.  The
    expansion coth(beta w / 2) = 1 + 2 sum_{k>=1} exp(-k beta w) of
    tcl.correlation_grid gives, with b_k = 1/omega_c + k beta,

        b(nu) = 2 alpha / omega_c^2 [sum_{k>=0} G_3(b_k, nu) - sum_{k>=1} G_3(b_k, -nu)],
        G_n(b, nu) = PV integral over w > 0 of w^n exp(-b w) / (w - nu) = h_n(b nu) / b^n

    (_h).  The terms k < K are summed exactly, the rest as the
    Euler-Maclaurin tail D_2/beta + D_3/2 + sum_{m=1..5} B_2m/(2m)! beta^(2m-1) D_(2m+2),
    B_2m the Bernoulli numbers and D_n = G_n(b_K, nu) - G_n(b_K, -nu).
    Where b_K |nu| >> 10, D_n falls as -2 n! / (b_K^(n+1) nu) and the first
    omitted term, B_12/12! beta^11 D_14, is 23.04 (beta / b_K)^12 of the
    leading one: K is the least count, at most 32, that brings this bound
    to tol or below, 10 at T = 3 omega_c and at most 13 at the default tol.
    h_n(0) = (n-1)! gives b(0) = 4 alpha omega_c exactly; far above the
    bath the shift falls as -integral of j(w) coth(beta w / 2) / nu, finite
    and without warning up to the largest double.  The coupling alpha
    enters exactly linearly.  Accepts scalars or arrays of nu; one
    evaluation per distinct |nu| serves both signs, and each result equals
    its scalar call.  Raises ValueError when tol is negative or NaN.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    terms = 1
    hot = spec.temperature / spec.omega_c
    while terms < _SERIES_TERMS and 23.04 * (1.0 / (hot + terms)) ** 12 > tol:
        terms += 1
    nu = np.asarray(nu, dtype=float)
    flat = nu.ravel()
    s, which = np.unique(np.abs(flat), return_inverse=True)
    plus, minus = _shift_pair(s, spec, terms)
    out = spec.alpha * np.where(flat < 0.0, minus[which], plus[which]).reshape(nu.shape)
    return out.item() if out.ndim == 0 else out


def rate_table(eig: EigenSystem, spec: BathSpec, shifts: bool = True) -> np.ndarray:
    """Half-Fourier coefficients Gamma of every coupled ordered eigenstate pair.

    With nu[i, j] the transition frequency between eigenstates i and j,
    Gamma[..., i, j] = rate_a(nu[j, i]) - i shift_b(nu[j, i]) where the bath
    couples the pair (eig.elements[j, i] != 0), and zero elsewhere: the
    infinite-time limit of TclPropagator.coefficients, in its convention
    (Breuer & Petruccione, The Theory of Open Quantum Systems (2002),
    sec. 3.3).  Broadcasts over leading axes of eig: the coupled transitions
    of every point are evaluated together.  Uncoupled pairs stay zero
    unevaluated, so they cannot fail the table.  Shifts are shift_b's at
    its default tol, or zero, not evaluated, where shifts is false.
    """
    coupled = eig.elements != 0
    nu = eig.nu[coupled]
    gamma = np.zeros(eig.nu.shape, dtype=complex)
    gamma[coupled] = rate_a(nu, spec) - 1j * shift_b(nu, spec) if shifts else rate_a(nu, spec)
    return gamma.swapaxes(-1, -2)
