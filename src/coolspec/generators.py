"""Master-equation generators as superoperators on vectorized states.

Vectorization is column-stacking (vec(rho) stacks columns), so the map
rho -> A rho B has matrix kron(B.T, A); only sandwich_superoperator forms
such matrices.  A Hermitian state also has nine real coordinates
(TO_REAL, inverted exactly by FROM_REAL; to_real and from_real map states
and generators), in which a Hermiticity-preserving generator, any of them
at u = 0, is a real 9x9 matrix; every u = 0 trajectory, exact or TCL, and
every steady state is computed and checked in them, each generator
entering them through to_real's one real map (steady states read it
rescaled to their orthonormal form, FROM_REAL's columns scaled to unit
norm).  All generators can be annotated with a counting field u that tags
phonon exchange with the bath; the trace of the u-derivative at zero is
kept alongside as the 3x3 heat operator Y (the heat current is
Re Tr(Y rho)), so a single construction serves propagation, steady
states, and both heat routes.  Every phonon generator is one Redfield
dissipator of the coupling operator O and its bath-weighted counterpart
Lambda, 3x3 operators built from one complex coefficient Gamma per
transition (bath.rate_table's Gamma = a - i b): redfield writes it in
the working basis, for Bloch-Redfield, and _secular_dissipator, of the
rates Re Gamma, in the dressed eigenbasis, where it masks the matrix and
Y before one change of basis; the phenomenological method is two
golden-rule jumps between the bare ground levels (_two_jumps).
total_liouvillian assembles all three on top of static_part (coherent
evolution plus radiative decay) from one value of what they share
(spectrum); the tcl generator is redfield of running coefficients
Gamma(t) plus static_part.  Every piece broadcasts over the leading axes
of a stacked SystemSpec, so a chunk of sweep points is assembled in one
pass of array operations.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .bath import BathSpec, rate_a, rate_table
from .system import IDX_E, IDX_GL, IDX_GU, EigenSystem, SystemSpec, build_hamiltonian, check_finite, eigensystem

DIM = 3

METHODS = ("bloch_redfield", "secular", "phenomenological")


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stacked vec(rho), index a + 3 b, broadcast over leading axes."""
    rho = np.asarray(rho, dtype=complex)
    return rho.swapaxes(-1, -2).reshape(rho.shape[:-2] + (DIM * DIM,))


def unvectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of vectorize, broadcast over leading axes of v."""
    v = np.asarray(v)
    return v.reshape(v.shape[:-1] + (DIM, DIM)).swapaxes(-1, -2)


def sandwich_superoperator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of rho -> sum_t a[t] rho b[t], broadcast over leading axes of a and b.

    a and b stack the terms on axis -3, shape (..., T, 3, 3); a single
    term is a stack of one.  With vec index a + 3 b, element
    [(a, b), (c, d)] is sum_t a[t, a, c] b[t, d, b]: the entries of
    sum_t kron(b[t].T, a[t]).  The sum over t is one broadcasting matmul
    of a as (..., 9 = (a, c), T) with b as (..., T, 9 = (d, b)), whose
    entries are then permuted into that order; each point of a stack is
    computed as its one-point call is.
    """
    a, b = np.asarray(a), np.asarray(b)
    # m[..., (a, c), (d, b)] = sum_t a[t, a, c] b[t, d, b]
    m = (np.moveaxis(a, -3, -1).reshape(a.shape[:-3] + (DIM * DIM, -1))
         @ b.reshape(b.shape[:-2] + (DIM * DIM,)))
    lead = m.shape[:-2]
    out = m.reshape(lead + (DIM,) * 4).transpose(*range(len(lead)), -1, -4, -2, -3)
    return out.reshape(lead + (DIM * DIM, DIM * DIM))


TRACE_VECTOR = vectorize(np.eye(DIM))

# Real coordinates of a Hermitian state: rho_aa, then Re rho_ab and Im rho_ab
# for a < b.  TO_REAL @ vec(rho) gives them (entries 1, 1/2 and +-i/2) and
# FROM_REAL is its exact inverse (entries 1 and +-i), so a Hermitian rho
# round-trips bitwise; a Hermiticity-preserving generator M is the real
# matrix TO_REAL @ M @ FROM_REAL in these coordinates
TO_REAL = np.zeros((DIM * DIM, DIM * DIM), dtype=complex)
FROM_REAL = np.zeros((DIM * DIM, DIM * DIM), dtype=complex)
# rows a and columns b of the pairs a < b, in coordinate order
_PAIRS = (np.array([0, 0, 1]), np.array([1, 2, 2]))
for _a in range(DIM):
    TO_REAL[_a, _a * (DIM + 1)] = FROM_REAL[_a * (DIM + 1), _a] = 1.0
for _k, (_a, _b) in enumerate(zip(*_PAIRS)):
    _re, _im, _ab, _ba = DIM + 2 * _k, DIM + 2 * _k + 1, _a + DIM * _b, _b + DIM * _a
    TO_REAL[_re, [_ab, _ba]] = 0.5
    TO_REAL[_im, [_ab, _ba]] = -0.5j, 0.5j
    FROM_REAL[[_ab, _ba], _re] = 1.0
    FROM_REAL[[_ab, _ba], _im] = 1j, -1j
del _a, _b, _k, _re, _im, _ab, _ba
# to_real's map of a generator M, (162, 81): M's entries as interleaved
# (Re, Im) pairs, a (..., 162) view, times it are Re(TO_REAL @ M @ FROM_REAL)
# flattened; the rows of Re and Im M[k, l] hold Re and -Im of
# TO_REAL[i, k] FROM_REAL[l, j] in column (i, j)
_PRODUCTS = TO_REAL.T[:, None, :, None] * FROM_REAL[None, :, None, :]
_REAL_MAP = np.stack([_PRODUCTS.real, -_PRODUCTS.imag], axis=2).reshape(162, 81)


def to_real(a: np.ndarray) -> np.ndarray:
    """Real Hermitian coordinates of states (..., 3, 3) or of generator matrices (..., 9, 9).

    A state goes to the nine coordinates, shape (..., 9), of its Hermitian
    part h = (a + a^H) / 2, Re(TO_REAL @ vec(a)) to rounding: each entry
    that eigvalsh reads, the diagonal and the lower triangle
    h[b, a] = (a[b, a] + conj a[a, b]) / 2, is formed as 0.5 (a + a^H)
    forms it, and from_real rebuilds them bitwise (Im rho[a, b] being
    -Im h[b, a]).  A generator's matrix M goes to the real 9x9 matrix
    Re(TO_REAL @ M @ FROM_REAL), which drops only roundoff when M preserves
    Hermiticity: one real matmul of M's interleaved real and imaginary
    parts by the constant _REAL_MAP, whose entries are 0, +-1/2 and +-1, so
    each entry is a sum of at most four exact products, rounded.  Every
    u = 0 generator enters real coordinates here, steady_state's included.
    Broadcasts over leading axes.
    """
    a = np.asarray(a)
    if a.shape[-1] == DIM * DIM:
        return (np.ascontiguousarray(a, complex).view(float).reshape(-1, 162) @ _REAL_MAP).reshape(a.shape)
    rows, columns = _PAIRS
    diagonal = np.arange(DIM)
    h_diagonal = 0.5 * (a[..., diagonal, diagonal] + np.conj(a[..., diagonal, diagonal]))
    h_lower = 0.5 * (a[..., columns, rows] + np.conj(a[..., rows, columns]))
    pairs = np.stack([h_lower.real, -h_lower.imag], axis=-1)
    return np.concatenate([h_diagonal.real, pairs.reshape(pairs.shape[:-2] + (-1,))], axis=-1)


def from_real(coords: np.ndarray) -> np.ndarray:
    """Hermitian 3x3 states of real coordinates (..., 9), inverting to_real.

    Each entry is set from its own coordinates, so an infinite or NaN
    coordinate spreads into no other entry.
    """
    coords = np.asarray(coords)
    rows, columns = _PAIRS
    diagonal = np.arange(DIM)
    rho = np.zeros(coords.shape[:-1] + (DIM, DIM), dtype=complex)
    rho.real[..., diagonal, diagonal] = coords[..., :DIM]
    rho.real[..., rows, columns] = rho.real[..., columns, rows] = coords[..., DIM::2]
    rho.imag[..., rows, columns] = coords[..., DIM + 1::2]
    rho.imag[..., columns, rows] = -coords[..., DIM + 1::2]
    return rho


@dataclass(frozen=True)
class Liouvillian:
    """A generator in vectorized form, optionally counting-field annotated.

    matrix drives d/dt vec(rho) = matrix @ vec(rho).  heat_operator is the
    Hermitian 3x3 heat-current observable Y, Tr K(rho) = i Tr(Y rho) for
    K = d(matrix)/du at u = 0 and every rho, independent of the u the
    matrix was built at; Re Tr(Y rho) is the phonon heat current
    (dynamics.heat_current_trace).  Radiative decay is never annotated, so
    photon emission does not enter the counted heat.  For a stack of
    points the matrix carries its leading axes, and so does Y where it
    depends on the point.
    """

    matrix: np.ndarray
    u: float = 0.0
    heat_operator: np.ndarray | None = None


def _dag(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _conjugated(v: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """v x_k v^dag for x_k = ops[..., :, k, :] side by side, in two matmuls per point whatever K."""
    wide = v @ ops.reshape(ops.shape[:-3] + (ops.shape[-3], -1))
    tall = wide.reshape(wide.shape[:-2] + (-1, ops.shape[-1])) @ _dag(v)
    return tall.reshape(tall.shape[:-2] + ops.shape[-3:])


def _redfield_terms(eig: EigenSystem, gamma: np.ndarray, u: float) -> np.ndarray:
    """redfield's Lambda_u, Lambda_{-u}, Lambda_0, Lambda' and O in the eigenbasis, side by side."""
    weights = gamma * eig.elements
    nu_t = eig.nu.swapaxes(-1, -2)
    return np.stack(np.broadcast_arrays(weights * np.exp(1j * u * nu_t),
                                        weights * np.exp(-1j * u * nu_t), weights,
                                        weights * (1j * nu_t), eig.elements), axis=-2)


def _redfield_maps(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """redfield's dissipator and heat operator from _redfield_terms written in any one basis."""
    lam_u, lam_minus_u, lam_0, lam_prime, o = np.moveaxis(terms, -2, 0)
    eye = np.eye(DIM)
    left = np.stack(np.broadcast_arrays(lam_u, o, -o @ lam_0, eye), axis=-3)
    right = np.stack(np.broadcast_arrays(o, _dag(lam_minus_u), eye, -_dag(lam_0) @ o), axis=-3)
    return sandwich_superoperator(left, right), -1j * (o @ lam_prime - _dag(lam_prime) @ o)


def redfield(eig: EigenSystem, gamma: np.ndarray, u: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Redfield dissipator and heat operator, in the working basis, of half-Fourier coefficients gamma.

    With V = eig.basis and E = eig.elements, the coupling operator is
    O = V E V^dag and Lambda_u = V (gamma * E * exp(i u nu.T)) V^dag,
    i.e. sum_ij gamma[i, j] exp(i u nu[j, i]) <i|O|j> |i><j|.  The
    dissipator is
    rho -> Lambda_u rho O + O rho Lambda_{-u}^dag - O Lambda_0 rho - rho Lambda_0^dag O,
    the sandwich terms carrying the counting phase of the bath quantum they
    exchange.  Its u-derivative at u = 0,
    rho -> Lambda' rho O - O rho Lambda'^dag with Lambda' = d Lambda_u / du
    at 0, has the trace Tr(X rho), X = O Lambda' - Lambda'^dag O, and the
    heat operator is Y = -i X, Hermitian.  Returns (matrix, Y), 9x9 and
    3x3, broadcast over leading axes of gamma and eig.
    """
    return _redfield_maps(_conjugated(eig.basis, _redfield_terms(eig, gamma, u)))


def _secular_dissipator(eig: EigenSystem, gamma: np.ndarray, e_man: float,
                        pairing_tol: float | None, u: float) -> tuple[np.ndarray, np.ndarray]:
    """Rotating-wave dissipator and heat operator: the masked Redfield ones.

    The shift-free Redfield dissipator (coefficients Re gamma, the rates
    of rate_table's gamma) and its heat operator are built in the
    eigenbasis from redfield's terms, masked there and brought to the
    working basis.  In the eigenbasis, the element that feeds rho[c, d]
    into rho[a, b] oscillates at nu[a, b] - nu[c, d] in the interaction
    picture; it is kept when that frequency is within pairing_tol (None
    means 1e-10 * e_man, so only exact coincidences survive) and dropped
    otherwise.  The trace reads only the rows a = b, at frequencies
    -nu[c, d], so Y keeps its eigenbasis entries [i, j] with |nu[i, j]|
    within pairing_tol.  For a nondegenerate spectrum Y is diagonal in the
    eigenbasis, and the dissipator a sum of Lindblad dissipators with jump
    operators <j|O|i> |j><i| and rates 2 Re gamma[j, i].  No
    principal-value terms are included, matching the common presentation
    of this approximation.
    """
    if pairing_tol is None:
        pairing_tol = 1e-10 * e_man  # not checked: 0 at e_man 5e-324
    else:
        check_finite("pairing_tol", pairing_tol, "positive")
    nu_vec = vectorize(eig.nu).real
    # a difference that overflows is far from any tie: it rounds to inf and is dropped
    with np.errstate(over="ignore"):
        keep = np.abs(nu_vec[..., :, None] - nu_vec[..., None, :]) <= pairing_tol
    matrix, heat = _redfield_maps(_redfield_terms(eig, gamma.real, u))
    # columns of to_work are the vectorized eigenbasis operators |a><b|
    to_work = sandwich_superoperator(eig.basis[..., None, :, :], _dag(eig.basis)[..., None, :, :])
    return (to_work @ (keep * matrix) @ _dag(to_work),
            eig.basis @ ((np.abs(eig.nu) <= pairing_tol) * heat) @ _dag(eig.basis))


def _two_jumps(e_man: float, bath: BathSpec, u: float) -> tuple[np.ndarray, np.ndarray]:
    """Phenomenological dissipator and heat operator (total_liouvillian), 9x9 and 3x3.

    The jumps J_k, |g_u><g_l| and |g_l><g_u|, run at gamma_k = 2 rate_a(g_k),
    g_k = -e_man and e_man being what each gives the bath: the dissipator is
    rho -> sum_k gamma_k exp(i u g_k) J_k rho J_k^dag + A rho + rho A^dag
    with A = -(1/2) sum_k gamma_k J_k^dag J_k, and the heat operator
    Y = sum_k g_k gamma_k J_k^dag J_k.
    """
    gains = np.array([-e_man, e_man])
    rates = 2.0 * rate_a(gains, bath)
    jumps = np.zeros((2, DIM, DIM))
    jumps[0, IDX_GU, IDX_GL] = jumps[1, IDX_GL, IDX_GU] = 1.0
    projections = _dag(jumps) @ jumps
    a = -0.5 * np.tensordot(rates, projections, 1)
    eye = np.eye(DIM)
    # terms (gamma_k exp(i u g_k) J_k, A, 1) against (J_k^dag, 1, A^dag)
    left = np.concatenate([(rates * np.exp(1j * u * gains))[:, None, None] * jumps, [a, eye]])
    matrix = sandwich_superoperator(left, np.concatenate([_dag(jumps), [eye, _dag(a)]]))
    return matrix, np.tensordot(gains * rates, projections, 1)


@dataclass(frozen=True)
class Spectrum:
    """spectrum's value: static_part, and the eigensystem and Gamma, or None where unread."""

    static: np.ndarray
    eig: EigenSystem | None = None
    gamma: np.ndarray | None = None

    def rows(self, k) -> Spectrum:
        """The value of the points k of the stack alone: those rows of every array."""
        eig = self.eig and EigenSystem(*(getattr(self.eig, f.name)[k] for f in fields(EigenSystem)))
        return Spectrum(self.static[k], eig, None if self.gamma is None else self.gamma[k])


def spectrum(spec: SystemSpec, bath: BathSpec, methods: tuple[str, ...] = METHODS,
             shifts: bool = True) -> Spectrum:
    """What the generators of methods on spec share (Spectrum), broadcast over its points.

    static_part always; the eigensystem and rate table Gamma only when
    methods holds bloch_redfield or secular, Gamma with shifts only when
    shifts is true and methods holds bloch_redfield (rate_table).
    """
    eig = eigensystem(spec) if {"bloch_redfield", "secular"}.intersection(methods) else None
    gamma = eig and rate_table(eig, bath, shifts and "bloch_redfield" in methods)
    return Spectrum(static_part(spec), eig, gamma)


def static_part(spec: SystemSpec) -> np.ndarray:
    """Non-phonon part of every generator: coherent evolution and radiative decay.

    With the jump J = |g_l><e| and the effective non-Hermitian Hamiltonian
    term A = -i H - (gamma_rad / 2) J^dag J, the map is
    rho -> A rho + rho A^dag + gamma_rad J rho J^dag, i.e. -i [H, rho] plus
    a Lindblad dissipator at gamma_rad (Dalibard, Castin & Molmer, PRL 68,
    580 (1992)).  Photon emission is not counted as phonon heat, so this
    part carries no counting annotation.  Broadcasts over a stacked spec.
    """
    jump = np.zeros((DIM, DIM), dtype=complex)
    jump[IDX_GL, IDX_E] = 1.0
    a = -1j * build_hamiltonian(spec) - 0.5 * spec.gamma_rad * (_dag(jump) @ jump)
    eye = np.eye(DIM)
    left = np.stack(np.broadcast_arrays(a, eye, spec.gamma_rad * jump), axis=-3)
    right = np.stack(np.broadcast_arrays(eye, _dag(a), _dag(jump)), axis=-3)
    return sandwich_superoperator(left, right)


def total_liouvillian(method: str, spec: SystemSpec, bath: BathSpec, u: float = 0.0,
                      pairing_tol: float | None = None,
                      shared: Spectrum | None = None) -> Liouvillian:
    """Markovian generator of one method: static_part plus a phonon dissipator.

    bloch_redfield: the full weak-coupling generator, no rotating-wave
    approximation.  Its Redfield dissipator reads shared's Gamma as given
    (rate_table's Gamma[i, j] = a - i b, rate and principal-value shift of
    the transition nu[j, i]); at u = 0 it preserves trace and hermiticity.
    secular: the shift-free dissipator of the rates Re Gamma, masked to the
    rotating-wave pairs (_secular_dissipator; pairing_tol is read by
    secular only).
    phenomenological: two golden-rule jumps between the bare ground
    levels, blind to the drive (_two_jumps), one pair for every point;
    absorption |g_l> -> |g_u> at gamma_up = 2 rate_a(-e_man) tags a bath
    loss of e_man (phase exp(-i u e_man)), emission at
    gamma_down = 2 rate_a(e_man) a gain.
    Only the sandwich terms (state between coupling operators)
    exchange a bath quantum and carry the counting phase; the one-sided
    products and the radiative decay do not.

    Broadcasts over a stacked spec.  shared is spectrum's value for spec, so
    that the generators of several methods and counting fields of one spec
    build it once (a ValueError if it lacks what method reads); without it
    each call builds what its own method reads, with shifts.  Bloch-Redfield
    without shifts is given shared=spectrum(spec, bath, shifts=False).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if shared is None:
        shared = spectrum(spec, bath, (method,))
    if shared.eig is None and method != "phenomenological":
        raise ValueError(f"shared has no eigensystem, which {method} reads; build it for {method!r}")
    if method == "bloch_redfield":
        matrix, heat = redfield(shared.eig, shared.gamma, u)
    elif method == "secular":
        matrix, heat = _secular_dissipator(shared.eig, shared.gamma, spec.e_man, pairing_tol, u)
    else:
        matrix, heat = _two_jumps(spec.e_man, bath, u)
    return Liouvillian(matrix=shared.static + matrix, u=u, heat_operator=heat)
