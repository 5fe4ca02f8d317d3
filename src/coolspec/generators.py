"""Master-equation generators as superoperators on vectorized states.

Vectorization is column-stacking (vec(rho) stacks columns), so the map
rho -> A rho B has matrix kron(B.T, A); only sandwich_superoperator forms
such matrices.  A Hermitian state also has nine real coordinates
(TO_REAL, inverted exactly by FROM_REAL; to_real and from_real map states
and generators), in which a Hermiticity-preserving generator, any of them
at u = 0, is a real 9x9 matrix; every u = 0 trajectory, exact or TCL, is
computed and checked in them, and steady states are found in their
orthonormal form (FROM_REAL's columns scaled to unit norm, a unitary
map).  All generators can be annotated with a counting field u that tags
phonon exchange with the bath; the u-derivative at zero is kept alongside
as a heat kernel, so a single construction serves propagation, steady
states, and both heat routes.  Every phonon generator is one Redfield dissipator (redfield),
written with two 3x3 operators: the coupling operator O and its
bath-weighted counterpart Lambda, built from one complex coefficient
Gamma per transition.  Bloch-Redfield and secular read
bath.rate_table's Gamma = a - i b and differ only in the part they take
(all of it for Bloch-Redfield, the rates Re Gamma for secular) and in the
secular mask, which secular applies in the dressed eigenbasis; the
phenomenological method is two golden-rule jumps between the bare ground
levels (_two_jumps).  total_liouvillian assembles all three, each on top
of the same static_part (coherent evolution plus radiative decay, one
effective non-Hermitian Hamiltonian and one jump).
The tcl generator uses running coefficients Gamma(t), in the same
convention, and the same static_part.  Every piece broadcasts over
the leading axes of a stacked SystemSpec, so a chunk of sweep points is
assembled in one pass of array operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import BathSpec, rate_a, rate_table
from .system import IDX_E, IDX_GL, IDX_GU, EigenSystem, SystemSpec, build_hamiltonian, eigensystem

DIM = 3

METHODS = ("bloch_redfield", "secular", "phenomenological")

# the methods whose generators read the eigensystem and rate table of their spec (spectrum)
SPECTRAL_METHODS = frozenset({"bloch_redfield", "secular"})


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


def to_real(a: np.ndarray) -> np.ndarray:
    """Real Hermitian coordinates of states (..., 3, 3) or of generator matrices (..., 9, 9).

    A state goes to the nine coordinates, shape (..., 9), of its Hermitian
    part h = (a + a^H) / 2, Re(TO_REAL @ vec(a)) to rounding: each entry
    that eigvalsh reads, the diagonal and the lower triangle
    h[b, a] = (a[b, a] + conj a[a, b]) / 2, is formed as 0.5 (a + a^H)
    forms it, and from_real rebuilds them bitwise (Im rho[a, b] being
    -Im h[b, a]).  A generator's matrix M goes to the real 9x9 matrix
    Re(TO_REAL @ M @ FROM_REAL), which drops only roundoff when M preserves
    Hermiticity.  Broadcasts over leading axes.
    """
    a = np.asarray(a)
    if a.shape[-1] == DIM * DIM:
        return (TO_REAL @ a @ FROM_REAL).real
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

    matrix drives d/dt vec(rho) = matrix @ vec(rho).  heat_kernel is
    d(matrix)/du at u = 0 and is independent of the u the matrix itself was
    built at; tracing it against a state gives the instantaneous phonon
    heat current.  Radiative decay is never annotated, so photon emission
    does not enter the counted heat.  For a stack of points both arrays
    carry its leading axes.
    """

    matrix: np.ndarray
    u: float = 0.0
    heat_kernel: np.ndarray | None = None


def _dag(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def redfield(eig: EigenSystem, basis: np.ndarray, gamma: np.ndarray,
             u: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Redfield dissipator and heat kernel for half-Fourier coefficients gamma.

    basis holds the eigenvectors as columns in the frame the result is
    written in: eig.basis gives the working basis, the identity the
    eigenbasis.  With V = basis and E = eig.elements, the coupling operator
    is O = V E V^dag and Lambda_u = V (gamma * E * exp(i u nu.T)) V^dag,
    i.e. sum_ij gamma[i, j] exp(i u nu[j, i]) <i|O|j> |i><j|.  The
    dissipator is
    rho -> Lambda_u rho O + O rho Lambda_{-u}^dag - O Lambda_0 rho - rho Lambda_0^dag O,
    the sandwich terms carrying the counting phase of the bath quantum they
    exchange.  The heat kernel is its u-derivative at u = 0,
    rho -> Lambda' rho O - O rho Lambda'^dag with Lambda' = d Lambda_u / du
    at 0.  Returns (matrix, heat_kernel), both 9x9, broadcast over leading
    axes of gamma, eig and basis.
    """
    weights = gamma * eig.elements
    nu_t = eig.nu.swapaxes(-1, -2)
    phases = np.stack(np.broadcast_arrays(np.exp(1j * u * nu_t), np.exp(-1j * u * nu_t),
                                          np.ones((DIM, DIM)), 1j * nu_t), axis=-3)
    # Lambda_u, Lambda_{-u}, Lambda_0 and Lambda', stacked on axis -3
    frame = basis[..., None, :, :]
    lam = frame @ (weights[..., None, :, :] * phases) @ _dag(frame)
    lam_u, lam_minus_u, lam_0, lam_prime = np.moveaxis(lam, -3, 0)
    o = basis @ eig.elements @ _dag(basis)
    eye = np.eye(DIM)
    left = (lam_u, o, -o @ lam_0, eye, lam_prime, -o)
    right = (o, _dag(lam_minus_u), eye, -_dag(lam_0) @ o, o, _dag(lam_prime))
    left, right = (np.stack(np.broadcast_arrays(*side), axis=-3) for side in (left, right))
    return (sandwich_superoperator(left[..., :4, :, :], right[..., :4, :, :]),
            sandwich_superoperator(left[..., 4:, :, :], right[..., 4:, :, :]))


def _secular_dissipator(eig: EigenSystem, gamma: np.ndarray, e_man: float,
                        pairing_tol: float | None, u: float) -> tuple[np.ndarray, np.ndarray]:
    """Rotating-wave dissipator and heat kernel: the masked Redfield one.

    The shift-free Redfield dissipator (coefficients Re gamma, the rates
    of rate_table's gamma) is built in the eigenbasis, masked there and
    brought to the working basis by one change of basis.  In the
    eigenbasis, the element that feeds rho[c, d] into
    rho[a, b] oscillates at nu[a, b] - nu[c, d] in the interaction picture;
    it is kept when that frequency is within pairing_tol (None means
    1e-10 * e_man, so only exact coincidences survive) and dropped
    otherwise, in the matrix and the heat kernel alike.  For a
    nondegenerate spectrum this reduces to a sum of Lindblad dissipators
    with jump operators <j|O|i> |j><i| and rates 2 Re gamma[j, i].  No
    principal-value terms are included, matching the common presentation
    of this approximation.
    """
    if pairing_tol is None:
        pairing_tol = 1e-10 * e_man
    nu_vec = vectorize(eig.nu).real
    # a difference that overflows is far from any tie: it rounds to inf and is dropped
    with np.errstate(over="ignore"):
        keep = np.abs(nu_vec[..., :, None] - nu_vec[..., None, :]) <= pairing_tol
    in_eig = keep[..., None, :, :] * np.stack(
        redfield(eig, np.eye(DIM), gamma.real, u), axis=-3)
    # columns of to_work are the vectorized eigenbasis operators |a><b|
    to_work = sandwich_superoperator(eig.basis[..., None, :, :],
                                     _dag(eig.basis)[..., None, :, :])[..., None, :, :]
    out = to_work @ in_eig @ _dag(to_work)
    return out[..., 0, :, :], out[..., 1, :, :]


def _two_jumps(e_man: float, bath: BathSpec, u: float) -> tuple[np.ndarray, np.ndarray]:
    """Phenomenological dissipator and heat kernel (total_liouvillian), each 9x9.

    The jumps J_k, |g_u><g_l| and |g_l><g_u|, run at gamma_k = 2 rate_a(g_k),
    g_k = -e_man and e_man being what each gives the bath: the dissipator is
    rho -> sum_k gamma_k exp(i u g_k) J_k rho J_k^dag + A rho + rho A^dag
    with A = -(1/2) sum_k gamma_k J_k^dag J_k, the heat kernel
    rho -> sum_k i g_k gamma_k J_k rho J_k^dag; one sandwich_superoperator
    call builds both.
    """
    gains = np.array([-e_man, e_man])
    rates = 2.0 * rate_a(gains, bath)
    jumps = np.zeros((2, DIM, DIM))
    jumps[0, IDX_GU, IDX_GL] = jumps[1, IDX_GL, IDX_GU] = 1.0
    a = -0.5 * np.tensordot(rates, _dag(jumps) @ jumps, 1)
    eye = np.eye(DIM)
    # terms (gamma_k exp(i u g_k) J_k, A, 1) for the matrix, (i g_k gamma_k J_k, 0, 0)
    # for the kernel, both against (J_k^dag, 1, A^dag)
    weights = np.stack([rates * np.exp(1j * u * gains), 1j * gains * rates])
    left = np.zeros((2, 4, DIM, DIM), dtype=complex)
    left[:, :2] = weights[..., None, None] * jumps
    left[0, 2:] = a, eye
    matrix, kernel = sandwich_superoperator(left, np.concatenate([_dag(jumps), [eye, _dag(a)]]))
    return matrix, kernel


def spectrum(spec: SystemSpec, bath: BathSpec,
             shifts: bool = True) -> tuple[EigenSystem, np.ndarray]:
    """Eigensystem and rate table (Gamma) of spec, broadcast over its points; shifts as rate_table."""
    eig = eigensystem(spec)
    return eig, rate_table(eig, bath, shifts)


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
                      include_shifts: bool = True, pairing_tol: float | None = None,
                      shared: tuple[EigenSystem, np.ndarray] | None = None) -> Liouvillian:
    """Markovian generator of one method: static_part plus a phonon dissipator.

    bloch_redfield: the full weak-coupling generator, no rotating-wave
    approximation.  Its Redfield dissipator reads rate_table's coefficients
    Gamma[i, j] = a - i b (rate and principal-value shift of the transition
    nu[j, i]) as they are, or their rates Re Gamma alone when
    include_shifts is false; at u = 0 it preserves trace and hermiticity.
    secular: the shift-free dissipator masked to the rotating-wave pairs
    (_secular_dissipator, pairing_tol).
    phenomenological: two golden-rule jumps between the bare ground
    levels, blind to the drive (_two_jumps), one 9x9 pair for every point;
    absorption |g_l> -> |g_u> at gamma_up = 2 rate_a(-e_man) tags a bath
    loss of e_man (phase exp(-i u e_man)), emission at
    gamma_down = 2 rate_a(e_man) a gain.
    include_shifts is read by bloch_redfield only, pairing_tol by secular
    only.  Only the sandwich terms (state between coupling operators)
    exchange a bath quantum and carry the counting phase; the one-sided
    products and the radiative decay do not.

    Broadcasts over a stacked spec.  bloch_redfield and secular read the
    eigensystem and rate table of spec (spectrum), phenomenological
    neither; shared, when given, is read in their place, so that the
    generators of several methods and counting fields of one spec compute
    them once.
    """
    if method in SPECTRAL_METHODS:
        eig, gamma = spectrum(spec, bath) if shared is None else shared
    if method == "bloch_redfield":
        matrix, kernel = redfield(eig, eig.basis, gamma if include_shifts else gamma.real, u)
    elif method == "secular":
        matrix, kernel = _secular_dissipator(eig, gamma, spec.e_man, pairing_tol, u)
    elif method == "phenomenological":
        matrix, kernel = _two_jumps(spec.e_man, bath, u)
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return Liouvillian(matrix=static_part(spec) + matrix, u=u, heat_kernel=kernel)
