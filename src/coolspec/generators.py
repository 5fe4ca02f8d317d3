"""Master-equation generators as superoperators on vectorized states.

Vectorization is column-stacking (vec(rho) stacks columns), so the map
rho -> A rho B has matrix kron(B.T, A); only sandwich_superoperator forms
such matrices.  A Hermitian state also has nine real coordinates
(TO_REAL, inverted exactly by FROM_REAL), in which a Hermiticity-preserving
generator, any of them at u = 0, is a real 9x9 matrix; TCL propagation
steps in them, and steady states are found in their orthonormal form
(FROM_REAL's columns scaled to unit norm, a unitary map).  All generators
can be annotated with a counting field u that tags phonon exchange with
the bath; the u-derivative at zero is kept alongside as a heat kernel, so
a single construction serves propagation, steady states, and both heat
routes.  Every phonon generator is one Redfield dissipator (redfield),
written with two 3x3 operators: the coupling operator O and its
bath-weighted counterpart Lambda, built from one complex coefficient
Gamma per transition.  The Markovian methods read
bath.rate_table's Gamma = a - i b and differ only in the part they take
(all of it for Bloch-Redfield, the rates Re Gamma otherwise) and in the
secular mask, which secular and phenomenological apply in the eigenbasis
(dressed, or bare for phenomenological); total_liouvillian assembles all
three, each on top of the same static_part (coherent evolution plus
radiative decay, one effective non-Hermitian Hamiltonian and one jump).
The tcl generator uses running coefficients Gamma(t), in the same
convention, and the same static_part.  Every piece broadcasts over
the leading axes of a stacked SystemSpec, so a chunk of sweep points is
assembled in one pass of array operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bath import BathSpec, rate_table
from .system import IDX_E, IDX_GL, EigenSystem, SystemSpec, build_hamiltonian, eigensystem

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
    """Matrix of rho -> a rho b, broadcast over leading axes of a and b.

    With vec index a + 3 b, element [(a, b), (c, d)] is a[a, c] b[d, b]:
    the entries of kron(b.T, a), each formed by a single product.
    """
    out = np.einsum("...ac,...db->...badc", a, b)
    return out.reshape(out.shape[:-4] + (DIM * DIM, DIM * DIM))


TRACE_VECTOR = vectorize(np.eye(DIM))

# Real coordinates of a Hermitian state: rho_aa, then Re rho_ab and Im rho_ab
# for a < b.  TO_REAL @ vec(rho) gives them (entries 1, 1/2 and +-i/2) and
# FROM_REAL is its exact inverse (entries 1 and +-i), so a Hermitian rho
# round-trips bitwise; a Hermiticity-preserving generator M is the real
# matrix TO_REAL @ M @ FROM_REAL in these coordinates
TO_REAL = np.zeros((DIM * DIM, DIM * DIM), dtype=complex)
FROM_REAL = np.zeros((DIM * DIM, DIM * DIM), dtype=complex)
for _a in range(DIM):
    TO_REAL[_a, _a * (DIM + 1)] = FROM_REAL[_a * (DIM + 1), _a] = 1.0
for _k, (_a, _b) in enumerate([(0, 1), (0, 2), (1, 2)]):
    _re, _im, _ab, _ba = DIM + 2 * _k, DIM + 2 * _k + 1, _a + DIM * _b, _b + DIM * _a
    TO_REAL[_re, [_ab, _ba]] = 0.5
    TO_REAL[_im, [_ab, _ba]] = -0.5j, 0.5j
    FROM_REAL[[_ab, _ba], _re] = 1.0
    FROM_REAL[[_ab, _ba], _im] = 1j, -1j
del _a, _b, _k, _re, _im, _ab, _ba


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
    terms = sandwich_superoperator(np.stack(np.broadcast_arrays(*left), axis=-3),
                                   np.stack(np.broadcast_arrays(*right), axis=-3))
    return terms[..., :4, :, :].sum(axis=-3), terms[..., 4:, :, :].sum(axis=-3)


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
    keep = np.abs(nu_vec[..., :, None] - nu_vec[..., None, :]) <= pairing_tol
    in_eig = keep[..., None, :, :] * np.stack(
        redfield(eig, np.eye(DIM), gamma.real, u), axis=-3)
    # columns of to_work are the vectorized eigenbasis operators |a><b|
    to_work = sandwich_superoperator(eig.basis, _dag(eig.basis))[..., None, :, :]
    out = to_work @ in_eig @ _dag(to_work)
    return out[..., 0, :, :], out[..., 1, :, :]


def spectrum(spec: SystemSpec, bath: BathSpec) -> tuple[EigenSystem, np.ndarray]:
    """Eigensystem and rate table (Gamma) of spec, broadcast over stacked points."""
    eig = eigensystem(spec)
    return eig, rate_table(eig, bath)


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
    return sandwich_superoperator(left, right).sum(axis=-3)


def total_liouvillian(method: str, spec: SystemSpec, bath: BathSpec, u: float = 0.0,
                      include_shifts: bool = True, pairing_tol: float | None = None,
                      shared: Callable[[], tuple[EigenSystem, np.ndarray]] | None = None
                      ) -> Liouvillian:
    """Markovian generator of one method: static_part plus a phonon dissipator.

    bloch_redfield: the full weak-coupling generator, no rotating-wave
    approximation.  Its Redfield dissipator reads rate_table's coefficients
    Gamma[i, j] = a - i b (rate and principal-value shift of the transition
    nu[j, i]) as they are, or their rates Re Gamma alone when
    include_shifts is false; at u = 0 it preserves trace and hermiticity.
    secular: the shift-free dissipator masked to the rotating-wave pairs
    (_secular_dissipator, pairing_tol).
    phenomenological: golden-rule jumps between the bare levels, blind to
    the drive, i.e. the default secular dissipator of the undriven
    impurity, one 9x9 pair for every point; absorption |g_l> -> |g_u>
    at gamma_up = 2 rate_a(-e_man) tags a bath loss of e_man (phase
    exp(-i u e_man)), emission at gamma_down = 2 rate_a(e_man) a gain.
    include_shifts is read by bloch_redfield only, pairing_tol by secular
    only.  Only the sandwich terms (state between coupling operators)
    exchange a bath quantum and carry the counting phase; the one-sided
    products and the radiative decay do not.

    Broadcasts over a stacked spec.  bloch_redfield and secular read the
    eigensystem and rate table of spec (spectrum); shared, when given,
    returns them instead, so that the generators of several methods and
    counting fields of one spec compute them once.
    """
    if method in ("bloch_redfield", "secular"):
        eig, gamma = spectrum(spec, bath) if shared is None else shared()
    if method == "bloch_redfield":
        matrix, kernel = redfield(eig, eig.basis, gamma if include_shifts else gamma.real, u)
    elif method == "secular":
        matrix, kernel = _secular_dissipator(eig, gamma, spec.e_man, pairing_tol, u)
    elif method == "phenomenological":
        matrix, kernel = _secular_dissipator(*spectrum(SystemSpec(e_man=spec.e_man), bath),
                                             spec.e_man, None, u)
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return Liouvillian(matrix=static_part(spec) + matrix, u=u, heat_kernel=kernel)
