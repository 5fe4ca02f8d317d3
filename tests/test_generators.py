import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coolspec import generators
from coolspec.bath import BathSpec, rate_a, rate_table, shift_b
from coolspec.dynamics import PropagationError, evolve, propagate
from coolspec.generators import (
    FROM_REAL,
    METHODS,
    TO_REAL,
    TRACE_VECTOR,
    Liouvillian,
    redfield,
    sandwich_superoperator,
    spectrum,
    static_part,
    to_real,
    total_liouvillian,
    unvectorize,
    vectorize,
)
from coolspec.system import (
    IDX_E,
    IDX_GL,
    IDX_GU,
    SystemSpec,
    build_hamiltonian,
    eigensystem,
    lower_ground_state,
)

from conftest import (
    blocks,
    bose_occupation,
    kron_commutator,
    kron_lindblad,
    kron_masked_redfield,
    kron_sandwich,
    spectral_density,
)

BATH = BathSpec(alpha=0.01, omega_c=1.0, temperature=3.0)


def _random_matrix(rng):
    return rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))


def test_vectorization_convention():
    # column stacking: rho -> A rho B must be kron(B.T, A)
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b, rho = (_random_matrix(rng) for _ in range(3))
        assert_allclose(unvectorize(kron_sandwich(a, b) @ vectorize(rho)),
                        a @ rho @ b, atol=1e-13)
        assert_allclose(sandwich_superoperator(a[None], b[None]), kron_sandwich(a, b), atol=1e-15)
        assert_allclose(TRACE_VECTOR @ vectorize(rho), np.trace(rho), atol=1e-13)
    # unvectorize broadcasts over leading axes
    states = np.stack([_random_matrix(rng) for _ in range(4)])
    vectors = np.stack([vectorize(rho) for rho in states])
    assert np.array_equal(unvectorize(vectors), states)
    assert np.array_equal(unvectorize(vectors[None, 1:]), states[None, 1:])


@pytest.mark.parametrize("complex_a, complex_b", [(True, True), (True, False), (False, True),
                                                   (False, False)])
def test_sandwich_superoperator_sums_kron_terms(complex_a, complex_b):
    # T = 1 .. 6 terms, real or complex on either side: each point is the
    # sum of kron_sandwich over its terms, whether a, b or both are stacked,
    # with leading axes of different rank that broadcast; each point of a
    # stack is bitwise its one-point call, which sweep chunks rely on
    rng = np.random.default_rng(17)

    def operands(shape, complex_):
        x = rng.normal(size=shape + (3, 3))
        return x + 1j * rng.normal(size=x.shape) if complex_ else x

    for terms in range(1, 7):
        a = operands((2, 4, terms), complex_a)
        b = operands((4, terms), complex_b)
        single = operands((terms,), complex_b)
        for stacked, left, right in ((sandwich_superoperator(a, b), a, b[None]),
                                     (sandwich_superoperator(a, single), a, single[None, None]),
                                     (sandwich_superoperator(a[0, 0], b), a[0, :1], b)):
            assert stacked.shape == np.broadcast_shapes(left.shape[:-3], right.shape[:-3]) + (9, 9)
            for index in np.ndindex(stacked.shape[:-2]):
                point_a = left[tuple(min(i, n - 1) for i, n in zip(index, left.shape))]
                point_b = right[tuple(min(i, n - 1) for i, n in zip(index, right.shape))]
                oracle = sum(kron_sandwich(x, y) for x, y in zip(point_a, point_b))
                assert_allclose(stacked[index], oracle, rtol=0, atol=1e-14)
                assert stacked[index].tobytes() == sandwich_superoperator(point_a,
                                                                          point_b).tobytes()


def _hermitian(rng):
    # exactly Hermitian: the lower triangle mirrors the upper, the diagonal is real
    upper = np.triu(_random_matrix(rng), 1)
    return upper + upper.conj().T + np.diag(rng.normal(size=3))


def test_real_coordinates_invert_exactly():
    # TO_REAL and FROM_REAL are exact inverses, and a Hermitian state goes
    # to its real coordinates (rho_aa, then Re and Im rho_ab for a < b)
    # and back bitwise
    eye = np.eye(9, dtype=complex)
    assert (TO_REAL @ FROM_REAL).tobytes() == eye.tobytes()
    assert (FROM_REAL @ TO_REAL).tobytes() == eye.tobytes()
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = _hermitian(rng)
        coords = TO_REAL @ vectorize(rho)
        assert not coords.imag.any()
        pairs = [rho[a, b] for a, b in ((0, 1), (0, 2), (1, 2))]
        expected = [*np.diag(rho).real, *(part for z in pairs for part in (z.real, z.imag))]
        assert coords.real.tobytes() == np.array(expected).tobytes()
        assert unvectorize(FROM_REAL @ coords.real).tobytes() == rho.tobytes()


def test_to_real_on_generators_is_the_real_part_of_the_similarity():
    # to_real(M) is one real matmul of M's interleaved (Re, Im) entries by a
    # constant map, and must equal Re(TO_REAL @ M @ FROM_REAL) for any
    # complex 9x9 M, Hermiticity-preserving or not, whatever its layout or
    # dtype.  Each entry on either side sums at most four exact products
    # of Re or Im entries of M, weights summing to at most 2 in magnitude:
    # to_real rounds it at most three times (3 eps max|M|), the two complex
    # matmuls once each (2 eps max|M|), so they agree to 5 eps max|M| per
    # point (1.06 eps max|M| seen)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(42)

    def check(matrix):
        real = to_real(matrix)
        reference = (TO_REAL @ np.asarray(matrix, dtype=complex) @ FROM_REAL).real
        assert real.dtype == float and real.shape == reference.shape
        scale = np.abs(matrix).max(axis=(-2, -1))[..., None, None]
        assert (np.abs(real - reference) <= 5 * eps * scale).all()
        return real

    stack = rng.normal(size=(4, 3, 9, 9)) + 1j * rng.normal(size=(4, 3, 9, 9))
    graded = 10.0 ** rng.integers(-150, 150, size=(4, 3, 1, 1)) * stack
    for matrix in (stack, graded, stack[1, 2], stack.real, total_liouvillian(
            "bloch_redfield", _STACK, BATH).matrix):
        check(matrix)
    # non-contiguous inputs are read as their contiguous copies, bitwise
    for view in (stack.swapaxes(-1, -2), np.moveaxis(stack, 0, 1), stack[:, ::2],
                 stack.real.swapaxes(-1, -2)):
        assert not view.flags.c_contiguous
        assert check(view).tobytes() == to_real(np.ascontiguousarray(view)).tobytes()
    broadcast = np.broadcast_to(stack[2, 0], (5, 9, 9))
    assert check(broadcast).tobytes() == to_real(np.array(broadcast)).tobytes()
    # an infinite entry leaves a non-finite result, which propagate names
    broken = stack[0, 0].copy()
    broken[4, 0] = np.inf
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(to_real(broken)).all()
    with pytest.raises(PropagationError, match="^non-finite generator at t = 0: "):
        propagate(lambda t: Liouvillian(matrix=broken), lower_ground_state(), 1.0, 0.05)
    with pytest.raises(PropagationError, match="^non-finite generator: it has an infinite entry"):
        evolve(Liouvillian(matrix=broken), lower_ground_state(), 1.0, 0.05)


_STACK = SystemSpec(e_man=2.0, delta=np.array([-0.5, 0.0, 0.7, 0.3]),
                    omega_rabi=np.array([0.5, 1.0, 0.2, 0.0]), gamma_rad=0.5)


def _imaginary_share(matrix):
    """Largest |Im| of matrix in real Hermitian coordinates over its largest entry, per point."""
    real = TO_REAL @ matrix @ FROM_REAL
    return np.abs(real.imag).max(axis=(-2, -1)) / np.abs(real).max(axis=(-2, -1))


def test_generators_are_real_in_hermitian_coordinates():
    # every unannotated generator preserves Hermiticity, so in real
    # Hermitian coordinates it is real up to roundoff: static_part, the
    # three Markovian methods at u = 0 and the TCL response to each of the
    # 18 real unit coefficients (all of which TclPropagator's real table drops)
    assert _imaginary_share(static_part(_STACK)).max() <= 1e-15
    for method in METHODS:
        assert _imaginary_share(total_liouvillian(method, _STACK, BATH).matrix).max() <= 1e-15
    eig = eigensystem(_STACK)
    units = np.eye(9).reshape(9, 1, 3, 3)
    matrix, _ = redfield(eig, np.concatenate([units, 1j * units]))
    responses = TO_REAL @ matrix @ FROM_REAL
    assert np.abs(responses.imag).max() <= 1e-15 * np.abs(responses).max()


def test_annotated_generator_is_not_real_in_hermitian_coordinates():
    # a counting field breaks Hermiticity: its imaginary part in these
    # coordinates is about 1% of the largest entry at u = 0.05, so an
    # annotated generator stays complex (mean_heat_fd exponentiates it as
    # such, and propagate, evolve and steady_state refuse it)
    for method in METHODS:
        share = _imaginary_share(total_liouvillian(method, _STACK, BATH, u=0.05).matrix)
        assert share.min() > 1e-3


def test_coherent_superoperator_is_commutator():
    rng = np.random.default_rng(5)
    h = _random_matrix(rng)
    h = h + h.conj().T
    rho = _random_matrix(rng)
    lhs = unvectorize(kron_commutator(h) @ vectorize(rho))
    assert_allclose(lhs, -1j * (h @ rho - rho @ h), atol=1e-13)


@pytest.mark.parametrize("delta,omega,gamma_rad", [(0.0, 1.0, 0.5), (0.7, 0.5, 1.3),
                                                   (-1.2, 0.0, 0.5), (0.4, 0.9, 0.0)])
def test_static_part_matches_matrix_form(delta, omega, gamma_rad):
    # -i [H, rho] + gamma_rad (J rho J^dag - {J^dag J, rho} / 2), J = |g_l><e|
    spec = SystemSpec(e_man=2.0, delta=delta, omega_rabi=omega, gamma_rad=gamma_rad)
    h = build_hamiltonian(spec)
    jump = np.zeros((3, 3))
    jump[IDX_GL, IDX_E] = 1.0
    proj = jump.T @ jump
    static = static_part(spec)
    rng = np.random.default_rng(43)
    for _ in range(5):
        rho = _random_matrix(rng)
        expected = (-1j * (h @ rho - rho @ h)
                    + gamma_rad * (jump @ rho @ jump.T - 0.5 * (proj @ rho + rho @ proj)))
        assert_allclose(unvectorize(static @ vectorize(rho)), expected, atol=1e-13)


def _generators_at(spec):
    return tuple(total_liouvillian(method, spec, BATH)
                 for method in ("bloch_redfield", "secular", "phenomenological"))


@pytest.mark.parametrize("delta,omega", [(0.0, 1.0), (0.7, 0.5), (-1.2, 0.01)])
def test_trace_and_hermiticity_preserved_at_zero_counting(delta, omega):
    spec = SystemSpec(e_man=2.0, delta=delta, omega_rabi=omega, gamma_rad=0.5)
    rng = np.random.default_rng(17)
    for gen in _generators_at(spec):
        # left null vector: d(Tr rho)/dt = 0 for every rho
        assert_allclose(TRACE_VECTOR @ gen.matrix, 0.0, atol=1e-13)
        # hermiticity: L(rho^dagger) = L(rho)^dagger for arbitrary rho
        for _ in range(5):
            rho = _random_matrix(rng)
            out = unvectorize(gen.matrix @ vectorize(rho))
            out_dag = unvectorize(gen.matrix @ vectorize(rho.conj().T))
            assert_allclose(out_dag, out.conj().T, atol=1e-12)


@pytest.mark.parametrize("delta,omega", [(0.0, 1.0), (0.7, 0.5), (-1.2, 0.01), (0.0, 0.0)])
@pytest.mark.parametrize("u", [0.0, 0.05])
def test_bloch_redfield_matches_matrix_form(delta, omega, u, redfield_oracle):
    # the vectorized assembly against the textbook Redfield form acting on
    # random states, with gamma[i, j] = a[j, i] - i b[j, i] from the scalar
    # rate and shift of every coupled transition, which rate_table holds
    spec = SystemSpec(e_man=2.0, delta=delta, omega_rabi=omega, gamma_rad=0.5)
    hamiltonian = build_hamiltonian(spec)
    eig = eigensystem(spec)
    gen = total_liouvillian("bloch_redfield", spec, BATH, u=u)
    gamma = np.zeros((3, 3), dtype=complex)
    for i, j in zip(*np.nonzero(eig.elements.T)):
        gamma[i, j] = rate_a(eig.nu[j, i], BATH) - 1j * shift_b(eig.nu[j, i], BATH)
    table = rate_table(eig, BATH)
    assert np.array_equal(table.real, gamma.real) and np.array_equal(table.imag, gamma.imag)
    # |e> -> |g_l> decay, uncounted
    jump = np.zeros((3, 3))
    jump[IDX_GL, IDX_E] = 1.0
    rng = np.random.default_rng(29)
    for _ in range(5):
        rho = _random_matrix(rng)
        expected, expected_kernel = redfield_oracle(hamiltonian, eig, gamma, u, rho)
        expected += spec.gamma_rad * (jump @ rho @ jump.T
                                      - 0.5 * (jump.T @ jump @ rho + rho @ jump.T @ jump))
        assert_allclose(unvectorize(gen.matrix @ vectorize(rho)), expected, atol=1e-13)
        # the heat operator is the kernel's trace row: Tr(Y rho) = -i Tr K(rho)
        assert_allclose(np.trace(gen.heat_operator @ rho), -1j * np.trace(expected_kernel),
                        atol=1e-13)


def test_heat_operator_is_traced_u_derivative():
    # the heat operator must be the trace row of the numerical derivative
    # of the annotated generator at u = 0, vec(Y^T) = -i Tr dL/du, and
    # Hermitian
    spec = SystemSpec(e_man=2.0, delta=0.4, omega_rabi=0.8, gamma_rad=0.5)
    h = 1e-6
    for build in (
        lambda u: total_liouvillian("bloch_redfield", spec, BATH, u=u),
        lambda u: total_liouvillian("secular", spec, BATH, u=u),
        lambda u: total_liouvillian("phenomenological", spec, BATH, u=u),
    ):
        plus, minus, at_zero = build(h), build(-h), build(0.0)
        numeric = (plus.matrix - minus.matrix) / (2.0 * h)
        heat = at_zero.heat_operator
        assert_allclose(vectorize(heat.T), -1j * TRACE_VECTOR @ numeric, atol=1e-7)
        assert_allclose(heat, heat.conj().T, atol=1e-15)
        # the operator itself does not depend on the u the matrix was built at
        assert_allclose(plus.heat_operator, heat, atol=1e-14)


def test_radiative_dissipator_not_annotated():
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.7)
    bare = total_liouvillian("phenomenological", spec, BATH).heat_operator
    no_decay = total_liouvillian(
        "phenomenological",
        SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.0), BATH).heat_operator
    assert_allclose(bare, no_decay, atol=0)


def test_undriven_populations_follow_rate_equations():
    # with the drive off, the manifold populations obey a closed two-level
    # rate equation with rates 2 * rate_a(+-e_man) for every method
    spec = SystemSpec(e_man=2.0, delta=0.3, omega_rabi=0.0, gamma_rad=0.0)
    gamma_down = 2.0 * rate_a(2.0, BATH)
    gamma_up = 2.0 * rate_a(-2.0, BATH)
    rho = np.zeros((3, 3), dtype=complex)
    rho[IDX_GU, IDX_GU] = 0.7
    rho[IDX_GL, IDX_GL] = 0.3
    for gen in _generators_at(spec):
        rhs = unvectorize(gen.matrix @ vectorize(rho))
        expected_gu = -gamma_down * 0.7 + gamma_up * 0.3
        assert_allclose(rhs[IDX_GU, IDX_GU].real, expected_gu, rtol=1e-12)
        assert_allclose(rhs[IDX_GL, IDX_GL].real, -expected_gu, rtol=1e-12)


def test_gibbs_manifold_state_is_stationary_without_drive():
    # undriven and undamped: the thermal manifold state with empty |e> must
    # be a fixed point of all three generators, shifts included
    spec = SystemSpec(e_man=2.0, delta=-0.9, omega_rabi=0.0, gamma_rad=0.0)
    z = 1.0 + math.exp(-2.0 / 3.0)
    rho = np.zeros((3, 3), dtype=complex)
    rho[IDX_GU, IDX_GU] = math.exp(-2.0 / 3.0) / z
    rho[IDX_GL, IDX_GL] = 1.0 / z
    for gen in _generators_at(spec):
        assert np.abs(gen.matrix @ vectorize(rho)).max() < 1e-12


def test_secular_generator_matches_naive_lindblad_sum():
    # with the default tight pairing tolerance the generalized pairing must
    # reduce to the textbook sum of one dissipator per transition
    for delta, omega in ((0.4, 0.9), (-1.1, 0.3), (15.0 / 8.0, 1.0)):
        spec = SystemSpec(e_man=2.0, delta=delta, omega_rabi=omega, gamma_rad=0.0)
        eig = eigensystem(spec)
        gamma = rate_table(eig, BATH)
        transitions = blocks(eig)
        naive = kron_commutator(build_hamiltonian(spec))
        for i in range(3):
            for j in range(3):
                rate = 2.0 * gamma[j, i].real
                if rate == 0.0:
                    continue
                naive += rate * kron_lindblad(transitions[j, i])
        gen = total_liouvillian("secular", spec, BATH)
        assert_allclose(gen.matrix, naive, atol=1e-14)


def test_secular_matches_kron_masked_redfield():
    # the masked eigenbasis contraction against the whole eigenbasis Redfield
    # superoperator written with np.kron, masked and brought to the working
    # basis: at a generic point, at one where pairing_tol 0.3 keeps some
    # pairs of distinct frequencies and drops others (delta = omega = 0.1),
    # and at exact degeneracies (omega 0); the heat operator against the
    # trace row of the masked kernel; each point of a stack is bitwise its
    # one-point call
    deltas, omegas = np.array([0.4, 0.1, 0.0, 2.0]), np.array([0.9, 0.1, 0.0, 0.0])
    stack = SystemSpec(e_man=2.0, delta=deltas, omega_rabi=omegas, gamma_rad=0.5)
    for pairing_tol in (None, 0.3):
        for u in (0.0, 0.05):
            stacked = total_liouvillian("secular", stack, BATH, u=u, pairing_tol=pairing_tol)
            for k, (delta, omega) in enumerate(zip(deltas, omegas)):
                spec = SystemSpec(e_man=2.0, delta=delta, omega_rabi=omega, gamma_rad=0.5)
                eig = eigensystem(spec)
                tol = 2e-10 if pairing_tol is None else pairing_tol
                matrix, kernel = kron_masked_redfield(eig, rate_table(eig, BATH).real, tol, u)
                gen = total_liouvillian("secular", spec, BATH, u=u, pairing_tol=pairing_tol)
                assert_allclose(gen.matrix, static_part(spec) + matrix, rtol=0, atol=1e-14)
                assert_allclose(vectorize(gen.heat_operator.T), -1j * TRACE_VECTOR @ kernel,
                                rtol=0, atol=1e-14)
                assert stacked.matrix[k].tobytes() == gen.matrix.tobytes()
                assert stacked.heat_operator[k].tobytes() == gen.heat_operator.tobytes()


def test_phenomenological_matches_two_jump_lindblad():
    # the drive-blind model written out: one Lindblad dissipator per bare
    # jump, |g_l> -> |g_u> at gamma_up tagging a bath loss of e_man and the
    # reverse at gamma_down tagging a gain, on top of the driven coherent part
    # and the uncounted radiative decay |e> -> |g_l>; the rates are the
    # golden rule 2 pi n j and 2 pi (n + 1) j at e_man
    e_man = 2.0
    n, j = bose_occupation(e_man, BATH), spectral_density(e_man, BATH)
    gamma_up, gamma_down = 2.0 * math.pi * n * j, 2.0 * math.pi * (n + 1.0) * j
    up = np.zeros((3, 3), dtype=complex)
    up[IDX_GU, IDX_GL] = 1.0
    decay = np.zeros((3, 3), dtype=complex)
    decay[IDX_GL, IDX_E] = 1.0
    for delta in (0.0, 0.3, e_man, -e_man):
        for omega in (0.0, 0.3, 1.0):
            spec = SystemSpec(e_man=e_man, delta=delta, omega_rabi=omega, gamma_rad=0.5)
            for u in (0.0, 0.05, -0.3):
                matrix = kron_commutator(build_hamiltonian(spec))
                kernel = np.zeros((9, 9), dtype=complex)
                for rate, jump, bath_gain in ((gamma_up, up, -e_man), (gamma_down, up.T, e_man),
                                              (spec.gamma_rad, decay, 0.0)):
                    matrix = matrix + rate * kron_lindblad(jump, np.exp(1j * u * bath_gain))
                    kernel = kernel + 1j * bath_gain * rate * kron_sandwich(jump, jump.conj().T)
                gen = total_liouvillian("phenomenological", spec, BATH, u=u)
                assert_allclose(gen.matrix, matrix, rtol=0, atol=1e-14)
                assert_allclose(vectorize(gen.heat_operator.T), -1j * TRACE_VECTOR @ kernel,
                                rtol=0, atol=1e-14)


def test_phenomenological_reads_no_spectrum(monkeypatch):
    # two bare jumps at rate_a's golden-rule rates: no eigensystem and no
    # rate table (so no shift) of any spec, stacked or not, counted or not
    def refused(*args):
        raise AssertionError("phenomenological read a spectrum")

    for name in ("rate_table", "eigensystem"):
        monkeypatch.setattr(generators, name, refused)
    for spec in (_STACK, SystemSpec(e_man=2.0, delta=0.3, omega_rabi=1.0, gamma_rad=0.5)):
        for u in (0.0, 0.05):
            gen = total_liouvillian("phenomenological", spec, BATH, u=u)
            assert gen.matrix.shape == np.shape(spec.delta) + (9, 9)


def test_secular_pairing_tolerance_widens_retention():
    # a pairing tolerance larger than all frequency differences must bring
    # the secular generator, built in the eigenbasis, back to the shiftless
    # nonsecular one, built in the working basis: matrix and heat operator
    spec = SystemSpec(e_man=2.0, delta=0.1, omega_rabi=0.4, gamma_rad=0.0)
    shiftless = spectrum(spec, BATH, shifts=False)
    for u in (0.0, 0.05):
        wide = total_liouvillian("secular", spec, BATH, u=u, pairing_tol=1e3)
        nonsecular = total_liouvillian("bloch_redfield", spec, BATH, u=u, shared=shiftless)
        assert_allclose(wide.matrix, nonsecular.matrix, atol=1e-13)
        assert_allclose(wide.heat_operator, nonsecular.heat_operator, atol=1e-13)
    nonsecular = total_liouvillian("bloch_redfield", spec, BATH, shared=shiftless)
    tight = total_liouvillian("secular", spec, BATH)
    assert not np.allclose(tight.matrix, nonsecular.matrix, atol=1e-6)
    # a caller's tolerance must be positive and finite: a negative or NaN
    # one kept no pair at all, and the steady current read 0
    for pairing_tol in (-1.0, math.nan, math.inf, 0.0, "1e-9"):
        with pytest.raises(ValueError, match="^pairing_tol must be positive and finite"):
            total_liouvillian("secular", spec, BATH, pairing_tol=pairing_tol)


def test_principal_value_terms_change_generator():
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)
    with_b = total_liouvillian("bloch_redfield", spec, BATH,
                               shared=spectrum(spec, BATH, shifts=True))
    without_b = total_liouvillian("bloch_redfield", spec, BATH,
                                  shared=spectrum(spec, BATH, shifts=False))
    assert np.abs(with_b.matrix - without_b.matrix).max() > 1e-4
    # shifts are coherent-like: they must not affect trace preservation
    assert_allclose(TRACE_VECTOR @ with_b.matrix, 0.0, atol=1e-13)


def test_spectral_abscissa_nonpositive():
    rng = np.random.default_rng(41)
    for _ in range(6):
        spec = SystemSpec(e_man=2.0, delta=rng.uniform(-1.5, 1.5),
                          omega_rabi=rng.uniform(0.0, 1.5), gamma_rad=0.5)
        for method in ("bloch_redfield", "secular", "phenomenological"):
            gen = total_liouvillian(method, spec, BATH)
            assert np.linalg.eigvals(gen.matrix).real.max() < 1e-10


def test_dissipator_alpha_linearity():
    spec = SystemSpec(e_man=2.0, delta=0.2, omega_rabi=0.7, gamma_rad=0.0)
    static = static_part(spec)
    doubled = BathSpec(alpha=0.02, omega_c=1.0, temperature=3.0)
    for method in ("bloch_redfield", "secular", "phenomenological"):
        one = total_liouvillian(method, spec, BATH).matrix - static
        two = total_liouvillian(method, spec, doubled).matrix - static
        assert_allclose(two, 2.0 * one, rtol=1e-13, atol=1e-16)


def test_total_liouvillian_validation():
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)
    with pytest.raises(ValueError, match="unknown method"):
        total_liouvillian("redfield", spec, BATH)
    # a shared value built for other methods names what it lacks
    for method in ("bloch_redfield", "secular"):
        with pytest.raises(ValueError, match=f"no eigensystem, which {method} reads"):
            total_liouvillian(method, spec, BATH, shared=spectrum(spec, BATH, ("phenomenological",)))
    # the shift choice is read by bloch_redfield only
    for method in ("secular", "phenomenological"):
        for u in (0.0, 0.05):
            with_b = total_liouvillian(method, spec, BATH, u=u,
                                       shared=spectrum(spec, BATH, shifts=True))
            without_b = total_liouvillian(method, spec, BATH, u=u,
                                          shared=spectrum(spec, BATH, shifts=False))
            assert np.array_equal(with_b.matrix, without_b.matrix)
            assert np.array_equal(with_b.heat_operator, without_b.heat_operator)


def test_readme_library_example(capsys):
    # the README's "Library use" block is the documented way in; run it as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("0.11480902")
