import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coolspec.bath import BathSpec, bose_occupation, rate_a, rate_table, spectral_density
from coolspec.generators import (
    TRACE_VECTOR,
    bloch_redfield_generator,
    coherent_superoperator,
    left_superoperator,
    phenomenological_generator,
    phenomenological_rates,
    radiative_dissipator,
    right_superoperator,
    sandwich_superoperator,
    secular_generator,
    total_liouvillian,
    unvectorize,
    vectorize,
)
from coolspec.system import (
    IDX_GL,
    IDX_GU,
    SystemSpec,
    build_hamiltonian,
    coupling_operator,
    eigensystem,
)

BATH = BathSpec(alpha=0.01, omega_c=1.0, temperature=3.0)


def _random_matrix(rng):
    return rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))


def test_vectorization_convention():
    # column stacking: rho -> A rho B must be kron(B.T, A)
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b, rho = (_random_matrix(rng) for _ in range(3))
        assert_allclose(unvectorize(sandwich_superoperator(a, b) @ vectorize(rho)),
                        a @ rho @ b, atol=1e-13)
        assert_allclose(unvectorize(left_superoperator(a) @ vectorize(rho)),
                        a @ rho, atol=1e-13)
        assert_allclose(unvectorize(right_superoperator(b) @ vectorize(rho)),
                        rho @ b, atol=1e-13)
        assert_allclose(TRACE_VECTOR @ vectorize(rho), np.trace(rho), atol=1e-13)


def test_coherent_superoperator_is_commutator():
    rng = np.random.default_rng(5)
    h = _random_matrix(rng)
    h = h + h.conj().T
    rho = _random_matrix(rng)
    lhs = unvectorize(coherent_superoperator(h) @ vectorize(rho))
    assert_allclose(lhs, -1j * (h @ rho - rho @ h), atol=1e-13)


def _generators_at(spec, u=0.0, include_shifts=True, pairing_tol=None):
    eig = eigensystem(build_hamiltonian(spec), coupling_operator())
    table = rate_table(eig, BATH)
    return (
        bloch_redfield_generator(eig, table, spec, u=u, include_shifts=include_shifts),
        secular_generator(eig, table, spec, u=u, pairing_tol=pairing_tol),
        phenomenological_generator(spec, BATH, u=u),
    )


@pytest.mark.parametrize("delta,omega", [(0.0, 1.0), (0.7, 0.5), (-1.2, 0.01)])
def test_trace_and_hermiticity_preserved_at_zero_counting(delta, omega):
    spec = SystemSpec(e_man=2.0, delta=delta, omega_rabi=omega, gamma_rad=0.5)
    rng = np.random.default_rng(17)
    for gen in _generators_at(spec):
        full = gen.matrix + radiative_dissipator(spec)
        # left null vector: d(Tr rho)/dt = 0 for every rho
        assert_allclose(TRACE_VECTOR @ full, 0.0, atol=1e-13)
        # hermiticity: L(rho^dagger) = L(rho)^dagger for arbitrary rho
        for _ in range(5):
            rho = _random_matrix(rng)
            out = unvectorize(full @ vectorize(rho))
            out_dag = unvectorize(full @ vectorize(rho.conj().T))
            assert_allclose(out_dag, out.conj().T, atol=1e-12)


@pytest.mark.parametrize("delta,omega", [(0.0, 1.0), (0.7, 0.5), (-1.2, 0.01), (0.0, 0.0)])
@pytest.mark.parametrize("u", [0.0, 0.05])
def test_bloch_redfield_matches_matrix_form(delta, omega, u, redfield_oracle):
    # the vectorized assembly against the textbook Redfield form acting on
    # random states, with gamma[i, j] = a[j, i] - i b[j, i]
    spec = SystemSpec(e_man=2.0, delta=delta, omega_rabi=omega, gamma_rad=0.5)
    hamiltonian = build_hamiltonian(spec)
    eig = eigensystem(hamiltonian, coupling_operator())
    table = rate_table(eig, BATH)
    gen = bloch_redfield_generator(eig, table, spec, u=u)
    gamma = (table.a - 1j * table.b).T
    rng = np.random.default_rng(29)
    for _ in range(5):
        rho = _random_matrix(rng)
        expected, expected_kernel = redfield_oracle(hamiltonian, eig, gamma, u, rho)
        assert_allclose(unvectorize(gen.matrix @ vectorize(rho)), expected, atol=1e-13)
        assert_allclose(unvectorize(gen.heat_kernel @ vectorize(rho)), expected_kernel,
                        atol=1e-13)


def test_heat_kernel_is_u_derivative():
    # the stored kernel must equal the numerical derivative of the
    # annotated generator at u = 0
    spec = SystemSpec(e_man=2.0, delta=0.4, omega_rabi=0.8, gamma_rad=0.5)
    h = 1e-6
    for build in (
        lambda u: total_liouvillian("bloch_redfield", spec, BATH, u=u),
        lambda u: total_liouvillian("secular", spec, BATH, u=u),
        lambda u: total_liouvillian("phenomenological", spec, BATH, u=u),
    ):
        plus, minus, at_zero = build(h), build(-h), build(0.0)
        numeric = (plus.matrix - minus.matrix) / (2.0 * h)
        assert_allclose(at_zero.heat_kernel, numeric, atol=1e-7)
        # the kernel itself does not depend on the u the matrix was built at
        assert_allclose(plus.heat_kernel, at_zero.heat_kernel, atol=1e-14)


def test_radiative_dissipator_not_annotated():
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.7)
    bare = total_liouvillian("phenomenological", spec, BATH).heat_kernel
    no_decay = total_liouvillian(
        "phenomenological",
        SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.0), BATH).heat_kernel
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


def test_phenomenological_rates_match_golden_rule():
    spec = SystemSpec(e_man=2.0)
    gamma_up, gamma_down = phenomenological_rates(spec, BATH)
    assert_allclose(gamma_up, 2.0 * math.pi * bose_occupation(2.0, BATH)
                    * spectral_density(2.0, BATH), rtol=1e-14)
    assert_allclose(gamma_up / gamma_down, math.exp(-2.0 / 3.0), rtol=1e-12)
    assert_allclose(gamma_up, 2.0 * rate_a(-2.0, BATH), rtol=1e-14)
    assert_allclose(gamma_down, 2.0 * rate_a(2.0, BATH), rtol=1e-14)


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
        eig = eigensystem(build_hamiltonian(spec), coupling_operator())
        table = rate_table(eig, BATH)
        naive = coherent_superoperator(build_hamiltonian(spec)).astype(complex)
        for i in range(3):
            for j in range(3):
                rate = 2.0 * table.a[i, j]
                if rate == 0.0:
                    continue
                jump = eig.blocks[j, i]
                proj = eig.blocks[i, j] @ eig.blocks[j, i]
                naive += rate * (sandwich_superoperator(jump, jump.conj().T)
                                 - 0.5 * (left_superoperator(proj)
                                          + right_superoperator(proj)))
        gen = secular_generator(eig, table, spec)
        assert_allclose(gen.matrix, naive, atol=1e-14)


def test_phenomenological_matches_two_jump_lindblad():
    # the drive-blind model written out: one Lindblad dissipator per bare
    # jump, |g_l> -> |g_u> at gamma_up tagging a bath loss of e_man and the
    # reverse at gamma_down tagging a gain, on top of the driven coherent part
    e_man = 2.0
    up = np.zeros((3, 3), dtype=complex)
    up[IDX_GU, IDX_GL] = 1.0
    for delta in (0.0, 0.3, e_man, -e_man):
        for omega in (0.0, 0.3, 1.0):
            spec = SystemSpec(e_man=e_man, delta=delta, omega_rabi=omega, gamma_rad=0.5)
            gamma_up, gamma_down = phenomenological_rates(spec, BATH)
            for u in (0.0, 0.05, -0.3):
                matrix = coherent_superoperator(build_hamiltonian(spec))
                kernel = np.zeros((9, 9), dtype=complex)
                for rate, jump, bath_gain in ((gamma_up, up, -e_man), (gamma_down, up.T, e_man)):
                    sandwich = sandwich_superoperator(jump, jump.conj().T)
                    proj = jump.conj().T @ jump
                    matrix = matrix + rate * (np.exp(1j * u * bath_gain) * sandwich
                                              - 0.5 * (left_superoperator(proj)
                                                       + right_superoperator(proj)))
                    kernel = kernel + 1j * bath_gain * rate * sandwich
                gen = phenomenological_generator(spec, BATH, u=u)
                assert_allclose(gen.matrix, matrix, rtol=0, atol=1e-14)
                assert_allclose(gen.heat_kernel, kernel, rtol=0, atol=1e-14)


def test_secular_pairing_tolerance_widens_retention():
    # a pairing tolerance larger than all frequency differences must bring
    # the secular generator, built in the eigenbasis, back to the shiftless
    # nonsecular one, built in the working basis: matrix and heat kernel
    spec = SystemSpec(e_man=2.0, delta=0.1, omega_rabi=0.4, gamma_rad=0.0)
    eig = eigensystem(build_hamiltonian(spec), coupling_operator())
    table = rate_table(eig, BATH)
    for u in (0.0, 0.05):
        wide = secular_generator(eig, table, spec, pairing_tol=1e3, u=u)
        nonsecular = bloch_redfield_generator(eig, table, spec, u=u, include_shifts=False)
        assert_allclose(wide.matrix, nonsecular.matrix, atol=1e-13)
        assert_allclose(wide.heat_kernel, nonsecular.heat_kernel, atol=1e-13)
    nonsecular = bloch_redfield_generator(eig, table, spec, include_shifts=False)
    tight = secular_generator(eig, table, spec)
    assert not np.allclose(tight.matrix, nonsecular.matrix, atol=1e-6)


def test_principal_value_terms_change_generator():
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)
    with_b = total_liouvillian("bloch_redfield", spec, BATH, include_shifts=True)
    without_b = total_liouvillian("bloch_redfield", spec, BATH, include_shifts=False)
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
    coherent = coherent_superoperator(build_hamiltonian(spec))
    doubled = BathSpec(alpha=0.02, omega_c=1.0, temperature=3.0)
    for method in ("bloch_redfield", "secular", "phenomenological"):
        one = total_liouvillian(method, spec, BATH).matrix - coherent
        two = total_liouvillian(method, spec, doubled).matrix - coherent
        assert_allclose(two, 2.0 * one, rtol=1e-13, atol=1e-16)


def test_total_liouvillian_validation():
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)
    with pytest.raises(ValueError, match="unknown method"):
        total_liouvillian("redfield", spec, BATH)
    with pytest.raises(ValueError, match="principal-value"):
        total_liouvillian("secular", spec, BATH, include_shifts=True)
    with pytest.raises(ValueError, match="principal-value"):
        total_liouvillian("phenomenological", spec, BATH, include_shifts=True)
