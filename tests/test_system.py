import numpy as np
import pytest
from numpy.testing import assert_allclose

from coolspec.system import (
    IDX_E,
    IDX_GL,
    IDX_GU,
    SystemSpec,
    build_hamiltonian,
    coupling_operator,
    eigensystem,
    lower_ground_state,
)

from conftest import blocks


def test_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        SystemSpec(e_man=0.0)
    with pytest.raises(ValueError):
        SystemSpec(e_man=-2.0)
    with pytest.raises(ValueError):
        SystemSpec(e_man=2.0, omega_rabi=-0.1)
    with pytest.raises(ValueError):
        SystemSpec(e_man=2.0, gamma_rad=-0.5)


def test_hamiltonian_layout():
    spec = SystemSpec(e_man=2.0, delta=0.3, omega_rabi=1.2)
    expected = np.array([
        [-0.3, 0.6, 0.0],
        [0.6, 0.0, 0.0],
        [0.0, 0.0, -2.0],
    ])
    assert_allclose(build_hamiltonian(spec), expected, atol=0)


def test_coupling_operator_acts_inside_manifold():
    o = coupling_operator()
    assert o[IDX_GU, IDX_GL] == 1.0
    assert o[IDX_GL, IDX_GU] == 1.0
    assert np.count_nonzero(o) == 2
    assert_allclose(o, o.conj().T, atol=0)


def test_lower_ground_state():
    rho = lower_ground_state()
    assert rho[IDX_GL, IDX_GL] == 1.0
    assert np.trace(rho) == 1.0
    assert np.count_nonzero(rho) == 1


def test_eigenvalues_match_cubic_roots():
    # char. polynomial factors into (x + e_man)(x^2 + delta x - omega^2 / 4)
    rng = np.random.default_rng(7)
    for _ in range(50):
        spec = SystemSpec(e_man=rng.uniform(0.5, 3.0), delta=rng.uniform(-2.0, 2.0),
                          omega_rabi=rng.uniform(0.0, 2.0))
        eig = eigensystem(build_hamiltonian(spec), coupling_operator())
        dressed_pair = np.roots([1.0, spec.delta, -spec.omega_rabi**2 / 4.0]).real
        expected = np.sort(np.append(dressed_pair, -spec.e_man))
        assert_allclose(eig.energies, expected, atol=1e-12)
        assert np.all(np.diff(eig.energies) >= 0)


def test_blocks_reconstruct_coupling():
    rng = np.random.default_rng(11)
    for _ in range(20):
        spec = SystemSpec(e_man=rng.uniform(0.5, 3.0), delta=rng.uniform(-2.0, 2.0),
                          omega_rabi=rng.uniform(0.0, 2.0))
        eig = eigensystem(build_hamiltonian(spec), coupling_operator())
        assert_allclose(blocks(eig).sum(axis=(0, 1)), coupling_operator(), atol=1e-13)
        # nu grid is antisymmetric and consistent with the energies
        assert_allclose(eig.nu, -eig.nu.T, atol=0)
        assert_allclose(eig.nu, eig.energies[:, None] - eig.energies[None, :], atol=0)


def test_blocks_are_rank_one_transition_operators():
    spec = SystemSpec(e_man=2.0, delta=0.4, omega_rabi=0.9)
    eig = eigensystem(build_hamiltonian(spec), coupling_operator())
    transitions = blocks(eig)
    for i in range(3):
        for j in range(3):
            expected = eig.elements[i, j] * np.outer(eig.basis[:, i], eig.basis[:, j].conj())
            assert_allclose(transitions[i, j], expected, atol=1e-14)
    # the coupling has no diagonal eigenbasis elements in this model: one
    # eigenvector is |g_l> itself and the others live in the driven plane
    assert_allclose(np.diagonal(eig.elements), 0.0, atol=1e-14)


def test_eigensystem_rejects_nonhermitian():
    h = build_hamiltonian(SystemSpec(e_man=2.0, omega_rabi=1.0))
    h[0, 1] += 1e-6
    with pytest.raises(ValueError, match="hermitian"):
        eigensystem(h, coupling_operator())


def test_eigensystem_deterministic():
    spec = SystemSpec(e_man=2.0, delta=-0.7, omega_rabi=1.3)
    a = eigensystem(build_hamiltonian(spec), coupling_operator())
    b = eigensystem(build_hamiltonian(spec), coupling_operator())
    assert np.array_equal(a.basis, b.basis)
    assert np.array_equal(a.elements, b.elements)
    # phase convention: dominant component of each eigenvector real positive
    for k in range(3):
        lead = a.basis[np.abs(a.basis[:, k]).argmax(), k]
        assert lead.imag == 0.0
        assert lead.real > 0.0


def test_dressed_states_diagonalize_resonant_drive(dressed_states):
    spec = SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0)
    eig = eigensystem(build_hamiltonian(spec), coupling_operator())
    plus, minus = dressed_states
    h = build_hamiltonian(spec)
    assert_allclose(h @ plus, 0.5 * spec.omega_rabi * plus, atol=1e-14)
    assert_allclose(h @ minus, -0.5 * spec.omega_rabi * minus, atol=1e-14)
    # the eigenbasis columns at resonance are the dressed states up to the
    # fixed phase and |g_l>
    overlaps = np.abs(eig.basis.conj().T @ np.column_stack([plus, minus]))
    assert_allclose(np.sort(overlaps.max(axis=0)), [1.0, 1.0], atol=1e-12)


def test_stacked_eigensystem_equals_single_calls():
    # omega 0 at delta 0 (|e> with |g_u>) and at delta 2 (|e> with |g_l>)
    # are exact ties, ordered by the dominant component
    deltas = np.array([0.0, 2.0, 0.0, -0.7, 0.3, 1.5])
    omegas = np.array([0.0, 0.0, 1.0, 1.3, 0.0, 0.2])
    stacked = eigensystem(build_hamiltonian(SystemSpec(e_man=2.0, delta=deltas,
                                                       omega_rabi=omegas)),
                          coupling_operator())
    assert stacked.basis.shape == (6, 3, 3)
    for k, (delta, omega) in enumerate(zip(deltas, omegas)):
        spec = SystemSpec(e_man=2.0, delta=float(delta), omega_rabi=float(omega))
        single = eigensystem(build_hamiltonian(spec), coupling_operator())
        for field in ("energies", "basis", "nu", "elements"):
            assert np.array_equal(getattr(stacked, field)[k], getattr(single, field))
    assert stacked.energies[0, 1] == stacked.energies[0, 2]
    assert stacked.energies[1, 0] == stacked.energies[1, 1]


def test_stacked_eigensystem_rejects_nonhermitian_member():
    h = build_hamiltonian(SystemSpec(e_man=2.0, delta=np.zeros(3), omega_rabi=np.ones(3)))
    h[1, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="hermitian"):
        eigensystem(h, coupling_operator())
