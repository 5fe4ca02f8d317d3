"""Driven three-level impurity: Hamiltonian, eigensystem, phonon coupling.

Working basis order is (|e>, |g_u>, |g_l>) = indices (0, 1, 2).  The laser
drives |g_u> <-> |e> and is treated in the rotating frame, so the
Hamiltonian is time independent.  The phonon bath couples only the two
ground states, split by the manifold energy.  hbar = 1 and k_B = 1
throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

IDX_E, IDX_GU, IDX_GL = 0, 1, 2


@dataclass(frozen=True)
class SystemSpec:
    """Static parameters of the impurity.

    Attributes
    ----------
    e_man:
        Ground-manifold splitting between |g_u> and |g_l>, must be > 0.
    delta:
        Laser detuning from the |g_u> -> |e> transition (laser frequency
        minus bare transition frequency).  Any sign.
    omega_rabi:
        Rabi splitting of the driven transition.  Restricted to >= 0; a
        drive phase can always be absorbed into the definition of |e>.
    gamma_rad:
        Radiative decay rate for |e> -> |g_l>, must be >= 0.

    Every field must be real and finite (ValueError naming the field), so
    the Hamiltonian is hermitian.  delta and omega_rabi may also be arrays
    of one shape: the spec then stands for that stack of points, and
    build_hamiltonian and the generators broadcast over it.
    """

    e_man: float
    delta: float = 0.0
    omega_rabi: float = 0.0
    gamma_rad: float = 0.0

    def __post_init__(self):
        if np.iscomplexobj(self.e_man) or not 0 < self.e_man < math.inf:
            raise ValueError(f"e_man must be real, positive and finite, got {self.e_man}")
        if np.iscomplexobj(self.delta) or not np.all(np.isfinite(self.delta)):
            raise ValueError(f"delta must be real and finite, got {self.delta}")
        omega = np.asarray(self.omega_rabi)
        if np.iscomplexobj(omega) or not np.all((omega >= 0) & (omega < math.inf)):
            raise ValueError(f"omega_rabi must be real, non-negative and finite, "
                             f"got {self.omega_rabi}")
        if np.iscomplexobj(self.gamma_rad) or not 0 <= self.gamma_rad < math.inf:
            raise ValueError(f"gamma_rad must be real, non-negative and finite, "
                             f"got {self.gamma_rad}")


def build_hamiltonian(spec: SystemSpec) -> np.ndarray:
    """Rotating-frame Hamiltonian in the working basis.

    The driven state |e> sits at -delta, the drive couples it to |g_u>
    with matrix element omega_rabi / 2, and |g_l> sits at -e_man.  Shape
    (..., 3, 3) for a stacked spec.
    """
    shape = np.broadcast_shapes(np.shape(spec.delta), np.shape(spec.omega_rabi))
    h = np.zeros(shape + (3, 3), dtype=complex)
    h[..., IDX_E, IDX_E] = -spec.delta
    h[..., IDX_E, IDX_GU] = spec.omega_rabi / 2.0
    h[..., IDX_GU, IDX_E] = spec.omega_rabi / 2.0
    h[..., IDX_GL, IDX_GL] = -spec.e_man
    return h


def coupling_operator() -> np.ndarray:
    """System side of the bath coupling: |g_u><g_l| + |g_l><g_u|."""
    o = np.zeros((3, 3), dtype=complex)
    o[IDX_GU, IDX_GL] = 1.0
    o[IDX_GL, IDX_GU] = 1.0
    return o


def lower_ground_state() -> np.ndarray:
    """Default initial state |g_l><g_l|."""
    rho = np.zeros((3, 3), dtype=complex)
    rho[IDX_GL, IDX_GL] = 1.0
    return rho


@dataclass(frozen=True)
class EigenSystem:
    """Spectral data of the Hamiltonian and the eigenbasis coupling elements.

    energies are ascending and basis holds the eigenvectors as columns.
    nu[i, j] = energies[i] - energies[j] is the transition frequency of the
    transition operator <i|O|j> |i><j|, with elements[i, j] = <i|O|j> the
    coupling operator O in the eigenbasis.  Every field carries the leading
    axes of a stacked spec.
    """

    energies: np.ndarray
    basis: np.ndarray
    nu: np.ndarray
    elements: np.ndarray


def eigensystem(spec: SystemSpec) -> EigenSystem:
    """Diagonalize spec's Hamiltonian and write the coupling operator in its eigenbasis.

    Broadcasts over a stacked spec.  The eigenbasis is made deterministic
    by fixing each eigenvector's phase (largest-magnitude component made
    real positive) and, within exactly degenerate eigenvalues, ordering by
    the index of that component.
    """
    energies, basis = np.linalg.eigh(build_hamiltonian(spec))
    dominant = np.abs(basis).argmax(axis=-2)
    order = np.lexsort((dominant, energies), axis=-1)
    energies = np.take_along_axis(energies, order, axis=-1)
    basis = np.take_along_axis(basis, order[..., None, :], axis=-1)
    # the dominant component of a unit vector is never 0
    lead = np.take_along_axis(basis, np.abs(basis).argmax(axis=-2)[..., None, :], axis=-2)
    basis = basis * (lead.conj() / np.abs(lead))
    elements = basis.conj().swapaxes(-1, -2) @ coupling_operator() @ basis
    nu = energies[..., :, None] - energies[..., None, :]
    return EigenSystem(energies=energies, basis=basis, nu=nu, elements=elements)
