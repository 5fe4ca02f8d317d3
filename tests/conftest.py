import numpy as np
import pytest
from scipy.integrate import quad

from coolspec import BathSpec, SystemSpec, coupling_operator, dynamics
from coolspec.generators import (
    FROM_REAL,
    TRACE_VECTOR,
    from_real,
    to_real,
    unvectorize,
    vectorize,
)
from coolspec.system import IDX_E, IDX_GU

# Bath formulas written out on their own, independent of coolspec.bath, which
# forms j(s)/s and s (n(s) + 1) inside rate_a and sums the shift as a
# Matsubara series instead.  Import them with `from conftest import ...`.


class OracleError(RuntimeError):
    """An adaptive-quadrature oracle's error estimate exceeds its budget."""


def spectral_density(omega, spec):
    """Spectral density j(omega) = 2 alpha omega^3 / omega_c^2 exp(-omega / omega_c).

    Zero for omega <= 0.  Accepts scalars or arrays.  The single maximum
    sits at 3 omega_c.
    """
    w = np.asarray(omega, dtype=float)
    safe = np.where(w > 0.0, w, 1.0)
    out = np.where(w > 0.0, 2.0 * spec.alpha * safe**3 / spec.omega_c**2
                   * np.exp(-safe / spec.omega_c), 0.0)
    return out.item() if out.ndim == 0 else out


def bose_occupation(nu, spec):
    """Thermal occupation 1 / (exp(beta nu) - 1), requires nu > 0.

    Accepts scalars or arrays.  Evaluated as -exp(-x) / expm1(-x) with
    x = beta nu, which cannot overflow at large x and keeps full relative
    accuracy as nu -> 0.
    """
    nu = np.asarray(nu, dtype=float)
    if not np.all(nu > 0):
        raise ValueError(f"bose_occupation requires nu > 0, got {nu}")
    x = spec.beta * nu
    out = -np.exp(-x) / np.expm1(-x)
    return out.item() if out.ndim == 0 else out


# Superoperator oracles written with np.kron under column stacking
# (vec(a rho b) = kron(b.T, a) vec(rho)), independent of
# generators.sandwich_superoperator.  Import them with `from conftest import ...`.


def blocks(eig):
    """Transition operators <i|O|j> |i><j| in the working basis, indexed [i, j]."""
    return np.einsum("ij,ai,bj->ijab", eig.elements, eig.basis, eig.basis.conj())


def kron_sandwich(a, b):
    """Matrix of rho -> a rho b."""
    return np.kron(np.transpose(b), a)


def kron_commutator(h):
    """Matrix of rho -> -i [h, rho]."""
    eye = np.eye(3)
    return -1j * (kron_sandwich(h, eye) - kron_sandwich(eye, h))


def kron_lindblad(jump, phase=1.0):
    """Matrix of rho -> phase J rho J^dag - {J^dag J, rho} / 2 for the jump J."""
    eye = np.eye(3)
    proj = jump.conj().T @ jump
    return (phase * kron_sandwich(jump, jump.conj().T)
            - 0.5 * (kron_sandwich(proj, eye) + kron_sandwich(eye, proj)))


def kron_masked_redfield(eig, gamma, pairing_tol, u):
    """Redfield dissipator and heat kernel masked in the eigenbasis, in the working basis.

    Written term by term in the eigenbasis, where O = eig.elements and
    Lam_u = gamma * O * exp(i u nu.T), as redfield_oracle's maps; element
    [(a, b), (c, d)] is kept when |nu[a, b] - nu[c, d]| <= pairing_tol and
    zeroed otherwise, and kron(conj V, V), V = eig.basis, maps both to the
    working basis.  Returns (matrix, kernel).
    """
    eye = np.eye(3)
    o = eig.elements
    lam_u, lam_minus_u, lam_0, lam_prime = (gamma * o * phase for phase in (
        np.exp(1j * u * eig.nu.T), np.exp(-1j * u * eig.nu.T), 1.0, 1j * eig.nu.T))
    matrix = (kron_sandwich(lam_u, o) + kron_sandwich(o, lam_minus_u.conj().T)
              - kron_sandwich(o @ lam_0, eye) - kron_sandwich(eye, lam_0.conj().T @ o))
    kernel = kron_sandwich(lam_prime, o) - kron_sandwich(o, lam_prime.conj().T)
    nu = vectorize(eig.nu).real
    keep = np.abs(nu[:, None] - nu[None, :]) <= pairing_tol
    to_work = np.kron(eig.basis.conj(), eig.basis)
    return tuple(to_work @ (keep * m) @ to_work.conj().T for m in (matrix, kernel))


def rk4_stages(generator_at, rho0, t_end, dt):
    """Classical RK4 in stage form on propagate's grid; propagate's oracle.

    Each step calls generator_at on the single times t + dt/2 and t + dt
    and forms the stage vectors k1 .. k4 one matvec at a time.
    """
    times = np.arange(int(round(t_end / dt)) + 1) * dt
    y = vectorize(rho0)
    ys = [y]
    m_end = generator_at(times[0]).matrix
    for t in times[:-1]:
        m_start, m_half, m_end = (m_end, generator_at(t + 0.5 * dt).matrix,
                                  generator_at(t + dt).matrix)
        k1 = m_start @ y
        k2 = m_half @ (y + 0.5 * dt * k1)
        k3 = m_half @ (y + 0.5 * dt * k2)
        k4 = m_end @ (y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        ys.append(y)
    return times, unvectorize(np.array(ys))


def steady_state_svd_oracle(liouvillian):
    """steady_state with every point's checks decided by a values-only SVD; its oracle.

    The same real Q^H L Q, formed as steady_state forms it (to_real
    scaled by n_i / n_j, n the column norms of FROM_REAL, so Q is FROM_REAL
    / n), bordered solve and residual (steady_residual) as steady_state,
    but the tie test runs on each point's values-only singular values (the
    full SVD re-deciding the points it flags), the traceless test on the
    full SVD's null vector, and the residual bound on sigma_max of every
    point.  So it returns, or raises with the same type and message, what
    steady_state's certificate must leave unchanged.
    """
    if liouvillian.u != 0.0:
        raise ValueError("steady_state requires an unannotated (u = 0) generator")
    norms = np.linalg.norm(FROM_REAL, axis=0)
    trace_row = (TRACE_VECTOR @ FROM_REAL).real
    real = to_real(liouvillian.matrix) * (norms[:, None] / norms)
    square = real.reshape(-1, 9, 9)

    def name_traceless(points):
        if points.size:
            trace = np.linalg.svd(square[points])[2][:, -1, :] @ trace_row
            traceless = np.flatnonzero(np.abs(trace) < 1e-12)
            if traceless.size:
                raise dynamics.SteadyStateError(f"null vector is traceless (trace "
                                                f"{trace[traceless[0]]:.3e}), cannot normalize")

    flat = np.linalg.svd(real, compute_uv=False).reshape(-1, 9)
    flagged = np.flatnonzero(flat[:, -2] < flat[:, -1] + 1e-8)
    if flagged.size:
        flat[flagged] = np.linalg.svd(square[flagged])[1]
        tied = flagged[flat[flagged, -2] < flat[flagged, -1] + 1e-8]
        if tied.size:
            raise dynamics.SteadyStateError(
                f"steady state is not unique: smallest singular values "
                f"{flat[tied[0], -1]:.3e} and {flat[tied[0], -2]:.3e}")
    bordered = real.copy()
    bordered[..., 0, :] = trace_row
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            x = np.linalg.solve(bordered, np.eye(9)[:, :1])[..., 0]
        except np.linalg.LinAlgError:
            name_traceless(np.arange(len(square)))
            raise
        name_traceless(np.flatnonzero(np.linalg.norm(x, axis=-1).reshape(-1) > 1e12))
        rho = from_real(x / norms)
        residual = dynamics.steady_residual(liouvillian, rho)
    bound = 1e-10 * np.maximum(1.0, flat[:, 0])
    failed = np.flatnonzero(~(np.ravel(residual) <= bound))
    if failed.size:
        k = failed[0]
        raise dynamics.SteadyStateError(
            f"steady-state residual {residual.flat[k]:.3e} exceeds {bound[k]:.3g}")
    return rho, residual


@pytest.fixture
def bath():
    # shipped default bath: weak coupling, unit cutoff, warm
    return BathSpec(alpha=0.01, omega_c=1.0, temperature=3.0)


@pytest.fixture
def driven_spec():
    return SystemSpec(e_man=2.0, delta=0.0, omega_rabi=1.0, gamma_rad=0.5)


@pytest.fixture
def redfield_oracle():
    """Redfield generator applied to a 3x3 state in plain matrix form.

    Returns apply(hamiltonian, eig, gamma, u, rho) -> (L_u(rho), K(rho)) with
    L_u(rho) = -i [H, rho] + Lam_u rho O + O rho Lam_{-u}^dag
               - O Lam_0 rho - rho Lam_0^dag O,
    Lam_u = sum_ij gamma[i, j] exp(i u nu[j, i]) blocks(eig)[i, j], and the heat
    kernel K = dL_u/du at u = 0, i.e. K(rho) = Lam' rho O - O rho Lam'^dag
    with Lam' = sum_ij i nu[j, i] gamma[i, j] blocks(eig)[i, j].
    """
    def apply(hamiltonian, eig, gamma, u, rho):
        o = coupling_operator()
        transitions = blocks(eig)

        def lam(weights):
            return sum(weights[i, j] * transitions[i, j] for i in range(3) for j in range(3))

        def dag(m):
            return m.conj().T

        lam_u = lam(gamma * np.exp(1j * u * eig.nu.T))
        lam_minus_u = lam(gamma * np.exp(-1j * u * eig.nu.T))
        lam_0 = lam(gamma)
        lam_prime = lam(1j * eig.nu.T * gamma)
        out = (-1j * (hamiltonian @ rho - rho @ hamiltonian)
               + lam_u @ rho @ o + o @ rho @ dag(lam_minus_u)
               - o @ lam_0 @ rho - rho @ dag(lam_0) @ o)
        kernel = lam_prime @ rho @ o - o @ rho @ dag(lam_prime)
        return out, kernel

    return apply


@pytest.fixture
def bath_correlation():
    """Bath correlation function by adaptive quadrature; correlation_grid's oracle.

    Returns c(tau, spec) = integral over 0 < w < 40 omega_c of
    j(w) (coth(beta w / 2) cos(w tau) - i sin(w tau)), evaluated with
    oscillatory-weight quadrature; c(-tau) = conj(c(tau)).
    """
    tol = 1e-10

    def c(tau, spec):
        if tau < 0:
            return np.conj(c(-tau, spec))
        omega_max = 40.0 * spec.omega_c

        def j_coth(w):
            if w <= 0.0:
                return 0.0
            return spectral_density(w, spec) * (2.0 * bose_occupation(w, spec) + 1.0)

        def j_plain(w):
            if w <= 0.0:
                return 0.0
            return spectral_density(w, spec)

        if tau == 0.0:
            re, re_err = quad(j_coth, 0.0, omega_max, epsabs=tol, epsrel=1e-12, limit=400)
            im, im_err = 0.0, 0.0
        else:
            re, re_err = quad(j_coth, 0.0, omega_max, weight="cos", wvar=tau,
                              epsabs=tol, epsrel=1e-12, limit=400)
            im, im_err = quad(j_plain, 0.0, omega_max, weight="sin", wvar=tau,
                              epsabs=tol, epsrel=1e-12, limit=400)
        err = re_err + im_err
        if err > 10.0 * tol:
            raise OracleError(f"correlation integral error estimate {err:.3e} exceeds budget")
        return complex(re, -im)

    return c


@pytest.fixture
def quad_shift():
    """Principal-value shift by adaptive quadrature; shift_b's oracle.

    Returns b(nu, spec, omega_max=None), the integral over (0, omega_max),
    by default max(40 omega_c, 2 |nu|).  shift_b integrates to infinity; at
    nu = 0 the part beyond 40 omega_c is 4e-15 of the whole.  The simple pole of
    j(w) (w + (2 n(w) + 1) nu) / (w^2 - nu^2) at w = s = |nu| is subtracted as
    c / (w - s), the remainder integrated by quad split at s and at 2 s 4^k
    (the pole at -s sets that scale), and c log((omega_max - s) / s) added
    back.  Requires nu != 0.
    """
    def b(nu, spec, omega_max=None):
        s = abs(nu)
        if omega_max is None:
            omega_max = max(40.0 * spec.omega_c, 2.0 * s)

        def numerator(w):
            if w <= 0.0:
                return 0.0
            return spectral_density(w, spec) * (w + (2.0 * bose_occupation(w, spec) + 1.0) * nu)

        c = numerator(s) / (2.0 * s)

        def regular(w):
            d = w - s
            if abs(d) < 1e-9 * s:
                # removable limit: derivative of numerator(w) / (w + s) at w = s
                h = 1e-5 * s
                return (numerator(s + h) / (2.0 * s + h) - numerator(s - h) / (2.0 * s - h)) / (2.0 * h)
            return numerator(w) / (w * w - s * s) - c / d

        points = [s]
        split = 2.0 * s
        while split < omega_max:
            points.append(split)
            split *= 4.0
        tol = 1e-12 * 4.0 * spec.alpha * spec.omega_c
        val, err = quad(regular, 0.0, omega_max, points=points, epsabs=tol, epsrel=1e-12, limit=400)
        if err > 100.0 * max(tol, 1e-12 * abs(val)):
            raise OracleError(f"shift integral error estimate {err:.3e} exceeds budget")
        return val + c * np.log((omega_max - s) / s)

    return b


@pytest.fixture
def dressed_states():
    """Drive-dressed combinations (|g_u> + |e>)/sqrt(2) and (|g_u> - |e>)/sqrt(2)."""
    plus = np.zeros(3, dtype=complex)
    minus = np.zeros(3, dtype=complex)
    plus[IDX_GU] = plus[IDX_E] = 1.0 / np.sqrt(2.0)
    minus[IDX_GU] = 1.0 / np.sqrt(2.0)
    minus[IDX_E] = -1.0 / np.sqrt(2.0)
    return plus, minus


@pytest.fixture
def dressed_coherence(dressed_states):
    """Coherence <+|rho|-> between the drive-dressed states, as a function of rho."""
    plus, minus = dressed_states
    return lambda rho: complex(plus.conj() @ np.asarray(rho) @ minus)


@pytest.fixture
def characteristic_function():
    """chi(u, t_end) = Tr rho_u(t_end) of an annotated propagation by rk4_stages.

    Returns apply(liouvillian, rho0, t_end, dt).  At u = 0 this is
    identically 1; the u dependence near zero encodes the moments of the
    exchanged phonon heat.
    """
    def apply(liouvillian, rho0, t_end, dt):
        _, states = rk4_stages(lambda t: liouvillian, rho0, t_end, dt)
        return complex(np.trace(states[-1]))

    return apply
