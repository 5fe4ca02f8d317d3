"""Acceptance suite: one test per numbered criterion.

Each test prints a single verdict line (PASS/FAIL plus the measured
numbers); run with `pytest tests/test_acceptance.py -v -s` to see the
lines for passing criteria as well.  Tolerances are pinned here and are
not to be loosened; criteria that the faithful implementation cannot meet
are left failing rather than weakened.
"""

import math
import warnings
from functools import lru_cache

import numpy as np
from scipy.linalg import expm
from scipy.optimize import OptimizeWarning, curve_fit

from coolspec.bath import BathSpec, shift_b
from coolspec.dynamics import (
    heat_current_trace,
    mean_heat_fd,
    min_eigenvalue,
    propagate,
    steady_state,
)
from coolspec.generators import phenomenological_rates, total_liouvillian, vectorize
from coolspec.system import IDX_E, IDX_GL, IDX_GU, SystemSpec, lower_ground_state
from coolspec.tcl import TclPropagator

BATH = BathSpec(alpha=0.01, omega_c=1.0, temperature=3.0)
E_MAN = 2.0
GAMMA_RAD = 0.5


def _spec(delta: float, omega: float, gamma_rad: float = GAMMA_RAD) -> SystemSpec:
    return SystemSpec(e_man=E_MAN, delta=delta, omega_rabi=omega, gamma_rad=gamma_rad)


@lru_cache(maxsize=None)
def _steady(method: str, delta: float, omega: float):
    gen = total_liouvillian(method, _spec(delta, omega), BATH)
    rho, _ = steady_state(gen)
    return rho, heat_current_trace(gen, rho)


def _absorption(method: str, delta: float, omega: float) -> float:
    return -_steady(method, delta, omega)[1]


def _verdict(name: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_rate_reproduction():
    gamma_up, gamma_down = phenomenological_rates(_spec(0.0, 0.0), BATH)
    in_window = 0.142 <= gamma_up <= 0.145
    ratio = gamma_up / gamma_down
    ratio_ok = abs(ratio - math.exp(-2.0 / 3.0)) / math.exp(-2.0 / 3.0) < 1e-10
    _verdict(
        "criterion 1 (rate reproduction)",
        in_window and ratio_ok,
        f"gamma_up={gamma_up:.6f} (window [0.142, 0.145]), "
        f"gamma_up/gamma_down={ratio:.12f} vs exp(-2/3)={math.exp(-2.0/3.0):.12f}",
    )


def test_criterion_2_equilibrium():
    worst_pop = 0.0
    worst_current = 0.0
    boltzmann = math.exp(-E_MAN / 3.0)
    for delta in (0.0, -0.8):
        for method in ("bloch_redfield", "secular", "phenomenological"):
            gen = total_liouvillian(method, _spec(delta, 0.0), BATH)
            rho, _ = steady_state(gen)
            pops = np.diag(rho).real
            ratio = pops[IDX_GU] / pops[IDX_GL]
            worst_pop = max(worst_pop, abs(ratio - boltzmann) / boltzmann,
                            abs(pops[IDX_E]))
            worst_current = max(worst_current, abs(heat_current_trace(gen, rho)))
    _verdict(
        "criterion 2 (equilibrium without drive)",
        worst_pop < 1e-8 and worst_current < 1e-10,
        f"max Gibbs deviation {worst_pop:.2e} (tol 1e-8), "
        f"max |current| {worst_current:.2e} (tol 1e-10)",
    )


def test_criterion_3_weak_driving_agreement():
    br = _absorption("bloch_redfield", 0.0, 0.01)
    ph = _absorption("phenomenological", 0.0, 0.01)
    rel = abs(br - ph) / abs(ph)

    deltas = np.linspace(-0.1, 0.1, 41)
    profile = np.array([_absorption("phenomenological", d, 0.01) for d in deltas])

    def lorentzian(x, amp, center, width, offset):
        return amp / (1.0 + ((x - center) / width) ** 2) + offset

    p0 = (profile.max() - profile.min(), 0.0, 0.02, profile.min())
    with warnings.catch_warnings():
        # the profile is Lorentzian to machine precision, which leaves the
        # parameter covariance singular; only the fit itself matters here
        warnings.simplefilter("ignore", OptimizeWarning)
        params, _ = curve_fit(lorentzian, deltas, profile, p0=p0, maxfev=20000)
    residuals = profile - lorentzian(deltas, *params)
    r_squared = 1.0 - np.sum(residuals**2) / np.sum((profile - profile.mean())**2)

    _verdict(
        "criterion 3 (weak-driving agreement)",
        rel < 0.10 and r_squared > 0.999,
        f"BR vs phenomenological at delta=0: {rel * 100:.2f}% (tol 10%); "
        f"Lorentzian fit R^2={r_squared:.6f} (tol > 0.999)",
    )


def test_criterion_4_secular_failure_at_resonance():
    ratio = _absorption("secular", 0.0, 0.01) / _absorption("bloch_redfield", 0.0, 0.01)
    away = {}
    for delta in (-1.5, -1.0, -0.5, 0.5, 1.0, 1.5):
        br = _absorption("bloch_redfield", delta, 0.01)
        sec = _absorption("secular", delta, 0.01)
        away[delta] = abs(sec - br) / abs(br)
    worst = max(away.values())
    detail_away = ", ".join(f"delta={d:+.1f}: {v * 100:.1f}%" for d, v in away.items())
    _verdict(
        "criterion 4 (secular failure at resonance)",
        ratio >= 5.0 and worst <= 0.20,
        f"resonance overestimate {ratio:.0f}x (needs >= 5x); "
        f"off-resonance deviations [{detail_away}] (tol 20%)",
    )


def test_criterion_5_strong_driving_sign_change():
    values = {m: _absorption(m, 0.0, 1.0)
              for m in ("bloch_redfield", "secular", "phenomenological")}
    spread = (max(values.values()) - min(values.values())) / min(values.values())

    deltas = np.linspace(-1.5, 1.5, 81)
    blue = [d for d in deltas if d > 0]
    br_blue = np.array([_absorption("bloch_redfield", d, 1.0) for d in blue])
    ph_blue = np.array([_absorption("phenomenological", d, 1.0) for d in blue])
    sign_change = bool((br_blue.min() < 0.0) and (br_blue.max() > 0.0))
    phen_positive = bool(np.all(ph_blue > 0.0))

    # locate the actual crossing for the log, scanning past the grid edge
    wide = np.arange(1.5, 4.6, 0.1)
    wide_vals = np.array([_absorption("bloch_redfield", d, 1.0) for d in wide])
    crossing = "none up to delta=4.5"
    flips = np.nonzero(np.diff(np.sign(wide_vals)))[0]
    if flips.size:
        crossing = f"between delta={wide[flips[0]]:.1f} and {wide[flips[0] + 1]:.1f}"

    _verdict(
        "criterion 5 (strong-driving sign change)",
        spread <= 0.15 and sign_change and phen_positive,
        f"method spread at delta=0: {spread * 100:.2f}% (tol 15%); "
        f"BR sign change in (0, 1.5]: {sign_change} "
        f"(measured first sign change {crossing}); "
        f"phenomenological positive on (0, 1.5]: {phen_positive}",
    )


def test_criterion_6_route_cross_validation():
    rels = {}
    for omega in (0.5, 1.0):
        spec = _spec(0.0, omega)
        gen = total_liouvillian("bloch_redfield", spec, BATH)
        _, states = propagate(lambda t: gen, lower_ground_state(), 30.0, 0.05)
        trace_current = heat_current_trace(gen, states[-1])
        fd = mean_heat_fd("bloch_redfield", spec, BATH, t_end=30.0, dt=0.05,
                          u_step=0.05, scheme="forward")
        rels[omega] = abs(fd.current - trace_current) / abs(trace_current)
    detail = ", ".join(f"omega={w}: {v * 100:.3f}%" for w, v in rels.items())
    _verdict(
        "criterion 6 (route cross-validation, forward u_step=0.05)",
        max(rels.values()) <= 0.01,
        f"trace vs counting-fd relative difference [{detail}] (tol 1%)",
    )


def test_criterion_7_oracle_consistency():
    rels = {}
    for omega in (0.5, 1.0):
        for delta in (-0.5, 0.0, 0.5):
            prop = TclPropagator(_spec(delta, omega), BATH, t_mem=30.0, dt=0.02)
            _, _, record = prop.propagate(lower_ground_state(), 60.0)
            br_current = _steady("bloch_redfield", delta, omega)[1]
            rels[(omega, delta)] = abs(record.current - br_current) / abs(br_current)
    worst = max(rels.values())

    late = TclPropagator(_spec(0.0, 1.0), BATH, t_mem=30.0, dt=0.02).generator(60.0)
    markov = total_liouvillian("bloch_redfield", _spec(0.0, 1.0), BATH)
    gen_gap = float(np.abs(late.matrix - markov.matrix).max())

    _verdict(
        "criterion 7 (finite-memory oracle consistency)",
        worst <= 0.05 and gen_gap <= 1e-4,
        f"worst plateau-current deviation {worst * 100:.4f}% (tol 5%); "
        f"generator sup-norm gap {gen_gap:.2e} (tol 1e-4)",
    )


def test_criterion_8_structural_invariants():
    # trajectory conservation laws at the standard point set
    worst_trace = 0.0
    worst_herm = 0.0
    lindblad_mineig = 0.0
    br_transient_mineig = 0.0
    for omega in (0.01, 0.1, 0.5, 1.0):
        for method in ("bloch_redfield", "secular", "phenomenological"):
            gen = total_liouvillian(method, _spec(0.0, omega), BATH)
            _, states = propagate(lambda t: gen, lower_ground_state(), 30.0, 0.05)
            traces = np.trace(states, axis1=1, axis2=2)
            worst_trace = max(worst_trace, np.abs(traces - 1.0).max())
            herm = np.abs(states - np.conj(np.swapaxes(states, 1, 2))).max()
            worst_herm = max(worst_herm, herm)
            low = min_eigenvalue(states)
            if method == "bloch_redfield":
                br_transient_mineig = min(br_transient_mineig, low)
            else:
                lindblad_mineig = min(lindblad_mineig, low)

    # steady-state positivity across the shipped sweep grid
    br_steady_mineig = math.inf
    lindblad_steady_mineig = math.inf
    for omega in (0.01, 0.1, 0.5, 1.0):
        for delta in np.linspace(-1.5, 1.5, 81):
            for method in ("bloch_redfield", "secular", "phenomenological"):
                low = min_eigenvalue(_steady(method, float(delta), omega)[0])
                if method == "bloch_redfield":
                    br_steady_mineig = min(br_steady_mineig, low)
                else:
                    lindblad_steady_mineig = min(lindblad_steady_mineig, low)

    # steady state vs long-time propagation
    gen = total_liouvillian("bloch_redfield", _spec(0.0, 1.0), BATH)
    rho_ss, _ = steady_state(gen)
    _, states = propagate(lambda t: gen, lower_ground_state(), 200.0, 0.01)
    prop_gap = float(np.abs(states[-1] - rho_ss).max())

    # integrator order under step halving
    exact = expm(gen.matrix * 2.0) @ vectorize(lower_ground_state())

    def rk4_error(dt):
        _, traj = propagate(lambda t: gen, lower_ground_state(), 2.0, dt)
        return np.linalg.norm(vectorize(traj[-1]) - exact)

    order_ratio = rk4_error(0.1) / rk4_error(0.05)

    ok = (worst_trace < 1e-8 and worst_herm < 1e-8
          and lindblad_mineig >= -1e-8 and lindblad_steady_mineig >= -1e-8
          and br_steady_mineig >= -1e-6
          and prop_gap < 1e-6 and 12.0 < order_ratio < 20.0)
    _verdict(
        "criterion 8 (structural invariants)",
        ok,
        f"trace drift {worst_trace:.2e} (tol 1e-8); hermiticity {worst_herm:.2e} "
        f"(tol 1e-8); Lindblad min-eig transient {lindblad_mineig:.2e} / steady "
        f"{lindblad_steady_mineig:.2e} (tol -1e-8); BR steady-grid min-eig "
        f"{br_steady_mineig:.2e} (tol -1e-6; transient dip {br_transient_mineig:.2e} "
        f"logged, not gated); steady vs t=200 gap {prop_gap:.2e} (tol 1e-6); "
        f"RK4 halving ratio {order_ratio:.1f} (window (12, 20))",
    )


def test_criterion_9_principal_value_shift():
    closed_form = abs(shift_b(0.0, BATH) - 4.0 * BATH.alpha * BATH.omega_c)
    drifts = []
    for nu in (2.0, -2.0, 0.37):
        drifts.append(abs(shift_b(nu, BATH, tol=1e-9) - shift_b(nu, BATH, tol=5e-10)))
    refinement = max(drifts)
    _verdict(
        "criterion 9 (principal-value shift)",
        closed_form < 1e-8 and refinement < 1e-9,
        f"|B(0) - 4 alpha omega_c| = {closed_form:.2e} (tol 1e-8); "
        f"max refinement drift {refinement:.2e} (budget 1e-9)",
    )
