"""Sweep execution and output serialization.

One record is produced per (delta, omega, method, route) tuple, in a fixed
nested order (delta outermost, route innermost), so output is byte
identical regardless of how many worker processes computed it.  The grid
is evaluated in chunks of consecutive points, each passed through every
method as one stack, once for all routes; the chunk size follows what a
point holds (_stack_size): up to 512 points of a steady grid of Markovian
methods, 16 points that carry a time axis, fewer when their longest time
axis (trajectory or tau table) exceeds a byte budget.  Per-point and
per-route failures are caught and recorded in the row's status field
instead of aborting the sweep.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from functools import cache
from operator import attrgetter

import numpy as np

from .bath import BathSpec
from .config import ConfigError, SweepConfig, validate_config
from .dynamics import (
    evolve,
    heat_current_trace,
    mean_heat_fd,
    min_eigenvalue,
    propagate,
    steady_residual,
    steady_state,
)
from .generators import Liouvillian, from_real, spectrum, to_real, total_liouvillian
from .system import SystemSpec, lower_ground_state
from .tcl import TclPropagator, tau_grid

# most grid points evaluated as one stack (_stack_size).  A point with a
# time axis (transient mode or tcl_oracle) holds trajectories and RK4
# stacks, and larger stacks ran no faster (fig3a: 48-point stacks 1.11x,
# 81-point 1.02x the time of 16-point ones); a steady Markovian point holds
# a few 9x9 matrices, and a stack pays each layer's per-call cost once
# (fig2's 324 points as one stack: 0.69x the time of 16-point stacks)
_CHUNK = 16
_STEADY_CHUNK = 512
# bytes of its points' longest time axis one stack may hold, a 3x3 complex
# array per row: 16 points at the default tcl.t_mem 30 (3,001 tau rows), 4
# at t_mem 400 and omega_c 0.02 (40,001 rows), where a 16-point steady
# tcl_oracle sweep then peaked at 99.5-99.9 MB RSS in 4.2-4.7 s, against
# 291.5 MB in 3.9-4.6 s as one stack and 66.6 MB in 5.2 s in stacks of 2;
# 4 for a transient trajectory of t_end 2000 at dt 0.05 (40,001 states),
# where a 16-point Bloch-Redfield sweep peaked at 97.0 MB in 0.28-0.33 s,
# against 282.5 MB in 0.38-0.54 s as one stack (2 vCPUs, one BLAS thread)
_TIME_AXIS_BYTES = 24 * 2**20


@dataclass(frozen=True)
class SpectrumRecord:
    """One sweep point: sampled parameters, measured rate, diagnostics.

    Under the default absorption_positive sign convention the
    heat_absorption_rate column is positive when the bath loses energy to
    the system (cooling); bath_gain_positive flips it.  On failure the
    numeric fields are NaN and status holds the error; otherwise status
    is "ok".
    """

    delta: float
    omega: float
    method: str
    route: str
    heat_absorption_rate: float
    min_eigenvalue_seen: float
    steady_residual: float
    status: str = "ok"


# output columns of both formats, in order: the record's fields
CSV_COLUMNS = tuple(f.name for f in fields(SpectrumRecord))


def delta_grid(cfg: SweepConfig) -> np.ndarray:
    """Detuning grid; a single step collapses to delta_min."""
    return np.linspace(cfg.delta_min, cfg.delta_max, cfg.delta_steps)


def _evaluate(cfg: SweepConfig, spec: SystemSpec, bath: BathSpec, method: str,
              options: dict) -> tuple:
    """Final generator, final state, smallest eigenvalue seen and residual of spec's points.

    Every method takes all points of a stacked spec at once and first gives
    the final generator, the final state and the smallest eigenvalue seen.
    tcl_oracle integrates its time-dependent generator by RK4 at tcl_dt
    from the lower ground state (propagate with
    TclPropagator.matrix_generator, real matrices in real Hermitian
    coordinates without the heat kernels; the heat record of
    TclPropagator.propagate is skipped too): in transient
    mode up to t_end, its final generator being the one at the last grid
    time, and in steady mode up to the last row of its coefficient table,
    its final generator being the one frozen there.  Markovian methods
    build their generators (total_liouvillian with options, which may hold
    a shared eigensystem and rate table); in transient mode the generator
    is mapped once to real Hermitian coordinates (generators.to_real) and
    the lower ground state is evolved exactly (evolve) on the time grid of
    step dt up to t_end, so dt sets only which times are sampled.  Either
    trajectory stays in these coordinates through min_eigenvalue, and only
    its final state is mapped back to 3x3 (generators.from_real).  Then,
    for every method, in steady mode the final state is the stationary
    state of the final generator (steady_state, one stacked real SVD,
    which also gives the residual) and joins the smallest eigenvalue seen;
    in transient mode the residual is that of the final generator and
    state.  This one head serves every route of cfg.routes.  Results have
    the shape of spec's points.
    """
    if method == "tcl_oracle":
        prop = TclPropagator(spec, bath, t_mem=cfg.tcl_t_mem, dt=cfg.tcl_dt)
        horizon = cfg.t_end if cfg.mode == "transient" else prop.taus[-1]
        times, coords = propagate(prop.matrix_generator, lower_ground_state(), horizon, prop.dt)
        gen = prop.generator(times[-1] if cfg.mode == "transient" else horizon)
        rho, seen = from_real(coords[..., -1, :]), min_eigenvalue(coords)
    else:
        gen = total_liouvillian(method, spec, bath, **options)
        seen = np.inf
        if cfg.mode == "transient":
            coords = evolve(Liouvillian(matrix=to_real(gen.matrix)), lower_ground_state(),
                            cfg.t_end, cfg.dt)[1]
            rho, seen = from_real(coords[..., -1, :]), min_eigenvalue(coords)
    if cfg.mode == "steady":
        rho, residual = steady_state(gen)
        seen = np.minimum(seen, min_eigenvalue(rho[..., None, :, :]))
    else:
        residual = steady_residual(gen, rho)
    return gen, rho, seen, residual


def _problem(cfg: SweepConfig, deltas: list[float],
             omegas: list[float]) -> tuple[SystemSpec, BathSpec]:
    """System of the points (deltas[k], omegas[k]), stacked whatever their count, and the bath."""
    spec = SystemSpec(e_man=cfg.e_man, gamma_rad=cfg.gamma_rad, delta=np.array(deltas),
                      omega_rabi=np.array(omegas))
    return spec, BathSpec(alpha=cfg.alpha, omega_c=cfg.omega_c, temperature=cfg.temperature)


def _records(cfg: SweepConfig, deltas: list[float], omegas: list[float], method: str,
             shared=None) -> list[list[SpectrumRecord]]:
    """Records of the points (deltas[k], omegas[k]) for one method, per point.

    Entry k lists point k's record for each of cfg.routes, in order.  The
    points are evaluated as one stack (shared holds their eigensystem and
    rate table): one head (_evaluate), then each route's current, in
    order: the trace-formula one of the final generator and state, or on
    counting_fd the heat increment over the last step (mean_heat_fd, one
    stacked call from the lower ground state, sharing the eigensystem and
    rate table).  When any of that raises, the stack is split into
    halves, each evaluated as a stack the same way, down to single points;
    a failure, a LinAlgError included, thus marks only the points that
    cause it, in about 2 log2(len(deltas)) stacks per failing point.  A
    single point's head exception becomes the status of all its routes, a
    route's own exception that route's only.
    """
    options = dict(include_shifts=cfg.include_shifts_bloch_redfield,
                   pairing_tol=cfg.pairing_tol, shared=shared)
    outcomes = []
    try:
        spec, bath = _problem(cfg, deltas, omegas)
        gen, rho, seen, residual = _evaluate(cfg, spec, bath, method, options)
    except Exception as exc:
        outcomes = [exc] * len(cfg.routes)
    for route in cfg.routes[len(outcomes):]:
        try:
            outcomes.append(mean_heat_fd(method, spec, bath, cfg.t_end, cfg.dt, route.u_step,
                                         route.scheme, **options).current
                            if route.kind == "counting_fd" else heat_current_trace(gen, rho))
        except Exception as exc:
            outcomes.append(exc)
    failed = [isinstance(outcome, Exception) for outcome in outcomes]
    if len(deltas) > 1 and any(failed):
        half = len(deltas) // 2
        return (_records(cfg, deltas[:half], omegas[:half], method)
                + _records(cfg, deltas[half:], omegas[half:], method))
    sign = -1.0 if cfg.sign == "absorption_positive" else 1.0
    # (route, current / seen / residual, point)
    values = np.full((len(cfg.routes), 3, len(deltas)), math.nan)
    for row, outcome, bad in zip(values, outcomes, failed):
        if not bad:
            row[:] = np.reshape([sign * outcome, seen, residual], (3, -1))
    statuses = [f"error: {type(outcome).__name__}: {outcome}" if bad else "ok"
                for outcome, bad in zip(outcomes, failed)]
    return [[SpectrumRecord(delta=d, omega=w, method=method, route=route.kind,
                            heat_absorption_rate=current, min_eigenvalue_seen=low,
                            steady_residual=res, status=status)
             for route, status, (current, low, res) in zip(cfg.routes, statuses, point)]
            for d, w, point in zip(deltas, omegas, np.moveaxis(values, -1, 0).tolist())]


def _stack_size(cfg: SweepConfig) -> int:
    """Most consecutive grid points that cfg evaluates as one stack.

    _STEADY_CHUNK for a steady config of Markovian methods only, whose
    points carry no time axis.  Otherwise _CHUNK, and no more than the
    points whose longest time axis fits in _TIME_AXIS_BYTES (at least one).
    That axis is the longer of tcl_oracle's tau table (tau_grid) and, in
    transient mode, the stored trajectory: round(t_end / dt) + 1 states,
    at tcl_dt for tcl_oracle.
    """
    rows = []
    if "tcl_oracle" in cfg.methods:
        rows.append(tau_grid(cfg.tcl_t_mem, cfg.tcl_dt, cfg.omega_c)[1])
    if cfg.mode == "transient":
        rows += [1.0 + np.rint(cfg.t_end / (cfg.tcl_dt if method == "tcl_oracle" else cfg.dt))
                 for method in cfg.methods]
    if not rows:
        return _STEADY_CHUNK
    row_bytes = lower_ground_state().nbytes
    return int(max(1.0, min(_CHUNK, _TIME_AXIS_BYTES // (max(rows) * row_bytes))))


def _evaluate_chunk(cfg: SweepConfig, points: list[tuple[float, float]]) -> list[SpectrumRecord]:
    """Records of consecutive grid points, in (point, method, route) order.

    The points share one eigensystem and rate table, computed on first use,
    across all methods; each method evaluates them once for all routes.
    """
    deltas, omegas = (list(axis) for axis in zip(*points))
    shared = cache(lambda: spectrum(*_problem(cfg, deltas, omegas)))
    columns = [_records(cfg, deltas, omegas, method, shared) for method in cfg.methods]
    return [rec for row in zip(*columns) for part in row for rec in part]


def run_sweep(cfg: SweepConfig, jobs: int = 1) -> list[SpectrumRecord]:
    """Evaluate the full grid, optionally across worker processes.

    The (delta, omega) points are taken in output order in chunks of at
    most _stack_size(cfg), each evaluated as one stack (_evaluate_chunk);
    workers receive whole chunks, and at most one worker per chunk is
    started, none when there is only one chunk.  Chunk boundaries do not
    depend on jobs, and results are ordered (delta, omega, method, route)
    regardless of jobs.
    The config, even one built in code, and jobs >= 1 are checked here
    first (ConfigError).
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    validate_config(cfg)
    points = [(float(delta), float(omega))
              for delta in delta_grid(cfg) for omega in cfg.omega_list]
    size = _stack_size(cfg)
    chunks = [points[start:start + size] for start in range(0, len(points), size)]
    # a pool starts all of its workers at once, so start none that would idle
    jobs = min(jobs, len(chunks))
    if jobs == 1:
        parts = [_evaluate_chunk(cfg, chunk) for chunk in chunks]
    else:
        # imported here so that importing the package does not load it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_evaluate_chunk, [cfg] * len(chunks), chunks))
    return [rec for part in parts for rec in part]


def format_number(x: float) -> str:
    """Fixed 12-significant-digit decimal rendering shared by csv and json."""
    if x is None or not math.isfinite(x):
        return "nan"
    return format(float(x), ".12g")


def render_csv(records: list[SpectrumRecord]) -> str:
    row = attrgetter(*CSV_COLUMNS)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([v if isinstance(v, str) else format_number(v) for v in row(r)]
                     for r in records)
    return buf.getvalue()


def _json_value(value) -> str:
    if isinstance(value, str):
        return json.dumps(value)
    token = format_number(value)
    return "null" if token == "nan" else token


def render_json(records: list[SpectrumRecord]) -> str:
    """JSON array with numbers rendered exactly as in the csv output."""
    row = attrgetter(*CSV_COLUMNS)
    keys = [f"{json.dumps(c)}: " for c in CSV_COLUMNS]
    rows = ["  {" + ", ".join(k + _json_value(v) for k, v in zip(keys, row(r))) + "}"
            for r in records]
    return "[\n" + ",\n".join(rows) + "\n]\n"


def write_output(records: list[SpectrumRecord], path: str, fmt: str):
    """Write records to path as 'csv' or 'json'."""
    if fmt == "csv":
        text = render_csv(records)
    elif fmt == "json":
        text = render_json(records)
    else:
        raise ValueError(f"unknown output format {fmt!r}; expected 'csv' or 'json'")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
