"""Sweep execution and output serialization.

One record is produced per (delta, omega, method, route) tuple, in a fixed
nested order (delta outermost, route innermost), so output is byte
identical regardless of how many worker processes computed it.  The grid
is evaluated in chunks of consecutive points, each passed through every
method as one stack, once for all routes; the chunk size follows what a
point holds (_stack_size): up to 512 points of a steady grid of Markovian
methods, 16 points that carry a time axis, fewer when their longest time
axis (trajectory or tau table) exceeds a byte budget.  Blocks of up to 512
points, whole chunks, share one value of what their generators share
(generators.spectrum), computed up front.  The trace_formula route reads
each point's final generator's heat operator in its final state
(dynamics.heat_current_trace), the counting_fd route the heat increment
of mean_heat_fd.  Per-point and per-route failures are caught and
recorded in the row's status field instead of aborting the sweep.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

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
from .generators import Liouvillian, Spectrum, from_real, spectrum, to_real, total_liouvillian
from .system import SystemSpec, lower_ground_state
from .tcl import TclPropagator, tau_grid

# stack and block sizes (_stack_size, run_sweep); README's "Stack and block sizes" has why
_CHUNK = 16
_STEADY_CHUNK = 512
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
              shared: Spectrum) -> tuple:
    """Final generator, final state, smallest eigenvalue seen and residual of spec's points.

    All points of a stacked spec are evaluated at once, in one head for
    every route of cfg.routes; results have the shape of spec's points.
    tcl_oracle integrates its time-dependent generator by RK4 at tcl_dt from
    the lower ground state (propagate with TclPropagator.matrix_generator:
    real matrices in real Hermitian coordinates, without heat operators or
    heat record) up to t_end in transient mode, its final generator the one
    at the last grid time, or up to its coefficient table's last row,
    frozen there, in steady mode.  Markovian methods build their generators
    (total_liouvillian with cfg.pairing_tol and shared, the points' value
    of generators.spectrum); in transient mode the lower ground state
    is evolved exactly (evolve) under the generator in real Hermitian
    coordinates (to_real) on the grid of step dt up to t_end, so dt sets
    only which times are sampled.  A trajectory stays in these coordinates through
    min_eigenvalue; only its final state is mapped to 3x3 (from_real).  In
    steady mode the final state is the stationary state of the final
    generator (steady_state, which also gives the residual) and joins the
    smallest eigenvalue seen; in transient mode the residual is that of
    the final generator and state.
    """
    if method == "tcl_oracle":
        prop = TclPropagator(spec, bath, t_mem=cfg.tcl_t_mem, dt=cfg.tcl_dt)
        horizon = cfg.t_end if cfg.mode == "transient" else prop.taus[-1]
        times, coords = propagate(prop.matrix_generator, lower_ground_state(), horizon, prop.dt)
        gen = prop.generator(times[-1] if cfg.mode == "transient" else horizon)
        rho, seen = from_real(coords[..., -1, :]), min_eigenvalue(coords)
    else:
        gen = total_liouvillian(method, spec, bath, pairing_tol=cfg.pairing_tol, shared=shared)
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
             shared: Spectrum | None = None) -> list[list[SpectrumRecord]]:
    """Records of the points (deltas[k], omegas[k]) for one method, per point.

    Entry k lists point k's record for each of cfg.routes, in order.  The
    points are evaluated as one stack, given shared, their value of
    generators.spectrum, or None to build the one method reads (shifts as
    cfg.include_shifts_bloch_redfield): one head (_evaluate), then each
    route's current, in order: the trace-formula one of the final generator
    and state, or on counting_fd the heat increment over the last step
    (mean_heat_fd, one stacked call from the lower ground state, also given
    shared).  When any of that raises, the stack is split into halves, each
    evaluated the same way with its rows of shared (Spectrum.rows), down to
    single points, so a failure, a LinAlgError included, marks only the
    points that cause it, in about 2 log2(len(deltas)) stacks per failing
    point.
    A single point's head exception becomes the status of all its routes,
    a route's own exception that route's only.
    """
    outcomes = []
    try:
        spec, bath = _problem(cfg, deltas, omegas)
        if shared is None:
            shared = spectrum(spec, bath, (method,), cfg.include_shifts_bloch_redfield)
        gen, rho, seen, residual = _evaluate(cfg, spec, bath, method, shared)
    except Exception as exc:
        outcomes = [exc] * len(cfg.routes)
    for route in cfg.routes[len(outcomes):]:
        try:
            outcomes.append(mean_heat_fd(method, spec, bath, cfg.t_end, cfg.dt, route.u_step,
                                         route.scheme, cfg.pairing_tol, shared).current
                            if route.kind == "counting_fd" else heat_current_trace(gen, rho))
        except Exception as exc:
            outcomes.append(exc)
    failed = [isinstance(outcome, Exception) for outcome in outcomes]
    if any(failed) and len(deltas) > 1:
        cuts = sorted({0, len(deltas) // 2, len(deltas)})
        return [part for start, stop in zip(cuts, cuts[1:])
                for part in _records(cfg, deltas[start:stop], omegas[start:stop], method,
                                     shared and shared.rows(slice(start, stop)))]
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
    at tcl_dt for tcl_oracle; a row of either takes 144 bytes.
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


def _evaluate_block(cfg: SweepConfig, points: list[tuple[float, float]],
                    size: int) -> list[SpectrumRecord]:
    """Records of consecutive grid points, in (point, method, route) order.

    Each method evaluates each chunk of size points as one stack, once for
    all routes.  All points share one value of generators.spectrum (for
    cfg.methods, shifts as cfg.include_shifts_bloch_redfield), computed up
    front; each chunk hands its rows (Spectrum.rows), bitwise its own
    value, to every method, so static_part and the shift rule's fixed cost
    are paid once per block.  When the block value raises, each chunk
    builds its own, and only a chunk that holds the failing point splits
    (_records).
    """
    deltas, omegas = (list(axis) for axis in zip(*points))
    try:
        block = spectrum(*_problem(cfg, deltas, omegas), cfg.methods,
                         cfg.include_shifts_bloch_redfield)
    except Exception:
        # each chunk builds its own, and the one that fails records why
        block = None
    records = []
    for start in range(0, len(points), size):
        rows = slice(start, start + size)
        shared = block and block.rows(rows)
        columns = [_records(cfg, deltas[rows], omegas[rows], method, shared)
                   for method in cfg.methods]
        records += [rec for row in zip(*columns) for part in row for rec in part]
    return records


def run_sweep(cfg: SweepConfig, jobs: int = 1) -> list[SpectrumRecord]:
    """Evaluate the full grid, optionally across worker processes.

    The (delta, omega) points are taken in output order in chunks of at
    most _stack_size(cfg), and the chunks in as few blocks as hold at most
    _STEADY_CHUNK points each and give every worker one, equal to within a
    chunk (_evaluate_block).  Workers receive whole blocks; at most one per
    chunk is started, none for one chunk.  Neither chunk boundaries nor the
    output order (delta, omega, method, route) depend on jobs.  The
    config, even one built in code, and jobs >= 1 are checked here first
    (ConfigError).
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    validate_config(cfg)
    points = [(float(delta), float(omega))
              for delta in delta_grid(cfg) for omega in cfg.omega_list]
    size = _stack_size(cfg)
    chunks = -(-len(points) // size)
    # a pool starts all of its workers at once, so start none that would idle
    jobs = min(jobs, chunks)
    count = max(jobs, -(-chunks // (_STEADY_CHUNK // size)))
    blocks = [points[k * chunks // count * size:(k + 1) * chunks // count * size]
              for k in range(count)]
    if jobs == 1:
        parts = [_evaluate_block(cfg, block, size) for block in blocks]
    else:
        # imported here so that importing the package does not load it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_evaluate_block, [cfg] * count, blocks, [size] * count))
    return [rec for part in parts for rec in part]


def format_number(x: float, missing: str = "nan") -> str:
    """Fixed 12-significant-digit rendering shared by csv and json; missing if not finite."""
    return "%.12g" % x if x is not None and math.isfinite(x) else missing


def _quoted(text: str) -> str:
    """A csv text field, quoted where csv.writer's default dialect quotes it.

    That is on a comma, a double quote, a newline or a carriage return, the
    quotes doubled, so that csv.reader reads every row back.
    """
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(records: list[SpectrumRecord], missing: str, text):
    """Each record's CSV_COLUMNS rendered, both formats' one formatter.

    Numbers by format_number (missing where not finite), text by text.
    """
    for r in records:
        yield (format_number(r.delta, missing), format_number(r.omega, missing), text(r.method),
               text(r.route), format_number(r.heat_absorption_rate, missing),
               format_number(r.min_eigenvalue_seen, missing),
               format_number(r.steady_residual, missing), text(r.status))


def render_csv(records: list[SpectrumRecord]) -> str:
    """CSV with a header row, one line per record: nan for non-finite numbers.

    Text is quoted as csv.writer quotes it (_quoted), lines end in "\\n".
    """
    return "".join([",".join(CSV_COLUMNS) + "\n"] + [
        f"{d},{w},{m},{route},{rate},{low},{res},{status}\n"
        for d, w, m, route, rate, low, res, status in _cells(records, "nan", _quoted)])


def render_json(records: list[SpectrumRecord]) -> str:
    """JSON array, one object per record: numbers as in the csv, null for its nan."""
    rows = [f'  {{"delta": {d}, "omega": {w}, "method": {m}, "route": {route}, '
            f'"heat_absorption_rate": {rate}, "min_eigenvalue_seen": {low}, '
            f'"steady_residual": {res}, "status": {status}}}'
            for d, w, m, route, rate, low, res, status in _cells(records, "null", json.dumps)]
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
