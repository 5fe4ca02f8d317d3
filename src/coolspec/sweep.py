"""Sweep execution and output serialization.

One record is produced per (delta, omega, method, route) tuple, in a fixed
nested order (delta outermost, route innermost), so output is byte
identical regardless of how many worker processes computed it.  The grid
is evaluated in chunks of consecutive points, each passed through every
method as one stack, once for all routes.  Per-point failures are caught
and recorded in the row's status field instead of aborting the sweep.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from functools import cache

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
from .generators import spectrum, total_liouvillian
from .system import SystemSpec, lower_ground_state
from .tcl import TclPropagator

# most grid points evaluated as one stack: the shift rule's temporaries and
# TCL's tau table and RK4 stacks grow with it, and peak memory with them
_CHUNK = 16


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
              shared=None) -> tuple[list, np.ndarray, np.ndarray]:
    """Currents, smallest eigenvalue seen and residual of every point of spec.

    Every method takes all points of a stacked spec at once and first gives
    the final generator, the final state and the smallest eigenvalue seen.
    tcl_oracle integrates its time-dependent generator by RK4 at tcl_dt
    from the lower ground state (propagate with TclPropagator.generator,
    skipping the heat record of TclPropagator.propagate): in transient
    mode up to t_end, its final generator being the one at the last grid
    time, and in steady mode up to the last row of its coefficient table,
    its final generator being the one frozen there.  Markovian methods
    build their generators (total_liouvillian, reading the eigensystem and
    rate table from shared when given); in transient mode the lower ground
    state is evolved exactly (evolve) on the time grid of step dt up to
    t_end, so dt sets only which times are sampled.  Then, for every
    method, in steady mode the final state is the stationary state of the
    final generator (steady_state, one stacked SVD, which also gives the
    residual) and joins the smallest eigenvalue seen; in transient mode the
    residual is that of the final generator and state.  This one head
    serves every route of cfg.routes, each giving a current in order: the
    trace-formula one of the final generator and state, or on counting_fd
    the heat increment over the last step (mean_heat_fd, one stacked call
    from the lower ground state, sharing the eigensystem and rate table).
    Results have the shape of spec's points.
    """
    options = dict(include_shifts=cfg.include_shifts_bloch_redfield,
                   pairing_tol=cfg.pairing_tol, shared=shared)
    if method == "tcl_oracle":
        prop = TclPropagator(spec, bath, t_mem=cfg.tcl_t_mem, dt=cfg.tcl_dt)
        horizon = cfg.t_end if cfg.mode == "transient" else prop.taus[-1]
        times, states = propagate(prop.generator, lower_ground_state(), horizon, prop.dt)
        gen = prop.generator(times[-1] if cfg.mode == "transient" else horizon)
        rho, seen = states[..., -1, :, :], min_eigenvalue(states)
    else:
        gen = total_liouvillian(method, spec, bath, **options)
        seen = np.inf
        if cfg.mode == "transient":
            states = evolve(gen, lower_ground_state(), cfg.t_end, cfg.dt)[1]
            rho, seen = states[..., -1, :, :], min_eigenvalue(states)
    if cfg.mode == "steady":
        rho, residual = steady_state(gen)
        seen = np.minimum(seen, min_eigenvalue(rho[..., None, :, :]))
    else:
        residual = steady_residual(gen, rho)
    currents = [mean_heat_fd(method, spec, bath, cfg.t_end, cfg.dt, route.u_step,
                             route.scheme, **options).current
                if route.kind == "counting_fd" else heat_current_trace(gen, rho)
                for route in cfg.routes]
    return currents, seen, residual


def _problem(cfg: SweepConfig, deltas: list[float],
             omegas: list[float]) -> tuple[SystemSpec, BathSpec]:
    """System of the points (deltas[k], omegas[k]), stacked unless there is one, and the bath."""
    one = len(deltas) == 1
    spec = SystemSpec(e_man=cfg.e_man, gamma_rad=cfg.gamma_rad,
                      delta=deltas[0] if one else np.array(deltas),
                      omega_rabi=omegas[0] if one else np.array(omegas))
    return spec, BathSpec(alpha=cfg.alpha, omega_c=cfg.omega_c, temperature=cfg.temperature)


def _records(cfg: SweepConfig, deltas: list[float], omegas: list[float], method: str,
             shared=None) -> list[list[SpectrumRecord]]:
    """Records of the points (deltas[k], omegas[k]) for one method, per point.

    Entry k lists point k's record for each of cfg.routes, in order.  The
    points are evaluated as one stack (shared holds their eigensystem and
    rate table).  When that raises, each point is evaluated on its own, so
    a failure, a LinAlgError included, marks only the points that cause
    it; a single point's exception becomes the status of all its routes.
    """
    try:
        currents, seen, residual = _evaluate(cfg, *_problem(cfg, deltas, omegas), method, shared)
        values = np.reshape([*currents, seen, residual], (len(cfg.routes) + 2, -1))
        status = "ok"
    except Exception as exc:
        if len(deltas) > 1:
            return [part for d, w in zip(deltas, omegas)
                    for part in _records(cfg, [d], [w], method)]
        values = np.full((len(cfg.routes) + 2, 1), math.nan)
        status = f"error: {type(exc).__name__}: {exc}"
    sign = -1.0 if cfg.sign == "absorption_positive" else 1.0
    return [[SpectrumRecord(delta=d, omega=w, method=method, route=route.kind,
                            heat_absorption_rate=sign * float(current),
                            min_eigenvalue_seen=float(seen), steady_residual=float(residual),
                            status=status)
             for route, current in zip(cfg.routes, currents)]
            for d, w, *currents, seen, residual in zip(deltas, omegas, *values)]


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
    most _CHUNK, each evaluated as one stack (_evaluate_chunk); workers
    receive whole chunks, and at most one worker per chunk is started, none
    when there is only one chunk.  Chunk boundaries do not depend on jobs,
    and results are ordered (delta, omega, method, route) regardless of
    jobs.
    The config, even one built in code, and jobs >= 1 are checked here
    first (ConfigError).
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    validate_config(cfg)
    points = [(float(delta), float(omega))
              for delta in delta_grid(cfg) for omega in cfg.omega_list]
    chunks = [points[start:start + _CHUNK] for start in range(0, len(points), _CHUNK)]
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        values = (getattr(r, c) for c in CSV_COLUMNS)
        writer.writerow([v if isinstance(v, str) else format_number(v) for v in values])
    return buf.getvalue()


def _json_value(value) -> str:
    if isinstance(value, str):
        return json.dumps(value)
    token = format_number(value)
    return "null" if token == "nan" else token


def render_json(records: list[SpectrumRecord]) -> str:
    """JSON array with numbers rendered exactly as in the csv output."""
    rows = ["  {" + ", ".join(f"{json.dumps(c)}: {_json_value(getattr(r, c))}"
                              for c in CSV_COLUMNS) + "}"
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
