"""Sweep execution and output serialization.

One record is produced per (delta, omega, method, route) tuple, in a fixed
nested order (delta outermost, route innermost), so output is byte
identical regardless of how many worker processes computed it.  Per-point
failures are caught and recorded in the row's status field instead of
aborting the sweep.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .bath import BathSpec
from .config import HeatRoute, SweepConfig, validate_config
from .dynamics import (
    evolve,
    heat_current_trace,
    mean_heat_fd,
    min_eigenvalue,
    steady_residual,
    steady_state,
)
from .generators import total_liouvillian
from .system import SystemSpec, lower_ground_state
from .tcl import MemoryKernelConfig, TclPropagator

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


def _evaluate(cfg: SweepConfig, spec: SystemSpec, bath: BathSpec,
              method: str, route: HeatRoute) -> tuple[float, float, float]:
    """Current, smallest eigenvalue seen and residual of one point.

    The method gives the final generator and the states seen.  Markovian
    methods in steady mode solve for the stationary state; in transient
    mode they evolve the lower ground state exactly (evolve) on the time
    grid of step dt up to t_end, so dt sets only which times are sampled,
    and the counting_fd current is the heat increment over the last step.
    tcl_oracle integrates its time-dependent generator by RK4 at tcl_dt, in
    transient mode up to t_end and in steady mode, which has no closed-form
    steady state for this generator, up to the plateau time tcl_t_end; its
    final generator is the one at the last grid time.  Except on the
    counting_fd route, the current is the trace-formula one of the final
    generator and state.
    """
    record = None
    if method == "tcl_oracle":
        horizon = cfg.t_end if cfg.mode == "transient" else cfg.tcl_t_end
        prop = TclPropagator(spec, bath, MemoryKernelConfig(t_mem=cfg.tcl_t_mem, dt=cfg.tcl_dt))
        times, states, _ = prop.propagate(lower_ground_state(), horizon)
        gen = prop.generator(times[-1])
    else:
        gen = total_liouvillian(method, spec, bath,
                                include_shifts=cfg.include_shifts_bloch_redfield,
                                pairing_tol=cfg.pairing_tol)
        if cfg.mode == "steady":
            if route.kind != "trace_formula":
                raise ValueError("the counting_fd route needs a transient propagation")
            states = steady_state(gen)[None]
        else:
            _, states = evolve(gen, lower_ground_state(), cfg.t_end, cfg.dt)
            if route.kind == "counting_fd":
                record = mean_heat_fd(method, spec, bath, t_end=cfg.t_end, dt=cfg.dt,
                                      u_step=route.u_step, scheme=route.scheme,
                                      include_shifts=cfg.include_shifts_bloch_redfield,
                                      pairing_tol=cfg.pairing_tol)
    current = heat_current_trace(gen, states[-1]) if record is None else record.current
    return current, min_eigenvalue(states), steady_residual(gen, states[-1])


def evaluate_point(cfg: SweepConfig, delta: float, omega: float, method: str,
                   route: HeatRoute) -> SpectrumRecord:
    """Compute one sweep record; exceptions become an error status."""
    try:
        spec = SystemSpec(e_man=cfg.e_man, delta=delta, omega_rabi=omega,
                          gamma_rad=cfg.gamma_rad)
        bath = BathSpec(alpha=cfg.alpha, omega_c=cfg.omega_c,
                        temperature=cfg.temperature)
        current, seen, residual = _evaluate(cfg, spec, bath, method, route)
        rate = -current if cfg.sign == "absorption_positive" else current
        return SpectrumRecord(delta=delta, omega=omega, method=method,
                              route=route.kind, heat_absorption_rate=rate,
                              min_eigenvalue_seen=seen, steady_residual=residual)
    except Exception as exc:
        return SpectrumRecord(delta=delta, omega=omega, method=method,
                              route=route.kind, heat_absorption_rate=math.nan,
                              min_eigenvalue_seen=math.nan, steady_residual=math.nan,
                              status=f"error: {type(exc).__name__}: {exc}")


def run_sweep(cfg: SweepConfig, jobs: int = 1) -> list[SpectrumRecord]:
    """Evaluate the full grid, optionally across worker processes.

    Results are ordered (delta, omega, method, route) regardless of jobs.
    A config built in code is validated here first (ConfigError).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    validate_config(cfg)
    tasks = [
        (cfg, float(delta), float(omega), method, route)
        for delta in delta_grid(cfg)
        for omega in cfg.omega_list
        for method in cfg.methods
        for route in cfg.routes
    ]
    if jobs == 1:
        return [evaluate_point(*t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(evaluate_point, *zip(*tasks), chunksize=8))


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
