#!/usr/bin/env python3
"""coolspec benchmark: cold-process workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload fig2_steady --seed 0 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from the repository root; the program is imported from ./src.  Every
repetition is a fresh interpreter running `coolspec.cli.main` serially
(`--jobs 1`), so import cost and the package's lru_caches start cold, as
they do for a CLI user.  `--trace 0` times untraced repetitions and prints
the end-to-end metrics; `--trace 1` alternates at least three untraced
and two traced repetitions and prints the per-layer metrics.  `--workload all`
runs both modes on every workload.  Each output record is checked against
the stored reference.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  See
README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCES = HERE / "references"

# The shipped profiles written out as configs, so that a seed can shift
# the detuning grid.  At slot 0 they equal `reproduce --profile
# paper-fig2` and `paper-fig3a` (make_references.py checks this).
WORKLOADS = {
    "fig2_steady": {
        "sweep": {"delta_min": -1.5, "delta_max": 1.5, "delta_steps": 81,
                  "omega_list": [0.01, 0.1, 0.5, 1.0]},
        "methods": ["bloch_redfield", "secular", "phenomenological"],
        "mode": {"kind": "steady"},
    },
    "fig3a_transient": {
        "sweep": {"delta_min": -1.5, "delta_max": 1.5, "delta_steps": 81,
                  "omega_list": [0.5]},
        "methods": ["bloch_redfield"],
        "mode": {"kind": "transient", "t_end": 30.0, "dt": 0.05},
        "heat_route": {"kind": "counting_fd", "u_step": 0.05, "scheme": "forward"},
    },
    "tcl_oracle": {
        "sweep": {"delta_min": -1.0, "delta_max": 1.0, "delta_steps": 5,
                  "omega_list": [0.5]},
        "methods": ["tcl_oracle", "bloch_redfield"],
        "mode": {"kind": "steady"},
    },
}

# A nonzero seed shifts every detuning by slot / OFFSET_SLOTS of a grid
# step; references are stored for each slot.
OFFSET_SLOTS = 8

# heat_absorption_rate must agree to RATE_RTOL relative plus RATE_ATOL
# absolute.  This admits the ~2e-11 relative change that exact propagation
# makes on fig3a and rejects dropping the Bloch-Redfield shift terms or
# switching the counting route's finite-difference scheme (both percent
# level).  The diagnostic columns are compared absolutely.
RATE_RTOL = 1e-6
RATE_ATOL = 1e-12
DIAG_ATOL = 1e-8

# One BLAS thread per child.  On a two-vCPU virtual machine two OpenBLAS
# threads made a 400x400 eigensolve 15 to 170 times slower, varying from
# call to call, and slowed even single-threaded numpy code, which spread
# every timing; one thread is at most nproc on any machine.
BLAS_THREADS = 1

# Wall and import times are scaled by CALIBRATION_REFERENCE_S / the time
# of calibrate(), averaged over a call in this process just before the
# child starts and one just after it ends.  This cancels the drift of the
# machine's speed, which on a shared two-vCPU machine moved raw run
# medians by up to 30% within minutes.  The constant is the kernel's
# median time on the reference machine described in README.md, so values
# read as seconds there.
CALIBRATION_REFERENCE_S = 0.22

MIN_REPS = 3
MIN_TRACED_REPS = 2
SETUP_SAMPLES = 3
# every child must end before this many seconds after the run started
DEADLINE_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)

SPAN_LABELS = tuple(label for label, _, _ in SPANS)

PER_LAYER = tuple(
    (f"{label}.{kind}", unit)
    for label in SPAN_LABELS
    for kind, unit in (("calls", "count"), ("self_s", "s"))
) + (
    ("bath.quad.calls", "count"),
    ("dynamics.propagate.steps", "count"),
    ("dynamics.propagate.us_per_step", "us"),
    ("tcl.correlation_grid.first_call_s", "s"),
    ("tcl.step_us", "us"),
    ("sweep.evaluate_point.p50_ms", "ms"),
    ("sweep.evaluate_point.tail_ms", "ms"),
    ("sweep.evaluate_point.tail_pct", "%"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.absent", "count"),
    ("output.max_rel_dev", "ratio"),
)

# percentiles tried for the tail, highest first; the tail is the highest
# one with at least ten samples beyond it
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)


class BenchError(RuntimeError):
    """The benchmark could not measure the program."""


def calibrate() -> float:
    """Seconds taken by a fixed kernel like the coolspec workloads.

    It mixes numpy calls on 9x9 matrices, scalar Python arithmetic, and
    small dense BLAS and vectorised transcendental work, in about equal
    time, and uses no coolspec code.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    eye = np.eye(3)
    sym = rng.standard_normal((400, 400))
    sym = sym + sym.T
    taus = np.linspace(0.0, 30.0, 400)
    omega = np.linspace(0.0, 40.0, 2000)
    np.linalg.eigvalsh(sym[:8, :8])  # start BLAS before timing
    start = time.perf_counter()
    y = np.ones(9, dtype=complex)
    for _ in range(600):
        k = np.kron(a.T, eye) - np.kron(eye, a)
        y = k @ y
        y = y / np.abs(y).max()
        np.linalg.svd(k)
    acc = 0.0
    for i in range(150_000):
        w = 1e-3 + 1e-4 * i
        acc += w**3 * math.exp(-w) / math.expm1(w / 3.0)
    for _ in range(3):
        np.linalg.eigvalsh(sym)
        np.cos(np.outer(taus, omega)) @ omega
    return time.perf_counter() - start


def offset_slot(seed: int) -> int:
    return 0 if seed == 0 else 1 + random.Random(seed).randrange(OFFSET_SLOTS - 1)


def workload_config(name: str, slot: int) -> dict:
    cfg = json.loads(json.dumps(WORKLOADS[name]))
    sweep = cfg["sweep"]
    step = (sweep["delta_max"] - sweep["delta_min"]) / (sweep["delta_steps"] - 1)
    shift = slot / OFFSET_SLOTS * step
    sweep["delta_min"] += shift
    sweep["delta_max"] += shift
    return cfg


def reference_path(name: str, slot: int) -> Path:
    return REFERENCES / f"{name}-{slot}.csv.gz"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("COOLSPEC_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Session:
    """Scratch directory and deadline shared by the children of one run.

    Pins the BLAS threads of this process, before it first loads numpy
    for the calibration kernel, and of every child.
    """

    def __init__(self, workdir: Path):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(BLAS_THREADS)
        self.workdir = workdir
        self.env = child_env()
        self.deadline = time.monotonic() + DEADLINE_S
        self._count = 0

    def child(self, cli_argv: list[str] | None = None, trace: bool = False) -> dict:
        """Run child.py once and return its result."""
        self._count += 1
        result_path = self.workdir / f"child-{self._count}.json"
        cmd = [sys.executable, str(CHILD), "--result", str(result_path)]
        if trace:
            cmd.append("--trace")
        if cli_argv:
            cmd += ["--", *cli_argv]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the run could finish")
        before = calibrate()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("a coolspec run did not finish in time") from None
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["calibration_s"] = (before + calibrate()) / 2.0
        expected = SRC / "coolspec" / "__init__.py"
        if Path(result["module"]).resolve() != expected.resolve():
            raise BenchError(f"imported coolspec from {result['module']}, not {expected}")
        if result.get("rc") not in (None, 0, 2):
            raise BenchError(f"coolspec exited with {result['rc']}: {proc.stderr.strip()[-2000:]}")
        return result


def read_rows(text: str) -> list[dict]:
    return list(csv.DictReader(text.splitlines()))


def _number(row: dict, key: str) -> float:
    try:
        return float(row[key])
    except (KeyError, TypeError, ValueError):
        return math.nan


def _close(row: dict, ref: dict, key: str, rtol: float, atol: float) -> bool:
    a, b = _number(row, key), _number(ref, key)
    return abs(a - b) <= rtol * abs(b) + atol  # False for NaN


def check_output(rows: list[dict], ref_rows: list[dict]) -> tuple[int, int, float]:
    """Compare records to the reference: (attempted, failed, max relative deviation).

    A missing record, column or number fails the record.
    """
    failed = 0
    max_rel = 0.0
    for i, ref in enumerate(ref_rows):
        row = rows[i] if i < len(rows) else {}
        ok = (row.get("status") == "ok"
              and all(row.get(k) == ref[k] for k in ("delta", "omega", "method", "route"))
              and _close(row, ref, "heat_absorption_rate", RATE_RTOL, RATE_ATOL)
              and _close(row, ref, "min_eigenvalue_seen", 0.0, DIAG_ATOL)
              and _close(row, ref, "steady_residual", 0.0, DIAG_ATOL))
        r = _number(ref, "heat_absorption_rate")
        if row and r != 0.0:
            dev = abs(_number(row, "heat_absorption_rate") - r) / abs(r)
            max_rel = max(max_rel, dev if math.isfinite(dev) else math.inf)
        failed += not ok
    extra = max(0, len(rows) - len(ref_rows))
    return len(ref_rows) + extra, failed + extra, max_rel


def rank(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    return sorted_values[max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)]


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest ladder percentile with >= 10 samples beyond it.

    With fewer than 20 samples no percentile qualifies and the median is used.
    """
    values = sorted(samples)
    for pct in TAIL_LADDER:
        if len(values) * (100.0 - pct) / 100.0 >= 10.0:
            return pct, rank(values, pct)
    return 50.0, rank(values, 50.0)


class Workload:
    """One workload at one seed: config file, reference, and repetitions."""

    def __init__(self, name: str, seed: int, session: Session):
        self.name = name
        self.session = session
        self.slot = offset_slot(seed)
        ref = reference_path(name, self.slot)
        if not ref.exists():
            raise BenchError(f"missing reference {ref}")
        self.ref_rows = read_rows(gzip.decompress(ref.read_bytes()).decode("utf-8"))
        self.config_path = session.workdir / f"{name}.json"
        self.config_path.write_text(json.dumps(workload_config(name, self.slot)), encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.max_rel_dev = 0.0
        self._reps = 0

    def rep(self, trace: bool = False) -> tuple[dict, bytes]:
        """One cold run of the workload; records are checked against the reference."""
        self._reps += 1
        out = self.session.workdir / f"{self.name}-{self._reps}.csv"
        argv = ["sweep", "--config", str(self.config_path), "--output", str(out),
                "--format", "csv", "--jobs", "1"]
        result = self.session.child(argv, trace=trace)
        if not out.exists():
            raise BenchError(f"{self.name}: coolspec wrote no output")
        data = out.read_bytes()
        out.unlink()
        attempted, failed, max_rel = check_output(read_rows(data.decode("utf-8")), self.ref_rows)
        self.attempted += attempted
        self.failed += failed
        self.max_rel_dev = max(self.max_rel_dev, max_rel)
        return result, data


def calibrated(result: dict, key: str) -> float:
    """A child's time scaled to the reference machine speed."""
    return result[key] * CALIBRATION_REFERENCE_S / result["calibration_s"]


def measure_untraced(wl: Workload, seconds: float) -> tuple[dict, list[dict], list[dict]]:
    """End-to-end metrics, the results of the timed repetitions and the setup children.

    setup_s pools import-only children with the imports of the timed
    repetitions.
    """
    setup = [wl.session.child() for _ in range(SETUP_SAMPLES)]
    reps = []
    start = time.monotonic()
    while True:
        result, _ = wl.rep()
        reps.append(result)
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed + elapsed / len(reps) > seconds:
            break
    setup += reps
    return {
        "wall_s": statistics.median(calibrated(r, "wall_s") for r in reps),
        "setup_s": statistics.median(calibrated(r, "import_s") for r in setup),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024.0 for r in reps),
        "ok_frac": 1.0 - wl.failed / wl.attempted,
    }, reps, setup


def measure_traced(wl: Workload, seconds: float) -> tuple[dict, list[str]]:
    """Per-layer metrics plus the self-test problems found (empty when sound).

    Untraced and traced repetitions alternate, starting and ending with an
    untraced one, so that trace.overhead_s compares medians taken over the
    same stretch of time.
    """
    problems = []
    start = time.monotonic()
    untraced, plain_bytes = wl.rep()
    plain = [untraced["wall_s"]]
    traces = []
    while True:
        result, data = wl.rep(trace=True)
        if data != plain_bytes:
            problems.append("traced output differs from untraced output")
        traces.append(result["trace"])
        plain.append(wl.rep()[0]["wall_s"])
        elapsed = time.monotonic() - start
        if (len(traces) >= MIN_TRACED_REPS and len(plain) >= MIN_REPS
                and elapsed + elapsed / len(traces) > seconds):
            break

    def exact(trace: dict) -> dict:
        return {"spans": {k: (v["calls"], v["steps"]) for k, v in trace["spans"].items()},
                "counters": trace["counters"], "absent": trace["absent"]}

    if any(exact(t) != exact(traces[0]) for t in traces[1:]):
        problems.append("exact counters differ between traced runs")

    first = traces[0]

    def med(fn) -> float:
        return statistics.median(fn(t) for t in traces)

    metrics = {}
    for label in SPAN_LABELS:
        metrics[f"{label}.calls"] = first["spans"][label]["calls"]
        metrics[f"{label}.self_s"] = med(lambda t: t["spans"][label]["self_s"])
    steps = first["spans"]["dynamics.propagate"]["steps"]
    tcl_steps = first["spans"]["tcl.TclPropagator.propagate"]["steps"]
    # a fixed number of repetitions, so that the tail percentile is a
    # constant of the workload however many repetitions fit in the time
    samples = [s for t in traces[:MIN_TRACED_REPS]
               for s in t["spans"]["sweep.evaluate_point"]["samples"]]
    tail_pct, tail_s = tail(samples) if samples else (50.0, 0.0)
    metrics.update({
        "bath.quad.calls": first["counters"]["bath.quad"],
        "dynamics.propagate.steps": steps,
        "dynamics.propagate.us_per_step":
            metrics["dynamics.propagate.self_s"] / steps * 1e6 if steps else 0.0,
        "tcl.correlation_grid.first_call_s":
            med(lambda t: t["spans"]["tcl.correlation_grid"]["first_s"]),
        "tcl.step_us":
            med(lambda t: t["spans"]["tcl.TclPropagator.propagate"]["total_s"]) / tcl_steps * 1e6
            if tcl_steps else 0.0,
        "sweep.evaluate_point.p50_ms": rank(sorted(samples), 50.0) * 1e3 if samples else 0.0,
        "sweep.evaluate_point.tail_ms": tail_s * 1e3,
        "sweep.evaluate_point.tail_pct": tail_pct,
        "trace.overhead_s": med(lambda t: t["wall_s"]) - statistics.median(plain),
        "trace.unattributed_s": med(lambda t: t["unattributed_s"]),
        "trace.absent": len(first["absent"]),
        "output.max_rel_dev": wl.max_rel_dev,
    })
    if first["absent"]:
        print(f"# {wl.name}: absent from the program: {', '.join(first['absent'])}")
    return metrics, problems


def print_metrics(prefix: str, metrics: dict, units: dict):
    for key, value in metrics.items():
        print(f"{prefix}{key} = {value:.6g} {units[key]}")


def run_workload(name: str, seed: int, seconds: float, modes: tuple[bool, ...],
                 session: Session) -> tuple[bool, int, int, dict]:
    session.deadline = time.monotonic() + DEADLINE_S
    wl = Workload(name, seed, session)
    # an import-only child warms the file cache and reports library versions
    versions = session.child()["versions"]
    print(f"# {name}: seed {seed} (offset slot {wl.slot}/{OFFSET_SLOTS}), "
          f"{len(wl.ref_rows)} records, python {versions['python']}, "
          f"numpy {versions['numpy']}, scipy {versions['scipy']}, {versions['blas']}, "
          f"BLAS threads {BLAS_THREADS}, nproc {len(os.sched_getaffinity(0))}")
    metrics, problems = {}, []
    units = dict(END_TO_END + PER_LAYER)
    for trace in modes:
        if trace:
            layer, problems = measure_traced(wl, seconds)
            print_metrics(f"{name} ", layer, units)
            metrics.update(layer)
        else:
            e2e, reps, setup = measure_untraced(wl, seconds)
            for label, results, key in (("repetitions", reps, "wall_s"),
                                        ("setup samples", setup, "import_s")):
                print(f"# {name}: {len(results)} {label}, raw {key} "
                      + " ".join(f"{r[key]:.3f}" for r in results)
                      + ", calibration_s "
                      + " ".join(f"{r['calibration_s']:.3f}" for r in results))
            print_metrics(f"{name} ", e2e, units)
            metrics.update(e2e)
    for problem in problems:
        print(f"# {name}: self-test failed: {problem}")
    print(f"{name} failed_frac = {wl.failed / wl.attempted:.6g} "
          f"({wl.failed} of {wl.attempted} records)")
    correct = wl.failed == 0 and not problems
    return correct, wl.attempted, wl.failed, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped and
    # the scratch directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "coolspec" / "__init__.py").exists():
        print(f"run.py: no coolspec package under {SRC}", file=sys.stderr)
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        session = Session(workdir)
        results = [run_workload(n, args.seed, args.seconds, modes, session) for n in names]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = dict(END_TO_END + PER_LAYER)
    prefixed = len(results) > 1
    metrics = {
        f"{n}.{k}" if prefixed else k: {"value": v, "unit": units[k]}
        for n, r in zip(names, results) for k, v in r[3].items()
    }
    print(json.dumps({"correct": all(r[0] for r in results),
                      "attempted": sum(r[1] for r in results),
                      "failed": sum(r[2] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
