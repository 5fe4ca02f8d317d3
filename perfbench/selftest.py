#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in order:

1. the tracer on a throwaway package: a wrapped function that does not
   exist is reported as absent, calls made through another module's
   binding are seen, span self times plus the unattributed time add up to
   the root wall time, and work done outside every span shows up as
   unattributed;
2. BENCHMARK.json names exactly the metrics run.py prints, with the same
   units;
3. the reference tolerance: it admits a 2e-11 relative change of every
   fig3a rate, and it flags fig3a run without the Bloch-Redfield shift
   terms and fig3a run with the central instead of the forward
   finite-difference scheme;
4. a traced run of every workload at seed 0: every record matches the
   reference, traced output is byte-identical to untraced output, and the
   exact counters (calls, steps, quad calls) repeat across traced runs.

Exits 0 when all pass.  Takes about a minute on two cores.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
import tempfile
import time
import types
from pathlib import Path

import run
from tracer import Tracer


def check_tracer() -> list[str]:
    alpha = types.ModuleType("fakepkg.alpha")
    exec(
        "import time\n"
        "def inner():\n"
        "    time.sleep(0.02)\n"
        "def work():\n"
        "    time.sleep(0.01)\n"
        "    inner()\n",
        alpha.__dict__)
    beta = types.ModuleType("fakepkg.beta")
    beta.work = alpha.work
    exec(
        "import time\n"
        "def main():\n"
        "    work()\n"
        "    work()\n"
        "    time.sleep(0.05)\n",
        beta.__dict__)
    package = types.ModuleType("fakepkg")
    package.__path__ = []
    saved = {k: sys.modules.get(k) for k in ("fakepkg", "fakepkg.alpha", "fakepkg.beta")}
    sys.modules.update({"fakepkg": package, "fakepkg.alpha": alpha, "fakepkg.beta": beta})
    try:
        tracer = Tracer("fakepkg", spans=(
            ("alpha.work", "alpha", "work"),
            ("alpha.inner", "alpha", "inner"),
            ("alpha.renamed", "alpha", "renamed"),
            ("gone.fn", "gone", "fn"),
        ), counters=(("alpha.sleep", "alpha", "time.sleep_missing"),))
        tracer.install()
        tracer.run(beta.main)
    finally:
        for k, v in saved.items():
            if v is None:
                sys.modules.pop(k, None)
            else:
                sys.modules[k] = v
    report = tracer.report()
    problems = []
    if sorted(report["absent"]) != ["alpha.renamed", "alpha.sleep", "gone.fn"]:
        problems.append(f"absent targets reported as {report['absent']}")
    spans = report["spans"]
    if (spans["alpha.work"]["calls"], spans["alpha.inner"]["calls"]) != (2, 2):
        problems.append("calls through another module's binding were missed")
    covered = sum(s["self_s"] for s in spans.values()) + report["unattributed_s"]
    if abs(covered - report["wall_s"]) > 1e-9:
        problems.append(f"self times + unattributed = {covered}, wall = {report['wall_s']}")
    if not 0.05 <= report["unattributed_s"] < 0.08:
        problems.append(f"unattributed {report['unattributed_s']:.3f} s, expected ~0.05 s")
    if not 0.02 <= spans["alpha.work"]["self_s"] < 0.04:
        problems.append(f"alpha.work self {spans['alpha.work']['self_s']:.3f} s, expected ~0.02 s")
    return problems


def check_metric_names() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key, ours in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if declared != list(ours):
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    return problems


def check_tolerance(session: run.Session) -> list[str]:
    name = "fig3a_transient"
    ref_rows = run.read_rows(gzip.decompress(run.reference_path(name, 0).read_bytes()).decode())
    problems = []

    shifted = [dict(r, heat_absorption_rate=repr(float(r["heat_absorption_rate"]) * (1 + 2e-11)))
               for r in ref_rows]
    _, failed, dev = run.check_output(shifted, ref_rows)
    print(f"  2e-11 relative shift: {failed} of {len(ref_rows)} records flagged, max dev {dev:.2g}")
    if failed:
        problems.append("tolerance rejects a 2e-11 relative change")

    variants = {
        "without Bloch-Redfield shifts": {"include_shifts": {"bloch_redfield": False}},
        "central instead of forward scheme":
            {"heat_route": {"kind": "counting_fd", "u_step": 0.05, "scheme": "central"}},
    }
    for label, change in variants.items():
        cfg = run.workload_config(name, 0)
        cfg.update(change)
        cfg_path = session.workdir / "variant.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out = session.workdir / "variant.csv"
        session.deadline = time.monotonic() + run.DEADLINE_S
        session.child(["sweep", "--config", str(cfg_path), "--output", str(out), "--jobs", "1"])
        rows = run.read_rows(out.read_text(encoding="utf-8"))
        _, failed, dev = run.check_output(rows, ref_rows)
        print(f"  {label}: {failed} of {len(ref_rows)} records flagged, max dev {dev:.2g}")
        if failed != len(ref_rows):
            problems.append(f"tolerance misses fig3a {label}")
    return problems


def check_traced_runs(session: run.Session) -> list[str]:
    problems = []
    for name in run.WORKLOADS:
        session.deadline = time.monotonic() + run.DEADLINE_S
        wl = run.Workload(name, 0, session)
        metrics, found = run.measure_traced(wl, seconds=0.0)
        print(f"  {name}: {wl.failed} of {wl.attempted} records off reference, "
              f"unattributed {metrics['trace.unattributed_s']:.4f} s, "
              f"absent {metrics['trace.absent']}")
        problems += [f"{name}: {p}" for p in found]
        if wl.failed:
            problems.append(f"{name}: {wl.failed} records differ from the reference")
        if metrics["trace.absent"]:
            problems.append(f"{name}: traced functions absent")
    return problems


def main() -> int:
    if not (run.SRC / "coolspec" / "__init__.py").exists():
        print(f"selftest.py: no coolspec package under {run.SRC}", file=sys.stderr)
        return 1
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    problems = []
    try:
        session = run.Session(workdir)
        for title, check in (("tracer", check_tracer),
                             ("metric names", check_metric_names),
                             ("reference tolerance", lambda: check_tolerance(session)),
                             ("traced runs", lambda: check_traced_runs(session))):
            print(f"{title}:")
            found = check()
            for p in found:
                print(f"  FAIL {p}")
            print(f"  {'ok' if not found else 'FAILED'}")
            problems += found
    except run.BenchError as exc:
        problems.append(str(exc))
        print(f"selftest.py: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
