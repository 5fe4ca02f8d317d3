#!/usr/bin/env python3
"""Regenerate the stored reference outputs of every workload and offset slot.

    python3 perfbench/make_references.py

Run from the repository root at the commit whose outputs are the
reference.  Each (workload, slot) output is stored gzipped (with a fixed
header time, so the bytes are reproducible) in perfbench/references/.
At slot 0 the fig2 and fig3a outputs must also equal those of
`coolspec reproduce --profile paper-fig2` / `paper-fig3a`, which checks
that the workload configs are the shipped profiles.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run

PROFILES = {"fig2_steady": "paper-fig2", "fig3a_transient": "paper-fig3a"}


def cli_output(session: run.Session, argv: list[str], out: Path) -> bytes:
    session.deadline = time.monotonic() + run.DEADLINE_S
    result = session.child(argv + ["--output", str(out), "--format", "csv", "--jobs", "1"])
    if result["rc"] != 0:
        raise run.BenchError(f"coolspec exited with {result['rc']} for {argv}")
    data = out.read_bytes()
    out.unlink()
    return data


def main() -> int:
    run.REFERENCES.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        session = run.Session(workdir)
        out = workdir / "out.csv"
        for name in run.WORKLOADS:
            for slot in range(run.OFFSET_SLOTS):
                cfg = workdir / "cfg.json"
                cfg.write_text(json.dumps(run.workload_config(name, slot)), encoding="utf-8")
                data = cli_output(session, ["sweep", "--config", str(cfg)], out)
                if slot == 0 and name in PROFILES:
                    profile = cli_output(session, ["reproduce", "--profile", PROFILES[name]], out)
                    if profile != data:
                        raise run.BenchError(f"{name} config differs from {PROFILES[name]}")
                path = run.reference_path(name, slot)
                path.write_bytes(gzip.compress(data, mtime=0))
                records = len(data.splitlines()) - 1
                print(f"{path.relative_to(run.ROOT)}: {records} records")
    except run.BenchError as exc:
        print(f"make_references.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
