"""Command-line interface.

Two subcommands: `sweep` runs a JSON config (or the shipped defaults when
no config is given), `reproduce` runs a named profile.  Exit codes:
0 on success, 2 when the sweep completed but some points recorded an
error status, 1 for configuration or usage problems.
"""

from __future__ import annotations

import argparse
import sys

from .config import PROFILES, ConfigError, SweepConfig, parse_config, profile_config
from .sweep import run_sweep, write_output

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coolspec",
        description="Cooling spectra of a driven three-level impurity in a "
                    "phonon bath, from weak-coupling master equations.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a sweep described by a JSON config")
    sweep.add_argument("--config", help="path to a JSON config; omit for the "
                                        "shipped default parameter set")
    _add_output_args(sweep)

    reproduce = sub.add_parser("reproduce", help="run a named reproduction profile")
    reproduce.add_argument("--profile", required=True,
                           choices=sorted(PROFILES),
                           help="which shipped profile to run")
    _add_output_args(reproduce)
    return parser


def _add_output_args(sub: argparse.ArgumentParser):
    sub.add_argument("--output", required=True, help="output file path")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default: csv)")
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes (default: 1); results do not depend on this")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:
            raise  # --help and friends
        # usage errors exit 1; code 2 is reserved for per-point failures
        return 1
    try:
        if args.command == "sweep":
            cfg = parse_config(args.config) if args.config else SweepConfig()
        else:
            cfg = profile_config(args.profile)
        records = run_sweep(cfg, jobs=args.jobs)
        write_output(records, args.output, args.format)
    except (ConfigError, OSError) as exc:
        print(f"coolspec: error: {exc}", file=sys.stderr)
        return 1
    failures = sum(1 for r in records if r.status != "ok")
    if failures:
        print(f"coolspec: {failures} of {len(records)} points failed; "
              f"see the status column", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
