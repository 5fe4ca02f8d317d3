"""One cold coolspec run, made in a fresh interpreter by run.py.

    python3 perfbench/child.py --result out.json [--trace] [-- <coolspec CLI arguments>]

Times `import coolspec`, then, when CLI arguments follow `--`, times
`coolspec.cli.main(argv)` from argument parsing to the written output
file.  With --trace the call runs under the layer tracer.  The result
(timings, exit code, peak RSS, library versions, trace aggregates) is
written as JSON to the --result path.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()

    start = time.perf_counter()
    import coolspec
    from coolspec import cli
    result = {"import_s": time.perf_counter() - start, "module": coolspec.__file__}

    if args.argv:
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            result["rc"] = tracer.run(cli.main, args.argv)
            result["wall_s"] = tracer.wall_s
            result["trace"] = tracer.report()
        else:
            start = time.perf_counter()
            result["rc"] = cli.main(args.argv)
            result["wall_s"] = time.perf_counter() - start
    else:
        result["versions"] = _versions()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
