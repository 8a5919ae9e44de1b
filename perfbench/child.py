"""One sample of one workload, in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N [--setup-only]
                               [--trace-out PATH] [--expected PATH]

Imports numpy and partmorse, generates the seeded inputs (set-up), then
runs every CLI invocation of the workload in this process and checks its
output.  Prints one JSON object on stdout.  Exit code 3 means the program
could not be imported; any other failure is reported through the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent


def run_invocation(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = -1
    return code, buf.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    ap.add_argument("--expected", default=str(workloads.EXPECTED_PATH))
    args = ap.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        from partmorse import cli
    except ImportError as exc:
        print(f"error: cannot import partmorse from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 3
    invocations = workloads.generate(args.workload, args.seed, workloads.load_expected(Path(args.expected)))
    setup_s = time.perf_counter() - t0
    result: dict = {
        "setup_s": setup_s,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__},
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace_out:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    w0, c0 = time.perf_counter(), time.process_time()
    outcomes = []
    for inv in invocations:
        code, stdout = run_invocation(cli, inv.argv)
        outcomes.append({"argv": inv.argv, "exit": code, "checks": checks.check(inv, code, stdout)})
    wall_s = time.perf_counter() - w0
    cpu_s = time.process_time() - c0

    if tracer is not None:
        tracer.write(args.trace_out, wall_s)
    flat = [ok for o in outcomes for _, ok in o["checks"]]
    result.update(
        {
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "attempted": len(flat),
            "failed": flat.count(False),
            "invocations": outcomes,
        }
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
