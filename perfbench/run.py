"""Time-to-verdict benchmark for the ssftrace CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-d64 --seed 1 --seconds 20 --trace 0

One process runs the workload as a closed loop with one client: it calls
``ssftrace.cli.main`` on the next pair only after the previous pair's
invocations have returned.  Every output is checked against a reference
recorded with ``perfbench/record.py``.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
pairs and reports per-layer metrics from spans recorded around the public
functions of each package module.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans and a result record with
the environment go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> int:
    """Pin BLAS threads to the usable cores and put the checkout's src first.

    Must run before numpy is imported: BLAS reads its thread count once, when
    it loads.  Exits (code 1, nothing on stdout) when the checkout holds no
    ssftrace sources.  Returns the number of usable cores.
    """
    if "numpy" in sys.modules:
        raise SystemExit("numpy was imported before the BLAS threads were pinned")
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    if not (SRC / "ssftrace" / "__init__.py").is_file():
        raise SystemExit(f"no ssftrace sources under {SRC}")
    sys.path.insert(0, str(SRC))
    return nproc


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny pairs, for testing the harness itself")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = bootstrap()
    start = time.perf_counter()
    import harness  # imports numpy and ssftrace
    import_s = time.perf_counter() - start
    if args.workload not in harness.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(harness.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        raise SystemExit("--seed must be >= 0 and --seconds > 0")
    return harness.run(harness.WORKLOADS[args.workload], seed=args.seed,
                       seconds=args.seconds, traced=bool(args.trace),
                       smoke=args.smoke, import_s=import_s, nproc=nproc)


if __name__ == "__main__":
    sys.exit(main())
