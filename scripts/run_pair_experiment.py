#!/usr/bin/env python3
"""Generate a random contraction pair and run every verification suite.

Writes T.json / T0.json / manifest.json plus report.csv / summary.json
under --out, then prints one line per check and the wall seconds of each
suite (``timings_s`` of summary.json).

    python3 scripts/run_pair_experiment.py --dim 6 --delta 0.25 --seed 1 --out runs/demo
"""

import argparse
import csv
import json
import sys
from pathlib import Path

from ssftrace import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=6)
    parser.add_argument("--delta", type=float, default=0.25)
    parser.add_argument("--perturbation", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="runs/pair")
    args = parser.parse_args()

    out = Path(args.out)
    code = cli.main(["gen", "--dim", str(args.dim), "--delta", str(args.delta),
                     "--perturbation", str(args.perturbation),
                     "--seed", str(args.seed), "--out", str(out)])
    if code != 0:
        return code
    code = cli.main(["verify", "--t", str(out / "T.json"),
                     "--t0", str(out / "T0.json"), "--suite", "all", "--out", str(out)])
    with open(out / "report.csv", newline="") as fh:
        for name, passed, measured, threshold in list(csv.reader(fh))[1:]:
            mark = "ok " if passed == "True" else "FAIL"
            print(f"{mark} {name:40s} measured={measured} threshold={threshold}")
    timings = json.loads((out / "summary.json").read_text())["timings_s"]
    print("timings_s " + " ".join(f"{k}={v:.4f}" for k, v in timings.items()))
    return code


if __name__ == "__main__":
    sys.exit(main())
