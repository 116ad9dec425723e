#!/usr/bin/env python3
"""Shift-function profile and disc-formula convergence for one pair.

Reconstructs the shift function of a seeded random pair, writes its
Abel-regularized boundary profile (ssf.csv) and coefficient table
(ssf_coeffs.json), then tabulates the disc pairing against the closed
form on the default radius ladder of ``disc-report`` (disc.csv) and
prints the convergence trace.

    python3 scripts/ssf_profile.py --dim 8 --seed 5 --out runs/profile
"""

import argparse
import csv
import sys
from pathlib import Path

from ssftrace import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=8)
    parser.add_argument("--delta", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--n-max", type=int, default=64)
    parser.add_argument("--abel-radius", type=float, default=0.99)
    parser.add_argument("--out", default="runs/profile")
    args = parser.parse_args()

    out = Path(args.out)
    for argv in (
        ["gen", "--dim", str(args.dim), "--delta", str(args.delta),
         "--seed", str(args.seed), "--out", str(out)],
        ["ssf", "--t", str(out / "T.json"), "--t0", str(out / "T0.json"),
         "--n-max", str(args.n_max), "--abel-radius", str(args.abel_radius),
         "--out", str(out)],
        ["disc-report", "--t", str(out / "T.json"), "--t0", str(out / "T0.json"),
         "--out", str(out)],
    ):
        code = cli.main(argv)
        if code != 0:
            return code

    with open(out / "disc.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    lhs = complex(float(rows[0][5]), float(rows[0][6]))
    print(f"trace of psi(T,T*) - psi(T0,T0*): {lhs:.12g}")
    print(f"{'R':>8s} {'closed form':>26s} {'gap to trace':>14s}")
    for row in rows:
        closed = complex(float(row[3]), float(row[4]))
        print(f"{float(row[0]):8.4f} {closed:26.12g} {abs(closed - lhs):14.3e}")
    print(f"wrote {out / 'ssf.csv'}, {out / 'ssf_coeffs.json'}, {out / 'disc.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
