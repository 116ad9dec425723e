#!/usr/bin/env python3
"""Compare the verify rows of two source trees bit for bit.

Runs ``checks.run(pair, SUITES, 64)`` under each tree, in a process of its
own, on 23 fixed pairs: ``random_pair(d, 0.25, 0.1, s)`` for d in
{4, 6, 8, 32, 128} and s in 0..3, and the three ``norm_one_pairs`` of
tests/pairs.py, 943 rows in all.  Prints the largest move of each row name
whose measured value or threshold differs by ``float.hex()``, then the count
of moved rows, and exits 1 if any row's name or verdict differs.

    python3 scripts/diff_reports.py OLD/src NEW/src
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIMS = (4, 6, 8, 32, 128)
SEEDS = range(4)


def rows(src: str) -> list:
    """[pair, name, passed, measured hex, threshold hex] of every row, under ``src``."""
    sys.path[:0] = [src, str(ROOT / "tests")]
    from pairs import NORM_ONE_IDS, norm_one_pairs
    from ssftrace import checks, linops

    pairs = {f"random_d{d}_s{s}": linops.random_pair(d, 0.25, 0.1, seed=s)
             for d in DIMS for s in SEEDS}
    pairs.update(zip(NORM_ONE_IDS, norm_one_pairs()))
    return [[pair_id, c.name, c.passed, c.measured.hex(), c.threshold.hex()]
            for pair_id, pair in pairs.items()
            for c in checks.run(pair, checks.SUITES, 64)[0]]


def rows_under(src: str) -> list:
    done = subprocess.run([sys.executable, __file__, "--rows", src],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--rows", metavar="SRC", help="print the rows under SRC as JSON")
    args = parser.parse_args()
    if args.rows:
        print(json.dumps(rows(args.rows)))
        return 0
    if not (args.old_src and args.new_src):
        parser.error("OLD_SRC and NEW_SRC are required")

    old, new = rows_under(args.old_src), rows_under(args.new_src)
    if [r[:3] for r in old] != [r[:3] for r in new]:
        changed = [(a[:3], b[:3]) for a, b in zip(old, new) if a[:3] != b[:3]]
        print(f"names or verdicts differ: {len(old)} vs {len(new)} rows, "
              f"first difference {changed[0] if changed else 'in the row count'}")
        return 1
    largest, moved = {}, 0
    for a, b in zip(old, new):
        if a[3:] == b[3:]:
            continue
        moved += 1
        move = max(abs(float.fromhex(y) - float.fromhex(x)) for x, y in zip(a[3:], b[3:]))
        largest[a[1]] = max(largest.get(a[1], 0.0), move)
    for name, move in largest.items():
        print(f"{name} {move:.3e}")
    print(f"moved rows: {moved} of {len(old)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
