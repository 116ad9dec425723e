#!/usr/bin/env python3
"""Compare the verify rows and the CLI outputs of two source trees bit for bit.

Runs ``ssftrace verify --suite all``, ``ssftrace ssf`` (defaults) and
``ssftrace disc-report`` (default radii) under each tree, in a process of its
own, on the 23 fixed pairs of tests/pairs.py's ``report_pairs``: ``random_pair(d,
0.25, 0.1, s)`` for d in {4, 6, 8, 32, 128} and s in 0..3, and the three
``norm_one_pairs``.  Only the command lines are called, so the script runs
under any tree that has them.  Prints the largest move of each
report.csv row name whose measured value or threshold differs by
``float.hex()``, then the count of moved rows, then the counts of moved values
of ssf.csv and ssf_coeffs.json and of disc.csv, then each setting of
summary.json's "config" that differs, as ``config <key>: <old> -> <new>``.
Exits 1 if any row's name or verdict differs, or if the trees write a
different number of values; a setting that differs does not change the exit
code.

    python3 scripts/diff_reports.py OLD/src NEW/src
"""

import argparse
import contextlib
import csv
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _csv_values(path: Path) -> list:
    with open(path, newline="") as fh:
        return [float(v).hex() for row in list(csv.reader(fh))[1:] for v in row]


def outputs(src: str) -> dict:
    """Under ``src``: "rows", [pair, name, passed, measured hex, threshold hex] of every
    row, "ssf" and "disc", the hex of every value the two commands write, and
    "config", the settings the rows are checked with."""
    sys.path[:0] = [src, str(ROOT / "tests")]
    from pairs import report_pairs
    from ssftrace import cli, serialize

    pairs = report_pairs()
    found = {"rows": [], "ssf": [], "disc": []}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for pair_id, pair in pairs.items():
            serialize.save_matrix(out / "T.json", pair.T)
            serialize.save_matrix(out / "T0.json", pair.T0)
            files = ["--t", str(out / "T.json"), "--t0", str(out / "T0.json"), "--out", tmp]
            # verify prints its verdict, kept off the JSON this process prints, and exits
            # 1 on a failed row, which the comparison reports
            with contextlib.redirect_stdout(io.StringIO()):
                verified = cli.main(["verify", "--suite", "all", *files])
            if verified not in (0, 1) or cli.main(["ssf", *files]) \
                    or cli.main(["disc-report", *files]):
                raise RuntimeError(f"a command failed on {pair_id}")
            with open(out / "report.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            found["rows"] += [[pair_id, name, passed == "True", float(value).hex(),
                               float(threshold).hex()] for name, passed, value, threshold in rows]
            found["config"] = json.loads((out / "summary.json").read_text())["config"]
            coeffs = json.loads((out / "ssf_coeffs.json").read_text())["coeffs"]
            found["ssf"] += _csv_values(out / "ssf.csv") + [
                float(v).hex() for _, re, im in coeffs for v in (re, im)]
            found["disc"] += _csv_values(out / "disc.csv")
    return found


def outputs_under(src: str) -> dict:
    done = subprocess.run([sys.executable, __file__, "--outputs", src],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout)


def _settings(config: dict, prefix: str = "") -> dict:
    """The settings of ``config`` by dotted key, nested tables flattened."""
    flat = {}
    for key, value in config.items():
        if isinstance(value, dict):
            flat.update(_settings(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def compare(old: dict, new: dict) -> tuple[list[str], int]:
    """The lines the script prints for two ``outputs`` dicts, and its exit code."""
    lines, code = _compare_values(old, new)
    a, b = _settings(old["config"]), _settings(new["config"])
    lines += [f"config {key}: {a.get(key)} -> {b.get(key)}"
              for key in {**a, **b} if a.get(key) != b.get(key)]
    return lines, code


def _compare_values(old: dict, new: dict) -> tuple[list[str], int]:
    if [r[:3] for r in old["rows"]] != [r[:3] for r in new["rows"]]:
        changed = [(a[:3], b[:3]) for a, b in zip(old["rows"], new["rows"]) if a[:3] != b[:3]]
        return [f"names or verdicts differ: {len(old['rows'])} vs {len(new['rows'])} rows, "
                f"first difference {changed[0] if changed else 'in the row count'}"], 1
    largest, moved = {}, 0
    for a, b in zip(old["rows"], new["rows"]):
        if a[3:] == b[3:]:
            continue
        moved += 1
        move = max(abs(float.fromhex(y) - float.fromhex(x)) for x, y in zip(a[3:], b[3:]))
        largest[a[1]] = max(largest.get(a[1], 0.0), move)
    lines = [f"{name} {move:.3e}" for name, move in largest.items()]
    lines.append(f"moved rows: {moved} of {len(old['rows'])}")
    for command in ("ssf", "disc"):
        a, b = old[command], new[command]
        if len(a) != len(b):
            return [*lines, f"{command} values differ in number: {len(a)} vs {len(b)}"], 1
        lines.append(f"moved {command} values: {sum(x != y for x, y in zip(a, b))} of {len(a)}")
    return lines, 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--outputs", metavar="SRC",
                        help="print the rows and command outputs under SRC as JSON")
    args = parser.parse_args()
    if args.outputs:
        print(json.dumps(outputs(args.outputs)))
        return 0
    if not (args.old_src and args.new_src):
        parser.error("OLD_SRC and NEW_SRC are required")

    lines, code = compare(outputs_under(args.old_src), outputs_under(args.new_src))
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
