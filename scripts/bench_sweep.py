#!/usr/bin/env python3
"""Time ``ssftrace verify --suite all`` at several dimensions, under two source trees.

For each d, one pair ``random_pair(d, 0.25, 0.1, 1)`` is written as JSON (by
``gen`` under this tree).  Each repeat runs the command once under each tree,
each run in a process of its own, the trees' order alternating from one repeat
to the next; every process first runs ``verify`` untimed on a d = 8 pair.  A run
times the whole command and its parts: the two matrix loads, ``make_pair``,
``checks.run`` and each of its ``timings_s`` entries, and the two report
writes.  The first run of each tree at each d also records the allocation and
factorization ledger of ``checks.run``, one selection at a time (each suite
alone, then all of them), on a fresh pair whose defects are built, and of the
whole command: the ``tracemalloc`` peak in units of one d x d complex matrix,
and the number of ``np.linalg.svd``, ``eigvalsh`` and ``eigvals`` calls.  The ledger carries no
host noise, so it is taken once.

Writes, per d and per tree, the median and quartiles of every part, and the
median and quartiles of the per-repeat ratios this tree / reference, beside
the core count and the Python, numpy and BLAS (name, version, threads) versions.

    python3 scripts/bench_sweep.py REF/src --out BENCH.json [--label NAME]
        [--dims 32 128 512] [--repeats 5]
"""

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FACTORIZATIONS = ("svd", "eigvalsh", "eigvals")
WARMUP_DIM = 8


def _verify_args(pair_dir: Path, suite: str, out: str) -> list:
    return ["verify", "--t", str(pair_dir / "T.json"), "--t0", str(pair_dir / "T0.json"),
            "--suite", suite, "--out", out]


def _gen(cli, dim: int, out: Path):
    if cli.main(["gen", "--dim", str(dim), "--delta", "0.25", "--perturbation", "0.1",
                 "--seed", "1", "--out", str(out)]):
        raise RuntimeError(f"gen failed at d = {dim}")


@contextlib.contextmanager
def _wrapped(module, name: str, record):
    """``module.name`` replaced by a call that hands ``record`` its result and
    wall seconds."""
    fn = getattr(module, name)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        record(result, time.perf_counter() - start)
        return result

    setattr(module, name, timed)
    try:
        yield
    finally:
        setattr(module, name, fn)


def timed_verify(pair_dir: Path) -> dict:
    """Wall seconds of one ``verify --suite all`` on the pair in ``pair_dir`` and of
    its parts."""
    from ssftrace import checks, cli, linops, serialize

    parts = {"load": 0.0, "make_pair": 0.0, "checks": 0.0, "write": 0.0}
    suites = {}

    def add(part):
        def record(result, seconds):
            parts[part] += seconds
            if part == "checks":
                suites.update(result[1])
        return record

    with tempfile.TemporaryDirectory() as out, contextlib.ExitStack() as stack:
        for module, name, part in ((serialize, "load_matrix", "load"),
                                   (linops, "make_pair", "make_pair"),
                                   (checks, "run", "checks"),
                                   (serialize, "write_csv", "write"),
                                   (serialize, "write_json", "write")):
            stack.enter_context(_wrapped(module, name, add(part)))
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(_verify_args(pair_dir, "all", out))
        total = time.perf_counter() - start
    if code not in (0, 1):
        raise RuntimeError(f"verify exited {code}")
    write = parts.pop("write")
    return {"total": total, **parts, **suites, "write": write}


def _ledger_entry(call, unit: int) -> dict:
    """The ``tracemalloc`` peak of ``call()`` in ``unit`` bytes and the count of each
    factorization it makes."""
    import numpy as np

    counts = dict.fromkeys(FACTORIZATIONS, 0)

    def count(name):
        return lambda result, seconds: counts.__setitem__(name, counts[name] + 1)

    with contextlib.ExitStack() as stack:
        for name in FACTORIZATIONS:
            stack.enter_context(_wrapped(np.linalg, name, count(name)))
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return {"peak_dxd": round(peak / unit, 2), **counts}


def ledger(pair_dir: Path) -> dict:
    """Per selection of ``checks.run`` (each suite, then "all"), on a fresh pair whose
    defects are built, and for the whole command ("command"): the ``tracemalloc``
    peak in d x d complex matrices and the count of each factorization."""
    from ssftrace import checks, cli, linops, serialize

    T, T0 = (serialize.load_matrix(pair_dir / name) for name in ("T.json", "T0.json"))
    unit = 16 * len(T) ** 2
    found = {}
    for name, selection in (*((suite, (suite,)) for suite in checks.SUITES),
                            ("all", checks.SUITES)):
        pair = linops.make_pair(T, T0)
        pair.defects  # built before the count, as every verify run builds them
        found[name] = _ledger_entry(lambda: checks.run(pair, selection), unit)
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        found["command"] = _ledger_entry(
            lambda: cli.main(_verify_args(pair_dir, "all", out)), unit)
    return found


def run_once(src: str, pair_dir: Path, with_ledger: bool) -> dict:
    """One run under ``src``, in this process: the warm-up, the timed command and,
    if asked, the ledger."""
    sys.path[:0] = [src]
    from ssftrace import cli

    with tempfile.TemporaryDirectory() as tmp:
        _gen(cli, WARMUP_DIM, Path(tmp) / "pair")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(_verify_args(Path(tmp) / "pair", "all", str(Path(tmp) / "out")))
    found = {"seconds": timed_verify(pair_dir)}
    if with_ledger:
        found["ledger"] = ledger(pair_dir)
    return found


def run_under(src: str, pair_dir: Path, with_ledger: bool) -> dict:
    command = [sys.executable, __file__, "--run", src, str(pair_dir)]
    done = subprocess.run(command + ["--ledger"] * with_ledger,
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout)


def blas_threads():
    """The thread count of the OpenBLAS library numpy loaded, or None if not found."""
    import numpy as np

    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": blas_threads()}}


def _spread(values: list) -> dict:
    """Median and quartiles of ``values``; one value is its own quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: dict) -> dict:
    """Per tree, the spread of each part over the repeats, and per part the spread of
    the per-repeat ratios this tree / reference; a part one tree lacks has no ratio."""
    found = {}
    for tree, seconds in runs.items():
        found[tree] = {part: _spread([s[part] for s in seconds]) for part in seconds[0]}
    shared = [part for part in runs["this"][0] if part in runs["reference"][0]]
    found["ratio"] = {part: _spread([a[part] / b[part] for a, b in
                                     zip(runs["this"], runs["reference"]) if b[part] > 0.0])
                      for part in shared}
    return found


def sweep(reference: str, label: str, dims: list, repeats: int) -> dict:
    trees = {"this": str(ROOT / "src"), "reference": reference}
    sys.path[:0] = [trees["this"]]
    from ssftrace import cli

    report = {"command": "verify --suite all", "pair": "random_pair(d, 0.25, 0.1, 1)",
              "reference": label, "repeats": repeats, "env": environment(), "dims": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for d in dims:
            pair_dir = Path(tmp) / f"d{d}"
            _gen(cli, d, pair_dir)
            runs, ledgers = {"this": [], "reference": []}, {}
            for r in range(repeats):
                for tree in (("this", "reference") if r % 2 == 0 else ("reference", "this")):
                    found = run_under(trees[tree], pair_dir, with_ledger=r == 0)
                    runs[tree].append(found["seconds"])
                    ledgers.setdefault(tree, found.get("ledger"))
            report["dims"][str(d)] = {"seconds": summarize(runs), "ledger": ledgers}
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reference", nargs="?", help="the reference tree's src directory")
    parser.add_argument("--out", help="the JSON file to write")
    parser.add_argument("--label", help="the reference tree's name in the output, say its "
                                        "commit; the path given by default")
    parser.add_argument("--dims", type=int, nargs="+", default=[32, 128, 512])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--run", nargs=2, metavar=("SRC", "PAIR_DIR"),
                        help="print one run under SRC on the pair in PAIR_DIR as JSON")
    parser.add_argument("--ledger", action="store_true", help="with --run, add the ledger")
    args = parser.parse_args()
    if args.run:
        src, pair_dir = args.run
        print(json.dumps(run_once(src, Path(pair_dir), args.ledger)))
        return 0
    if not (args.reference and args.out):
        parser.error("REFERENCE and --out are required")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    report = sweep(str(Path(args.reference).resolve()), args.label or args.reference,
                   args.dims, args.repeats)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
