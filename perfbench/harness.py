"""Workloads, closed-loop runner, output check and metrics of the benchmark.

Import only after ``run.bootstrap()``: this module imports numpy and ssftrace.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import glob
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ssftrace
from ssftrace import cli, linops, serialize

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"

PERTURBATION = 0.1
SETUP_ROUNDS = 3
# the warm-up pair: small, and outside every pool, so it is never measured
WARMUP_DIM = 8
WARMUP_SEED = 1_000_000
# ssf.csv and disc.csv values may differ from the reference by roundoff only
VALUE_TOL = 1e-9


@dataclass(frozen=True)
class Pool:
    """Pairs random_pair(dim, delta, PERTURBATION, seed) for seed in 0..size-1."""

    dim: int
    size: int


@dataclass(frozen=True)
class Workload:
    name: str
    delta: float
    # one operation runs each command, in order, on the same pair
    commands: tuple[tuple[str, ...], ...]
    full: Pool

    def pool(self, smoke: bool) -> Pool:
        return SMOKE_POOL if smoke else self.full


# tiny pairs for the smoke test of the harness
SMOKE_POOL = Pool(4, 3)


DISC_RADII = ("0.5", "0.8", "0.9", "0.99", "0.999")

# verify-d32 and profile-d8 are the benchmark's workloads (BENCHMARK.json):
# verify-d32 spends most of its time in kernel_integral and dilation, while
# profile-d8 leaves both idle and spends its time in disc, the circle grid and
# per-invocation cli/serialize overhead.  lemma-near-strict runs the semigroup
# quadrature near DELTA_MIN, where node count and memory, not d, set the cost;
# its wall times swing by +-20 % between runs on a shared host, so it is run by
# hand for peak_rss_mb and not listed in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("verify-d32", 0.25,
             (("verify", "--suite", "all", "--n-max", "64"),),
             full=Pool(32, 32)),
    Workload("profile-d8", 0.25,
             (("ssf",),
              ("disc-report", "--radii", *DISC_RADII),
              ("verify", "--suite", "circle"),
              ("verify", "--suite", "disc")),
             full=Pool(8, 64)),
    Workload("lemma-near-strict", 0.005,
             (("verify", "--suite", "lemma"),),
             full=Pool(32, 12)),
)}


# ---------------------------------------------------------------- operations

def write_pair(workload: Workload, dim: int, seed: int, directory: Path):
    pair = linops.random_pair(dim, workload.delta, PERTURBATION, seed)
    directory.mkdir(parents=True, exist_ok=True)
    serialize.save_matrix(directory / "T.json", pair.T)
    serialize.save_matrix(directory / "T0.json", pair.T0)


def invocation_argv(command, pair_dir: Path, out: Path) -> list[str]:
    return [command[0], "--t", str(pair_dir / "T.json"), "--t0", str(pair_dir / "T0.json"),
            *command[1:], "--out", str(out)]


def call_cli(argv) -> tuple[float, str | None]:
    """Run one CLI invocation; return (wall seconds, error or None)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a traceback is a failed invocation, not a failed benchmark
        return time.perf_counter() - start, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    if code not in (0, None):
        return elapsed, f"exit code {code}: {sink.getvalue().strip()[-300:]}"
    return elapsed, None


def read_output(command, out: Path):
    """The values of an invocation's report that the reference pins."""
    if command[0] == "verify":
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        return [[r["name"], r["passed"] == "True", float(r["measured"]), float(r["threshold"])]
                for r in rows]
    if command[0] == "ssf":
        with open(out / "ssf.csv", newline="") as fh:
            return [float(r["xi_r"]) for r in csv.DictReader(fh)]
    with open(out / "disc.csv", newline="") as fh:
        return [float(v) for r in csv.DictReader(fh) for v in r.values()]


def compare(command, got, ref) -> tuple[str | None, float]:
    """(mismatch or None, drift); drift is max |measured - reference| / threshold."""
    if command[0] == "verify":
        if [g[:2] for g in got] != [r[:2] for r in ref]:
            return "check names or verdicts differ from the reference", math.inf
        # a zero threshold means exact equality, which the verdict already pins
        drift = max((abs(g[2] - r[2]) / r[3] for g, r in zip(got, ref) if r[3] > 0),
                    default=0.0)
        return None, drift
    if len(got) != len(ref):
        return f"{len(got)} values, reference has {len(ref)}", math.inf
    drift = max((abs(g - r) / (VALUE_TOL * max(1.0, abs(r))) for g, r in zip(got, ref)),
                default=0.0)
    if drift > 1.0:
        return f"values differ from the reference by {drift:.3g} x tolerance", drift
    return None, drift


@dataclass
class OpResult:
    seconds: float = 0.0
    invocations: int = 0
    errors: list[str] = field(default_factory=list)
    drift: float = 0.0


def run_operation(workload: Workload, pair_dir: Path, out_root: Path, reference) -> OpResult:
    """Run every command of the workload on one pair and check each output.

    Only the CLI calls are timed.  ``reference`` is the list of expected
    outputs, one per command, or None to skip the check (warm-up).
    """
    result = OpResult()
    for i, command in enumerate(workload.commands):
        out = out_root / f"cmd{i}"
        shutil.rmtree(out, ignore_errors=True)
        seconds, error = call_cli(invocation_argv(command, pair_dir, out))
        result.seconds += seconds
        result.invocations += 1
        if error is None and reference is not None:
            try:
                error, drift = compare(command, read_output(command, out), reference[i])
            except (OSError, KeyError, ValueError) as exc:
                error, drift = f"unreadable report: {type(exc).__name__}: {exc}", math.inf
            if error is None:
                result.drift = max(result.drift, drift)
        if error is not None:
            result.errors.append(f"{' '.join(command)}: {error}")
    return result


def load_reference(workload: Workload, smoke: bool) -> dict[int, list]:
    data = json.loads((REFERENCE_DIR / f"{workload.name}.json").read_text())
    pairs = data["smoke" if smoke else "full"]
    return {int(seed): outputs for seed, outputs in pairs.items()}


# ---------------------------------------------------------------- environment

def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if found."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # a plain checkout; never report an enclosing repo
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(nproc: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ssftrace").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "ssftrace": ssftrace.__version__,
        "git_sha": git_sha(),
        "src_sha256": sources.hexdigest(),
    }


# ---------------------------------------------------------------- the run

def setup_round(workload: Workload, pool: Pool, seeds, work: Path, smoke: bool) -> float:
    """Generate and write the run's pairs, then run one untimed warm-up operation."""
    start = time.perf_counter()
    for seed in seeds:
        write_pair(workload, pool.dim, seed, work / "pairs" / str(seed))
    warm_dir = work / "pairs" / "warmup"
    write_pair(workload, min(pool.dim, WARMUP_DIM), WARMUP_SEED, warm_dir)
    warm = run_operation(workload, warm_dir, work / "ops" / "warmup", None)
    for error in warm.errors:
        print(f"warm-up failed: {error}", file=sys.stderr)
    return time.perf_counter() - start


@dataclass
class Measurement:
    plain: list[float] = field(default_factory=list)   # untraced seconds per pair
    traced: list[float] = field(default_factory=list)  # traced seconds per pair
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    drift: float = 0.0


def measure(workload: Workload, seeds, work: Path, reference, seconds: float,
            tracer: Tracer | None) -> Measurement:
    """Closed loop with one client for ``seconds``, finishing the pair in flight.

    With a tracer, every second pair runs traced; at least one pair of each
    kind runs.
    """
    m = Measurement()
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds or not m.plain \
            or (tracer is not None and not m.traced):
        traced = tracer is not None and k % 2 == 1
        pair_seed = seeds[k % len(seeds)]
        if traced:
            tracer.pair = k
            tracer.install()
        try:
            op = run_operation(workload, work / "pairs" / str(pair_seed),
                               work / "ops" / "current", reference[pair_seed])
        finally:
            if traced:
                tracer.uninstall()
        (m.traced if traced else m.plain).append(op.seconds)
        m.attempted += op.invocations
        m.failures += [f"pair {pair_seed}: {e}" for e in op.errors]
        m.drift = max(m.drift, op.drift)
        k += 1
    return m


def run(workload: Workload, seed: int, seconds: float, traced: bool, smoke: bool,
        import_s: float, nproc: int) -> int:
    pool = workload.pool(smoke)
    reference = load_reference(workload, smoke)
    seeds = [int(s) for s in np.random.default_rng(seed).permutation(pool.size)]
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    tracer = Tracer() if traced else None
    try:
        setups = [setup_round(workload, pool, seeds, work, smoke) for _ in range(SETUP_ROUNDS)]
        m = measure(workload, seeds, work, reference, seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = len(m.failures)
    if tracer is None:
        metrics = {
            "pairs_per_s": (len(m.plain) / sum(m.plain), "1/s"),
            "pair_s.p50": (statistics.median(m.plain), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (import_s + statistics.median(setups), "s"),
            "ops_ok_ratio": (1.0 - failed / m.attempted, "ratio"),
        }
    else:
        metrics = tracer.layer_metrics(len(m.traced))
        metrics["trace_overhead_ratio"] = (
            statistics.median(m.traced) / statistics.median(m.plain) - 1.0, "ratio")
    env = environment(nproc)

    print(f"workload {workload.name} ({'smoke' if smoke else 'full'}, d={pool.dim}) "
          f"seed {seed} {'traced' if traced else 'untraced'}: "
          f"{len(m.plain) + len(m.traced)} pairs, {m.attempted} invocations, "
          "closed loop, 1 client")
    for error in m.failures:
        print(f"FAILED {error}")
    print(f"  ops_failed_ratio {failed / m.attempted:.6g} ratio ({failed} of {m.attempted})")
    print(f"  measured_drift_max {m.drift:.6g} (|measured - reference| / threshold)")
    if tracer is None:
        print(f"  pair_s samples {len(m.plain)}; setup = import {import_s:.4g} s + median "
              f"of {SETUP_ROUNDS} rounds {[round(s, 4) for s in setups]} s")
    else:
        top = tracer.top_layers(len(m.traced))[:2]
        print("  top layers by self_s per pair: "
              + ", ".join(f"{name} {value:.4g} s" for name, value in top))
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(f"  env {json.dumps(env, sort_keys=True)}")

    result = {"correct": failed == 0, "attempted": m.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    stem = f"{workload.name}{'-smoke' if smoke else ''}-seed{seed}-trace{int(traced)}"
    record = {**result, "workload": workload.name, "smoke": smoke, "seed": seed,
              "seconds": seconds, "env": env, "failures": m.failures,
              "measured_drift_max": m.drift if math.isfinite(m.drift) else None,
              "pair_seconds": m.plain, "traced_pair_seconds": m.traced,
              "setup_rounds_s": setups, "import_s": import_s}
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{stem}.json")
    print(json.dumps(result))
    return 0
