"""Smoke test of the benchmark harness itself.

    python3 -m pytest -q perfbench/test_harness.py

Runs every workload on tiny pairs, untraced and traced, through the same
command line the benchmark is run with, and checks that each run is correct
and reports every metric BENCHMARK.json names, with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# run by hand, not by BENCHMARK.json; see harness.WORKLOADS
EXTRA_WORKLOADS = ["lemma-near-strict"]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + EXTRA_WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        for name in ("ops_failed_ratio", "measured_drift_max"):
            assert f"  {name} " in proc.stdout


def test_traced_counts_per_pair():
    proc = run_bench(ROOT, "verify-d32", 1)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["dilation.build_window_dilation.calls"]["value"] == 18
    assert metrics["ssf.moments.calls"]["value"] == 4
    assert metrics["disc.disc_integral_quadrature.calls"]["value"] == 15
    assert metrics["cli.main.calls"]["value"] == 1


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
