"""scripts/diff_reports.py on one tree against itself and against edited copies, and
scripts/bench_sweep.py on one small pair."""

import json
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pairs import ROW_COUNT, report_pairs
from ssftrace import checks

ROOT = Path(__file__).resolve().parents[1]
REPORT_PAIRS = len(report_pairs())


def diff_reports(old_src, new_src):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "diff_reports.py"), str(old_src), str(new_src)],
        capture_output=True, text=True, timeout=300)


# compare() and outputs_under() of the script, which the tests below call
DIFF_REPORTS = runpy.run_path(str(ROOT / "scripts" / "diff_reports.py"))


@pytest.fixture(scope="module")
def unedited():
    """The rows and command outputs under the unedited tree, computed once per module."""
    return DIFF_REPORTS["outputs_under"](str(ROOT / "src"))


# the counts of the three comparisons when no value moves: ROW_COUNT rows, then the
# 256 (t, xi_r) lines of ssf.csv and the 129 (re, im) coefficients of
# ssf_coeffs.json, and the 5 radii of 7 values of disc.csv, on each report pair;
# no config line follows, as no setting differs
UNMOVED = [f"moved rows: 0 of {ROW_COUNT * REPORT_PAIRS}", "moved ssf values: 0 of 17710",
           "moved disc values: 0 of 805"]


def test_diff_reports_sees_no_move_between_one_tree_and_itself(unedited):
    assert DIFF_REPORTS["compare"](unedited, unedited) == (UNMOVED, 0)


# a definition appended to a copied module replaces the original: adding
# 2^-60 to the Gram deviation moves every orthonormal_* value and flips no verdict;
# writing each xi_r value one ulp up moves the 256 of each ssf.csv and nothing
# else; recording another grid size moves one setting and no value; a zero
# tolerance flips verdicts
EDITS = {
    "moved": ("dilation.py", "exact = interior_column_orthonormality\n"
              "def interior_column_orthonormality(J):\n"
              "    return exact(J) + 2 ** -60\n"),
    "ssf_moved": ("serialize.py", "exact = write_csv\n"
                  "def write_csv(path, header, rows):\n"
                  "    if header == ['t', 'xi_r']:\n"
                  "        rows = ((t, float(np.nextafter(v, np.inf))) for t, v in rows)\n"
                  "    exact(path, header, rows)\n"),
    "config_moved": ("checks.py", "exact = config\n"
                     "def config(suites):\n"
                     "    return {**exact(suites), 'quadrature_points': 4096}\n"),
    "flipped": ("checks.py", "TOLERANCES = MappingProxyType("
                "{**TOLERANCES, 'orthonormality_tol': 0.0})\n"),
}


@pytest.mark.parametrize("edit", EDITS)
def test_diff_reports_sees_an_edited_tree(tmp_path, request, edit):
    module, appended = EDITS[edit]
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "ssftrace" / module, "a") as fh:
        fh.write("\n\n" + appended)
    if edit == "flipped":
        # the script's command line, end to end, once
        done = diff_reports(ROOT / "src", tmp_path / "src")
        assert done.returncode == 1
        assert done.stdout.splitlines()[0].startswith("names or verdicts differ")
        assert done.stdout.splitlines()[1:] == [
            "config tolerances.orthonormality_tol: 1e-10 -> 0.0"]
        return
    lines, code = DIFF_REPORTS["compare"](
        request.getfixturevalue("unedited"), DIFF_REPORTS["outputs_under"](str(tmp_path / "src")))
    assert code == 0
    if edit == "ssf_moved":
        assert lines == [UNMOVED[0], "moved ssf values: 5888 of 17710", UNMOVED[2]]
    elif edit == "config_moved":
        assert lines == [*UNMOVED, "config quadrature_points: 244 -> 4096"]
    else:
        assert {line.split()[0] for line in lines[:-3]} == {"dilation/orthonormal_T",
                                                          "dilation/orthonormal_T0"}
        assert lines[-3:] == [f"moved rows: {2 * REPORT_PAIRS} of {ROW_COUNT * REPORT_PAIRS}",
                              *UNMOVED[1:]]


def test_bench_sweep_writes_every_part_and_the_ledger(tmp_path):
    # one repeat at d = 8, this tree against itself; no wall-clock value is gated
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_sweep.py"), str(ROOT / "src"),
         "--label", "self", "--dims", "8", "--repeats", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert list(report) == ["command", "pair", "reference", "repeats", "env", "dims"]
    assert report["reference"] == "self" and report["repeats"] == 1
    assert list(report["env"]) == ["cores", "python", "numpy", "blas"]
    assert list(report["env"]["blas"]) == ["name", "version", "threads"]
    assert list(report["dims"]) == ["8"]
    seconds, ledger = report["dims"]["8"]["seconds"], report["dims"]["8"]["ledger"]
    parts = ["total", "load", "make_pair", "checks", "lemma", "dilation", "xi", "powers",
             "circle", "disc", "write"]
    assert list(seconds) == ["this", "reference", "ratio"]
    for spreads in seconds.values():
        assert list(spreads) == parts
        assert all(list(s) == ["median", "q1", "q3"] for s in spreads.values())
    # (svd, eigvalsh, eigvals) calls: the lemma suite's two per side, and make_pair's
    # one SVD per contraction
    factorizations = {"lemma": (0, 4, 0), "dilation": (0, 0, 0), "circle": (0, 0, 0),
                      "disc": (0, 0, 0), "all": (0, 4, 0), "command": (2, 4, 0)}
    assert list(ledger) == ["this", "reference"]
    for entries in ledger.values():
        assert list(entries) == [*checks.SUITES, "all", "command"]
        assert {name: (e["svd"], e["eigvalsh"], e["eigvals"])
                for name, e in entries.items()} == factorizations
        assert all(e["peak_dxd"] > 0.0 for e in entries.values())


# upper bounds on the tracemalloc peak of checks.run at d = 128, in d x d complex
# matrices: each suite alone, then all four, each its value on numpy 2.4.6 (lemma 10.04,
# dilation 18.02, circle 16.53, disc 11.24, all 18.02) rounded up to a tenth, so a patch
# release that moves a peak by a few kB does not trip it; no wall-clock value.  The disc
# suite steps from the stacked pair, and the circle suite's table is let go before it
PEAK_PINS_D128 = {"lemma": 10.1, "dilation": 18.1, "circle": 16.6, "disc": 11.3, "all": 18.1}


def test_suite_memory_peaks_at_d128(tmp_path):
    # bench_sweep's ledger in a process of its own, on the sweep's pair
    # random_pair(128, 0.25, 0.1, 1), written by gen, with its defects built
    code = ("import json, pathlib, runpy, sys; sys.path.insert(0, sys.argv[1]); "
            "sweep = runpy.run_path(sys.argv[2]); from ssftrace import cli; "
            "pair_dir = pathlib.Path(sys.argv[3]); sweep['_gen'](cli, 128, pair_dir); "
            "print(json.dumps(sweep['ledger'](pair_dir)))")
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "scripts" / "bench_sweep.py"),
         str(tmp_path / "pair")], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    ledger = json.loads(done.stdout)
    peaks = {name: ledger[name]["peak_dxd"] for name in PEAK_PINS_D128}
    assert all(peaks[name] <= pin for name, pin in PEAK_PINS_D128.items()), peaks
