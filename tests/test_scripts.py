"""The scripts under scripts/ run end to end on small pairs."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# last stdout line of a script, where one is pinned: the wall seconds of each
# suite, in the key order of summary.json
LAST_LINE = {"run_pair_experiment.py": r"timings_s circle=\d+\.\d{4} dilation=\d+\.\d{4} "
                                       r"disc=\d+\.\d{4} lemma=\d+\.\d{4} xi=\d+\.\d{4}"}


@pytest.mark.parametrize("script, written", [
    ("ssf_profile.py", ("ssf.csv", "ssf_coeffs.json", "disc.csv")),
    ("run_pair_experiment.py", ("report.csv", "summary.json")),
])
def test_script_runs(tmp_path, script, written):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--dim", "4", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for name in written:
        assert (out / name).is_file()
    if script in LAST_LINE:
        assert re.fullmatch(LAST_LINE[script], done.stdout.splitlines()[-1])


def diff_reports(old_src, new_src):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "diff_reports.py"), str(old_src), str(new_src)],
        capture_output=True, text=True, timeout=300)


# the counts of the three comparisons when no value moves: 943 rows, then the
# 256 (t, xi_r) lines of ssf.csv and the 129 (re, im) coefficients of
# ssf_coeffs.json, and the 5 radii of 7 values of disc.csv, on each of 23 pairs
UNMOVED = ["moved rows: 0 of 943", "moved ssf values: 0 of 17710",
           "moved disc values: 0 of 805"]


def test_diff_reports_sees_no_move_between_one_tree_and_itself():
    done = diff_reports(ROOT / "src", ROOT / "src")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == UNMOVED


# a definition appended to a copied module replaces the original: adding
# 2^-60 to the Gram deviation moves every orthonormal_* value and flips no verdict;
# writing each xi_r value one ulp up moves the 256 of each ssf.csv and nothing
# else; a zero tolerance flips verdicts
EDITS = {
    "moved": ("dilation.py", "exact = interior_column_orthonormality\n"
              "def interior_column_orthonormality(J):\n"
              "    return exact(J) + 2 ** -60\n"),
    "ssf_moved": ("serialize.py", "exact = write_ssf_grid_csv\n"
                  "def write_ssf_grid_csv(path, t_grid, values):\n"
                  "    exact(path, t_grid, np.nextafter(values, np.inf))\n"),
    "flipped": ("checks.py", "TOLERANCES = MappingProxyType("
                "{**TOLERANCES, 'orthonormality_tol': 0.0})\n"),
}


@pytest.mark.parametrize("edit", EDITS)
def test_diff_reports_sees_an_edited_tree(tmp_path, edit):
    module, appended = EDITS[edit]
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "ssftrace" / module, "a") as fh:
        fh.write("\n\n" + appended)
    done = diff_reports(ROOT / "src", tmp_path / "src")
    lines = done.stdout.splitlines()
    if edit == "flipped":
        assert done.returncode == 1
        assert lines[0].startswith("names or verdicts differ")
    elif edit == "ssf_moved":
        assert done.returncode == 0, done.stderr
        assert lines == [UNMOVED[0], "moved ssf values: 5888 of 17710", UNMOVED[2]]
    else:
        assert done.returncode == 0, done.stderr
        assert {line.split()[0] for line in lines[:-3]} == {"dilation/orthonormal_T",
                                                          "dilation/orthonormal_T0"}
        assert lines[-3:] == ["moved rows: 46 of 943", *UNMOVED[1:]]
