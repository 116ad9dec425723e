"""The scripts under scripts/ run end to end on small pairs."""

import os
import re
import runpy
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


# compare() and outputs_under() of the script, which the tests below call
DIFF_REPORTS = runpy.run_path(str(ROOT / "scripts" / "diff_reports.py"))


@pytest.fixture(scope="module")
def unedited():
    """The rows and command outputs under the unedited tree, computed once per module."""
    return DIFF_REPORTS["outputs_under"](str(ROOT / "src"))


# the counts of the three comparisons when no value moves: 943 rows, then the
# 256 (t, xi_r) lines of ssf.csv and the 129 (re, im) coefficients of
# ssf_coeffs.json, and the 5 radii of 7 values of disc.csv, on each of 23 pairs;
# no config line follows, as no setting differs
UNMOVED = ["moved rows: 0 of 943", "moved ssf values: 0 of 17710",
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
    "ssf_moved": ("serialize.py", "exact = write_ssf_grid_csv\n"
                  "def write_ssf_grid_csv(path, t_grid, values):\n"
                  "    exact(path, t_grid, np.nextafter(values, np.inf))\n"),
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
        assert lines[-3:] == ["moved rows: 46 of 943", *UNMOVED[1:]]
