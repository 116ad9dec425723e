"""The scripts under scripts/ run end to end on a small pair."""

import os
import re
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
