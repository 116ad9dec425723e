"""Every function the package defines is run by some ``ssftrace`` command.

The commands run in process under ``sys.setprofile``; each function and
method defined in ``src/ssftrace/*.py`` (found with ``ast``) must have been
called, except the paper statements listed in ``NOT_YET_CHECKED``, which must
not have been.  Every tolerance of ``checks.TOLERANCES`` must be read by a
``verify`` run of every suite.
"""

import ast
import json
import sys
from collections.abc import Mapping
from pathlib import Path

import ssftrace
from ssftrace import checks, cli, linops

SRC = Path(ssftrace.__file__).parent

# paper statements about the pair that ``verify`` does not check yet; each
# becomes a report row once the benchmark reference, which pins the row
# names of report.csv, is recorded again
NOT_YET_CHECKED = {
    # trace-class Lipschitz bound, the estimate that makes xi exist
    "calculus.laurent_difference_bound",
}


def defined_functions():
    """{(file, first line of the code object): module.qualname} for every def in src."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}.{child.name}"
                    # a decorated function's code object starts at its first decorator
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), line)] = name
                    visit(child, name)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}")
        visit(ast.parse(path.read_text()), path.stem)
    return found


def run_commands(tmp_path):
    """gen, verify --suite all, ssf and disc-report (default table, and --psi with
    --radii) on one d = 4 pair; the code objects of every Python call they make."""
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"coeffs": [[1, 1.0, 0.0], [-2, 0.0, 0.5]]}))
    pair = tmp_path / "pair"
    pair_args = ["--t", str(pair / "T.json"), "--t0", str(pair / "T0.json")]
    commands = [
        ["gen", "--dim", "4", "--delta", "0.25", "--seed", "1", "--out", str(pair)],
        ["verify", *pair_args, "--suite", "all", "--out", str(tmp_path / "verify")],
        ["ssf", *pair_args, "--out", str(tmp_path / "ssf")],
        ["disc-report", *pair_args, "--out", str(tmp_path / "disc")],
        ["disc-report", *pair_args, "--psi", str(psi), "--radii", "0.5", "0.9",
         "--out", str(tmp_path / "disc-psi")],
    ]
    # a cached function's body runs only on a miss, so start every cache empty
    for name, module in list(sys.modules.items()):
        if name.startswith("ssftrace."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(commands)
    return {(code.co_filename, code.co_firstlineno) for code in called}


def test_every_function_is_reached(tmp_path):
    defined = defined_functions()
    assert NOT_YET_CHECKED <= set(defined.values())
    called = run_commands(tmp_path)
    unreached = sorted(name for key, name in defined.items()
                       if key not in called and name not in NOT_YET_CHECKED)
    assert not unreached, "no command reaches " + ", ".join(unreached)
    # a listed statement that a command now reaches leaves the list
    stale = sorted(name for key, name in defined.items()
                   if key in called and name in NOT_YET_CHECKED)
    assert not stale, "NOT_YET_CHECKED lists reached " + ", ".join(stale)


class ReadRecorder(Mapping):
    """A mapping that records every key read through it."""

    def __init__(self, values):
        self.values, self.read = values, set()

    def __getitem__(self, key):
        self.read.add(key)
        return self.values[key]

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


def test_every_tolerance_is_read(monkeypatch):
    # a tolerance whose last reader is gone is dead configuration in summary.json
    recorder = ReadRecorder(checks.TOLERANCES)
    monkeypatch.setattr(checks, "TOLERANCES", recorder)
    checks.run(linops.random_pair(8, 0.25, 0.1, seed=1), checks.SUITES, 64)
    assert recorder.read == set(checks.TOLERANCES)
