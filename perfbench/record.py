"""Record the reference outputs the benchmark checks against.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 perfbench/record.py [workload ...]

For every pair of each workload's full and smoke pools it runs the
workload's commands once and stores the values ``harness.read_output``
returns in ``perfbench/reference/<workload>.json``.  An invocation that fails
aborts the recording.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import bootstrap


def record(harness, workload, work: Path) -> dict:
    pools = {}
    for kind in ("full", "smoke"):
        pool = workload.pool(kind == "smoke")
        outputs = {}
        for seed in range(pool.size):
            pair_dir = work / kind / str(seed)
            harness.write_pair(workload, pool.dim, seed, pair_dir)
            outputs[seed] = []
            for i, command in enumerate(workload.commands):
                out = pair_dir / f"cmd{i}"
                seconds, error = harness.call_cli(harness.invocation_argv(command, pair_dir, out))
                if error is not None:
                    raise SystemExit(f"{workload.name} {kind} pair {seed} "
                                     f"{' '.join(command)}: {error}")
                outputs[seed].append(_rounded(harness.read_output(command, out)))
            print(f"{workload.name} {kind} pair {seed}: {seconds:.3f} s", flush=True)
        pools[kind] = outputs
    return pools


def _rounded(value):
    """13 significant digits: far below every tolerance the check applies."""
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, float):
        return float(f"{value:.13g}")
    return value


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    nproc = bootstrap()
    import harness
    env = harness.environment(nproc)
    harness.REFERENCE_DIR.mkdir(exist_ok=True)
    harness.OUT_DIR.mkdir(exist_ok=True)
    for name in names or list(harness.WORKLOADS):
        workload = harness.WORKLOADS[name]
        with tempfile.TemporaryDirectory(prefix="record-", dir=harness.OUT_DIR) as work:
            pools = record(harness, workload, Path(work))
        data = {"workload": name, "env": env, **pools}
        path = harness.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(data, separators=(",", ":")) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
