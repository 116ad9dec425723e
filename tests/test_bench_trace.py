"""The benchmark's traced run still sees the verifier's work.

``perfbench/tracer.py`` wraps the package's public functions from outside
and reads some of them by name: ``DiscQuadratureConfig``, the semigroup
report's ``direct_difference`` and ``nodes_used``, and the parameters of
``ssf.moments``.  It also keys ``dilation.build_window_dilation`` by its
parameters ``T`` and ``N``; the package defines no function of that name
now, and one with other parameters would break every traced run.  A rename
in src that breaks one of those reads fails here, in the tier-1 suite,
instead of in a benchmark run.  Both benchmark workloads' command mixes
run traced: ``verify --suite all`` and the four commands of ``profile-d8``.
"""

from pathlib import Path

import pytest

from ssftrace import cli, linops, serialize

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the commands of the profile-d8 workload, in order, and the disc.quadrature spans
# each records: one per disc-report and one per disc-suite verify
PROFILE_COMMANDS = [
    (("ssf",), 0),
    (("disc-report", "--radii", "0.5", "0.8", "0.9", "0.99", "0.999"), 1),
    (("verify", "--suite", "circle"), 0),
    (("verify", "--suite", "disc"), 1),
]


@pytest.fixture
def traced(tmp_path, monkeypatch):
    """(tracer, run): ``run(command)`` calls the CLI on a d = 4 pair with the tracer
    installed and gives its exit code."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    pair = linops.random_pair(4, 0.25, 0.1, seed=1)
    serialize.save_matrix(tmp_path / "T.json", pair.T)
    serialize.save_matrix(tmp_path / "T0.json", pair.T0)
    tracer = Tracer()
    tracer.pair = 0

    def run(command):
        return cli.main([command[0], "--t", str(tmp_path / "T.json"),
                         "--t0", str(tmp_path / "T0.json"), *command[1:],
                         "--out", str(tmp_path / command[0])])

    tracer.install()
    try:
        yield tracer, run
    finally:
        tracer.uninstall()


def test_traced_verify_counts_work(traced):
    tracer, run = traced
    assert run(("verify", "--suite", "all")) == 0
    metrics = tracer.layer_metrics(1)
    assert metrics["kernel_integral.semigroup_integral.calls"][0] > 0
    # the exact kernel uses no quadrature nodes
    assert metrics["kernel_integral.semigroup_integral.nodes"][0] == 0
    assert metrics["ssf.moments.matmuls"][0] > 0


def test_traced_profile_commands_record_the_disc_quadrature(traced):
    tracer, run = traced
    for command, quadratures in PROFILE_COMMANDS:
        before = len(tracer.spans)
        assert run(command) == 0, command
        names = [span[3] for span in tracer.spans[before:]]
        assert names.count("disc.quadrature") == quadratures, command
