"""The benchmark's traced run still sees the verifier's work.

``perfbench/tracer.py`` wraps the package's public functions from outside
and reads some of them by name: ``DiscQuadratureConfig``, the semigroup
report's ``direct_difference`` and ``nodes_used``, and the parameters of
``ssf.moments``.  It also keys ``dilation.build_window_dilation`` by its
parameters ``T`` and ``N``; the package defines no function of that name
now, and one with other parameters would break every traced run.  A rename
in src that breaks one of those reads fails here, in the tier-1 suite,
instead of in a benchmark run.
"""

from pathlib import Path

from ssftrace import cli, linops, serialize

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_verify_counts_work(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    pair = linops.random_pair(4, 0.25, 0.1, seed=1)
    serialize.save_matrix(tmp_path / "T.json", pair.T)
    serialize.save_matrix(tmp_path / "T0.json", pair.T0)
    tracer = Tracer()
    tracer.pair = 0
    tracer.install()
    try:
        code = cli.main(["verify", "--t", str(tmp_path / "T.json"),
                         "--t0", str(tmp_path / "T0.json"), "--suite", "all",
                         "--out", str(tmp_path / "verify")])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer.layer_metrics(1)
    assert metrics["kernel_integral.semigroup_integral.calls"][0] > 0
    # the exact kernel uses no quadrature nodes
    assert metrics["kernel_integral.semigroup_integral.nodes"][0] == 0
    assert metrics["ssf.moments.matmuls"][0] > 0
