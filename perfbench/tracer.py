"""Per-layer spans for the traced benchmark run.

The tracer wraps the public functions of each ssftrace module from outside
the package.  It rebinds the defining module's attribute and every other
binding of the same function object, such as ``disc.moments`` or
``kernel_integral.trace_norm`` made by a from-import, so no call path escapes.
A span is (id, parent id, pair id, name, start, end); spans stay in memory and
are written out once the run ends.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

import ssftrace
from ssftrace.disc import DiscQuadratureConfig

LAYERS = ("linops", "kernel_integral", "dilation", "ssf", "calculus", "disc", "serialize", "cli")
# cli.main is the entry span; parsing, the suites' own loops and report
# writing in cli are its self time
ENTRY_ONLY = {"cli": ("main",)}
# serialize functions whose self time adds up to serialize.write
SERIALIZE_WRITERS = ("save_matrix", "write_ssf_grid_csv", "write_disc_report_csv",
                     "matrix_to_dict", "ssf_to_dict", "series_to_dict")


def _digest(M) -> bytes:
    A = np.ascontiguousarray(M)
    return hashlib.blake2b(A.tobytes() + str(A.shape).encode(), digest_size=16).digest()


# name -> inputs (bound arguments) -> hashable key, for unique_ratio
INPUT_KEYS = {
    "linops.defect": lambda a: (_digest(a["M"]), a["side"]),
    "dilation.build_window_dilation": lambda a: (_digest(a["T"]), a["N"]),
    "ssf.moments": lambda a: (_digest(a["pair"].T), _digest(a["pair"].T0), a["n_max"]),
}


def _semigroup_work(report, a):
    d = report.direct_difference.shape[0]
    # the three complex (nodes x d x d) tensors of the quadrature, as computed
    return {"nodes": report.nodes_used, "computed_bytes": 3 * report.nodes_used * d * d * 16}


def _disc_grid(_, a):
    cfg = a["cfg"] or DiscQuadratureConfig()
    return {"grid_points": cfg.radial_nodes * cfg.angular_nodes}


# name -> (result, bound arguments) -> {stat: work done by the call}
WORK_COUNTERS = {
    "kernel_integral.semigroup_integral": _semigroup_work,
    "disc.disc_integral_quadrature": _disc_grid,
    "ssf.moments": lambda _, a: {"matmuls": 2 * a["n_max"]},
}

# (metric, unit) of every per-layer metric, named <module>[.<function>].<stat>;
# lower is better for all of them except unique_ratio
PER_LAYER = [
    *[(f"kernel_integral.semigroup_integral.{s}", u) for s, u in
      (("calls", "count"), ("self_s", "s"), ("nodes", "count"), ("computed_bytes", "B"))],
    ("kernel_integral.difference_trace_bound.self_s", "s"),
    ("kernel_integral.defect_difference_check.self_s", "s"),
    ("dilation.build_window_dilation.calls", "count"),
    ("dilation.build_window_dilation.self_s", "s"),
    ("dilation.build_window_dilation.unique_ratio", "ratio"),
    ("dilation.compression_power_check.calls", "count"),
    ("dilation.compression_power_check.self_s", "s"),
    ("dilation.dilation_trace_transfer.calls", "count"),
    ("dilation.dilation_trace_transfer.self_s", "s"),
    ("dilation.interior_column_orthonormality.self_s", "s"),
    ("dilation.dilation_difference_blocks.self_s", "s"),
    ("disc.disc_integral_quadrature.calls", "count"),
    ("disc.disc_integral_quadrature.self_s", "s"),
    ("disc.disc_integral_quadrature.grid_points", "count"),
    ("disc.disc_integral_closed_form.self_s", "s"),
    ("disc.disc_tail_bound.self_s", "s"),
    ("disc.verify_disc_trace_formula.self_s", "s"),
    ("ssf.moments.calls", "count"),
    ("ssf.moments.self_s", "s"),
    ("ssf.moments.unique_ratio", "ratio"),
    ("ssf.moments.matmuls", "count"),
    ("ssf.evaluate_ssf_grid.calls", "count"),
    ("ssf.evaluate_ssf_grid.self_s", "s"),
    ("ssf.ssf_from_moments.self_s", "s"),
    ("calculus.apply_series.calls", "count"),
    ("calculus.apply_series.self_s", "s"),
    ("calculus.apply_laurent.calls", "count"),
    ("calculus.apply_laurent.self_s", "s"),
    ("calculus.trace_rhs_circle_quadrature.calls", "count"),
    ("calculus.trace_rhs_circle_quadrature.self_s", "s"),
    ("calculus.trace_rhs_circle.self_s", "s"),
    ("linops.defect.calls", "count"),
    ("linops.defect.self_s", "s"),
    ("linops.defect.unique_ratio", "ratio"),
    ("linops.validate_contraction.calls", "count"),
    ("linops.validate_contraction.self_s", "s"),
    ("linops.trace_norm.calls", "count"),
    ("linops.trace_norm.self_s", "s"),
    ("serialize.load_matrix.calls", "count"),
    ("serialize.load_matrix.self_s", "s"),
    ("serialize.write.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    *[(f"{layer}.self_s", "s") for layer in LAYERS],
]


class Tracer:
    """Wraps the package's public functions while installed; keeps spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.work: dict[tuple, float] = defaultdict(float)  # (pair, name, stat) -> total
        self.inputs: dict[tuple, set] = defaultdict(set)     # (pair, name) -> input keys
        self.pair = None
        self._stack: list[int] = []
        self._bindings: list[tuple] = []  # (module, attribute, original)

    def install(self):
        layers = {layer: importlib.import_module(f"ssftrace.{layer}") for layer in LAYERS}
        modules = [ssftrace, *layers.values()]
        for layer, module in layers.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or attr not in ENTRY_ONLY.get(layer, (attr,))):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, name, wrapped)
                            self._bindings.append((holder, name, fn))

    def uninstall(self):
        for holder, name, fn in reversed(self._bindings):
            setattr(holder, name, fn)
        self._bindings.clear()

    def _wrap(self, name, fn):
        key = INPUT_KEYS.get(name)
        counter = WORK_COUNTERS.get(name)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if key or counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            if key:
                self.inputs[(self.pair, name)].add(key(bound))
            span = [len(spans), stack[-1] if stack else None, self.pair, name, 0.0, 0.0]
            spans.append(span)
            stack.append(span[0])
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
            if counter:
                for stat, value in counter(result, bound).items():
                    self.work[(self.pair, name, stat)] += value
            return result

        return traced

    def _self_times(self):
        covered = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = defaultdict(float)
        calls = defaultdict(int)
        for span_id, _, pair, name, start, end in self.spans:
            totals[name] += (end - start) - covered[span_id]
            calls[(pair, name)] += 1
        return totals, calls

    def top_layers(self, pairs: int):
        totals, _ = self._self_times()
        per_layer = defaultdict(float)
        for name, value in totals.items():
            per_layer[name.split(".")[0]] += value / pairs
        return sorted(per_layer.items(), key=lambda kv: -kv[1])

    def layer_metrics(self, pairs: int) -> dict:
        """Every PER_LAYER metric, per traced pair: {name: (value, unit)}."""
        totals, calls = self._self_times()
        pair_ids = {pair for pair, _ in calls}
        layer_self = dict(self.top_layers(pairs))
        write_self = sum(totals[f"serialize.{w}"] for w in SERIALIZE_WRITERS) / pairs
        metrics = {}
        for metric, unit in PER_LAYER:
            base, stat = metric.rsplit(".", 1)
            if base in LAYERS:
                value = layer_self.get(base, 0.0)
            elif base == "serialize.write":
                value = write_self
            elif stat == "self_s":
                value = totals[base] / pairs
            elif stat == "calls":
                value = sum(calls[(p, base)] for p in pair_ids) / pairs
            elif stat == "unique_ratio":
                ratios = [len(self.inputs[(p, base)]) / calls[(p, base)]
                          for p in pair_ids if calls[(p, base)]]
                value = sum(ratios) / len(ratios) if ratios else 0.0
            else:
                value = sum(self.work[(p, base, stat)] for p in pair_ids) / pairs
            metrics[metric] = (value, unit)
        return metrics

    def write(self, path):
        path.write_text(json.dumps({
            "fields": ["id", "parent", "pair", "name", "start", "end"],
            "spans": self.spans,
            "work": [[p, n, s, v] for (p, n, s), v in self.work.items()],
        }) + "\n")
