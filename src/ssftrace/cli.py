"""Command-line surface: gen, verify, ssf, disc-report.

Every command is deterministic given its inputs, seed, configuration and BLAS
thread count.  ``verify`` exits 0 exactly when every assertion of the selected
suites passes; reports are written regardless.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import calculus, checks, disc, linops, serialize, ssf
from .errors import SsftraceError

# what a bad pair, table or option raises; a missing or unreadable file is an OSError
INPUT_ERRORS = (SsftraceError, ValueError, KeyError, OSError)


def _load_pair(t_path, t0_path) -> linops.ContractionPair:
    return linops.make_pair(serialize.load_matrix(t_path), serialize.load_matrix(t0_path))


def cmd_gen(args) -> int:
    pair = linops.random_pair(args.dim, args.delta, args.perturbation, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    serialize.save_matrix(out / "T.json", pair.T)
    serialize.save_matrix(out / "T0.json", pair.T0)
    manifest = {
        "dim": args.dim,
        "delta": args.delta,
        "perturbation_trace_norm": args.perturbation,
        "seed": args.seed,
        "files": {"T": "T.json", "T0": "T0.json"},
        "certificates": {"T": asdict(pair.cert_T), "T0": asdict(pair.cert_T0)},
    }
    serialize.write_json(out / "manifest.json", manifest, indent=2)
    return 0


def _write_verify_reports(out: Path, results: list[checks.CheckResult],
                          failures: list[str], timings: dict, config: dict):
    out.mkdir(parents=True, exist_ok=True)
    serialize.write_csv(out / "report.csv", ["name", "passed", "measured", "threshold"],
                        ([c.name, c.passed, c.measured, c.threshold] for c in results))
    summary = {
        "passed": not failures and all(c.passed for c in results),
        "num_checks": len(results),
        "failures": failures + [c.name for c in results if not c.passed],
        "checks": [dict(vars(c)) for c in results],
        "timings_s": timings,
        "config": config,
    }
    serialize.write_json(out / "summary.json", summary, indent=2)
    return summary


def cmd_verify(args) -> int:
    suites = checks.SUITES if args.suite == "all" else (args.suite,)
    # --n-max sets nothing, but a negative value stays a usage error until it goes
    if args.n_max < 0:
        print(f"--n-max must be >= 0, got {args.n_max}", file=sys.stderr)
        return 2
    out = Path(args.out)
    try:
        pair = _load_pair(args.t, args.t0)
    except INPUT_ERRORS as exc:
        results, timings = [], {}
        failures = [f"load: {type(exc).__name__}: {exc}"]
    else:
        results, timings = checks.run(pair, suites)
        failures = []
    config = checks.config(suites)
    summary = _write_verify_reports(out, results, failures, timings, config)
    print(json.dumps({"passed": summary["passed"], "failures": summary["failures"]}))
    return 0 if summary["passed"] else 1


def cmd_ssf(args) -> int:
    if args.grid < 1:
        raise ValueError(f"--grid must be >= 1, got {args.grid}")
    ssf.check_abel_radius(args.abel_radius)
    pair = _load_pair(args.t, args.t0)
    table = ssf.ssf_from_moments(ssf.moments(pair, args.n_max))
    t_grid = 2.0 * np.pi * np.arange(args.grid) / args.grid
    values = ssf.evaluate_ssf_uniform(table, args.grid, args.abel_radius)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    serialize.write_csv(out / "ssf.csv", ["t", "xi_r"], zip(t_grid.tolist(), values.tolist()))
    serialize.write_json(out / "ssf_coeffs.json", serialize.ssf_to_dict(table))
    return 0


def cmd_disc_report(args) -> int:
    pair = _load_pair(args.t, args.t0)
    cfg = (disc.DiscQuadratureConfig(radius_schedule=tuple(args.radii)) if args.radii
           else checks.DISC_CONFIG)
    psi = (serialize.load_series(args.psi, cfg.max_order) if args.psi
           else ssf.LaurentSeries.from_terms(checks.DISC_TABLES["real_sym"]))
    # the pairing reads xi_hat(-n) only at the modes psi holds
    xi = ssf.ssf_from_moments(ssf.moments(pair, max(psi.order, 1)))
    radii = cfg.radius_schedule
    quads, = disc.quadrature(xi, [psi], radii)
    closed = disc.disc_integral_closed_form(xi, psi, radii)
    lhs = calculus.laurent_difference_trace(np.stack((pair.T, pair.T0)), psi)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    serialize.write_csv(
        out / "disc.csv", ["R", "quad_re", "quad_im", "closed_re", "closed_im", "lhs_re", "lhs_im"],
        ([R, q.real, q.imag, c.real, c.imag, lhs.real, lhs.imag]
         for R, q, c in zip(map(float, radii), quads.tolist(), closed.tolist())))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssftrace",
        description="Spectral shift functions and trace formulas for contraction pairs")
    sub = parser.add_subparsers(dest="command", required=True)
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--t", required=True)
    pair.add_argument("--t0", required=True)

    gen = sub.add_parser("gen", help="generate a reproducible random pair")
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--delta", type=float, required=True)
    gen.add_argument("--perturbation", type=float, default=0.1)
    gen.add_argument("--seed", type=int, required=True)
    gen.set_defaults(func=cmd_gen)

    verify = sub.add_parser("verify", parents=[pair], help="run verification suites on a pair")
    verify.add_argument("--suite", choices=[*checks.SUITES, "all"], default="all")
    verify.add_argument("--n-max", type=int, default=64,
                        help="ignored: verify builds xi to its symbols' order "
                             f"({checks.CIRCLE_ORDER}); ROADMAP item 1 deletes the option")
    verify.set_defaults(func=cmd_verify)

    export = sub.add_parser("ssf", parents=[pair],
                            help="export shift-function coefficients and a value grid")
    export.add_argument("--n-max", type=int, default=64, help="order of the exported xi table")
    export.add_argument("--grid", type=int, default=256)
    export.add_argument("--abel-radius", type=float, default=0.99)
    export.set_defaults(func=cmd_ssf)

    report = sub.add_parser("disc-report", parents=[pair],
                            help="per-radius disc trace formula report")
    report.add_argument("--psi", help="two-sided series JSON; default built-in table")
    report.add_argument("--radii", type=float, nargs="+")
    report.set_defaults(func=cmd_disc_report)

    for p in sub.choices.values():
        p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    """Run one command; a bad input or option ends it with exit 1 and a
    one-line message on stderr (``verify`` records load errors in its report), as
    does a size too large to allocate."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (*INPUT_ERRORS, MemoryError) as exc:
        # numpy raises a private subclass of MemoryError; name the public class
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(f"{name}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
