"""What ``ssftrace verify`` checks: every check, threshold and test symbol.

The CLI and the acceptance tests both call these suite functions.
Layer functions are called through their modules (``ssf.moments(...)``), not
from-imports, so a profiler that rebinds module attributes sees every call.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import calculus, dilation, disc, kernel_integral, linops, ssf

SUITES = ("lemma", "dilation", "circle", "disc")

# every check's threshold or budget constant, read-only: a run cannot redefine a verdict
TOLERANCES = MappingProxyType({
    "semigroup_tol": 1e-7,
    # roundoff allowance of the lemma's trace-norm bound, whose two sides meet for A = B
    "trace_bound_slack": 1e-12,
    "identity_tol": 1e-12,
    "orthonormality_tol": 1e-10,
    "offblock_tol": 1e-12,
    "compression_tol": 1e-10,
    "trace_transfer_tol": 1e-9,
    "circle_tol": 1e-9,
    "quad_match_tol": 1e-8,
    "disc_gap_extra": 1e-9,
    "cross_theorem_tol": 1e-10,
})

WINDOW_N = 8  # dilation window radius; powers 1..N are checked
ABEL_RADIUS = 0.999  # radius of the circle quadrature route
CONSTANT_SHIFT = 3.7  # replaces xi_hat(0) in the constant-independence check

CIRCLE_SERIES = {
    "poly": {1: 0.5, 2: 1.0, 3: -0.25},
    "exp": {k: 1.0 / float(math.factorial(k)) for k in range(21)},
    "geom": {k: 0.7 ** k / k for k in range(1, 31)},
}
DISC_TABLES = {
    "one_sided": {1: 1.0, 2: 0.5},
    "real_sym": {1: 0.3 + 0.2j, -1: 0.3 - 0.2j, 2: -0.1j, -2: 0.1j},
    "mixed": {-1: 0.4, 1: 0.25, 3: 0.1},
}
# each pairing reads xi_hat(-n) only at its symbols' modes: the circle suite's up to
# their largest degree, the disc suite's up to its tables' order
CIRCLE_ORDER = max(max(terms) for terms in CIRCLE_SERIES.values())
DISC_MAX_ORDER = max(abs(n) for terms in DISC_TABLES.values() for n in terms)
XI_ORDERS = {"circle": CIRCLE_ORDER, "disc": DISC_MAX_ORDER}
# the circle left sides' babies: powers of the stacked pair to isqrt of their largest degree
TABLE_ORDER = math.isqrt(CIRCLE_ORDER)
DISC_CONFIG = disc.DiscQuadratureConfig()


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float


def _within(name: str, measured, threshold) -> CheckResult:
    return CheckResult(name, bool(measured <= threshold), float(measured), float(threshold))


def lemma_checks(pair: linops.ContractionPair) -> list[CheckResult]:
    """Defect-difference identity, trace-norm bound and semigroup integral, per side."""
    identity, bound, semigroup = [], [], []
    defects_T, defects_T0 = pair.defects
    # ((eig D_T, eig D_T0), (eig D_T*, eig D_T0*))
    eigenpairs = tuple(zip(*pair.defect_eigenpairs))
    operators = ((pair.T, pair.T0), (pair.T.conj().T, pair.T0.conj().T))
    for side, A, B, (eig_A, eig_B), (T, T0) in zip(("left", "right"), defects_T, defects_T0,
                                                   eigenpairs, operators):
        identity.append(_within(f"lemma/identity_{side}",
                                kernel_integral.defect_identity_error(A, B, T, T0),
                                TOLERANCES["identity_tol"]))
        report = kernel_integral.semigroup_integral(A, B, eig_A, eig_B)
        bound.append(_within(f"lemma/trace_bound_{side}", report.trace_norm_difference,
                             report.trace_bound + TOLERANCES["trace_bound_slack"]))
        semigroup.append(_within(f"lemma/semigroup_{side}", report.frobenius_error,
                                 TOLERANCES["semigroup_tol"]))
    return identity + bound + semigroup


def dilation_checks(pair: linops.ContractionPair) -> list[CheckResult]:
    """Window structure, compressions and trace transfer for powers 1..WINDOW_N,
    each read off the Julia operators of T and T0."""
    (D, D_star), (D0, D0_star) = pair.defects
    JT = dilation.julia(pair.T, D, D_star)
    J0 = dilation.julia(pair.T0, D0, D0_star)
    results = [_within(f"dilation/orthonormal_{name}", dilation.interior_column_orthonormality(J),
                       TOLERANCES["orthonormality_tol"])
               for name, J in (("T", JT), ("T0", J0))]
    results.append(_within("dilation/four_blocks", dilation.four_blocks_residual(pair, JT, J0),
                           TOLERANCES["offblock_tol"]))
    for n, gap, lhs, rhs in dilation.power_walk(pair, JT, J0, WINDOW_N):
        results.append(_within(f"dilation/compression_n{n}", gap, TOLERANCES["compression_tol"]))
        results.append(_within(f"dilation/trace_transfer_n{n}", abs(lhs - rhs),
                               TOLERANCES["trace_transfer_tol"]))
    return results


def circle_checks(powers, xi: ssf.LaurentSeries,
                  series: dict = CIRCLE_SERIES) -> list[CheckResult]:
    """Circle formula per symbol: pairing vs. left side, quadrature vs. the pairing's
    Abel mean, constant shift.  The grid sums phi' xi_r exactly, so the quadrature
    meets the Abel mean at radius r, the closed form at R = sqrt(r), to roundoff.
    The left sides read ``powers``, the ``calculus.power_table`` of the stacked pair."""
    results = []
    phis = [ssf.LaurentSeries.from_terms(terms) for terms in series.values()]
    quads = calculus.trace_rhs_circle_quadrature(xi, phis, abel_radius=ABEL_RADIUS)
    for name, phi, quad in zip(series, phis, quads):
        lhs = calculus.trace_lhs_circle(powers, phi)
        # 2*pi*i sum k a_k xi_hat(-k) R^(2k) at R = sqrt(r) and at the limit R = 1
        abel, rhs = disc.disc_integral_closed_form(xi, phi, (math.sqrt(ABEL_RADIUS), 1.0)).tolist()
        tol = TOLERANCES["circle_tol"] * (1.0 + phi.weighted_norm)
        results.append(_within(f"circle/formula_{name}", abs(lhs - rhs), tol))
        results.append(_within(f"circle/quadrature_{name}", abs(quad - abel), tol))
        shifted = complex(disc.disc_integral_closed_form(xi.with_constant(CONSTANT_SHIFT),
                                                          phi, 1.0))
        results.append(_within(f"circle/constant_independence_{name}", abs(shifted - rhs), 0.0))
    return results


def disc_checks(S, xi: ssf.LaurentSeries) -> list[CheckResult]:
    """Disc formula per table, from its three routes (quadrature over the radius schedule,
    closed form, trace of the two-sided difference): quadrature vs. closed form, limit gap
    in the tail, cross-theorem.  The left sides read the stacked pair S = (T, T0), the
    circle one S^1 alone, the one baby a table of order 3 or less reads."""
    results = []
    psis = [ssf.LaurentSeries.from_terms(terms) for terms in DISC_TABLES.values()]
    radii = DISC_CONFIG.radius_schedule
    quads = disc.quadrature(xi, psis, radii)
    for (name, terms), psi, quad in zip(DISC_TABLES.items(), psis, quads):
        closed = disc.disc_integral_closed_form(xi, psi, radii).tolist()
        lhs = calculus.laurent_difference_trace(S, psi)
        worst = max(abs(q - c) for q, c in zip(quad.tolist(), closed))
        results.append(_within(f"disc/quad_vs_closed_{name}", worst, TOLERANCES["quad_match_tol"]))
        results.append(_within(f"disc/limit_gap_{name}", abs(closed[-1] - lhs),
                               disc.disc_tail_bound(xi, psi, radii[-1])
                               + TOLERANCES["disc_gap_extra"]))
        if all(n >= 0 for n in terms):  # no negative modes: the circle left side applies
            results.append(_within(f"disc/cross_theorem_{name}",
                                   abs(lhs - calculus.trace_lhs_circle(S[:, None], psi)),
                                   TOLERANCES["cross_theorem_tol"]))
    return results


def _xi_order(suites) -> dict[str, int]:
    return {suite: order for suite, order in XI_ORDERS.items() if suite in suites}


def config(suites) -> dict:
    """The settings a verify run checks with, as ``summary.json`` records them."""
    return {
        "tolerances": dict(TOLERANCES),
        "xi_order": _xi_order(suites),
        "window_n": WINDOW_N,
        "abel_radius": ABEL_RADIUS,
        "quadrature_points": disc.angular_nodes(CIRCLE_ORDER),
        "disc_grid": {"radial_nodes": disc.radial_nodes(DISC_MAX_ORDER),
                      "angular_nodes": disc.angular_nodes(DISC_MAX_ORDER),
                      "radius_schedule": list(DISC_CONFIG.radius_schedule)},
    }


@contextmanager
def _stopwatch(timings: dict, name: str):
    start = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - start


def run(pair: linops.ContractionPair, suites) -> tuple[list[CheckResult], dict[str, float]]:
    """Every check of the selected suites, in SUITES order, and the wall seconds of each
    suite.  The circle and disc suites read one xi, built to the largest of their
    ``XI_ORDERS`` and timed as "xi" (the disc suite pairs only its tables' modes, so no
    row moves); the circle suite reads ``TABLE_ORDER`` powers of S = (T, T0), timed as
    "powers" and let go before the disc suite, which steps from S."""
    results, timings = [], {}
    if "lemma" in suites:
        with _stopwatch(timings, "lemma"):
            results += lemma_checks(pair)
    if "dilation" in suites:
        with _stopwatch(timings, "dilation"):
            results += dilation_checks(pair)
    orders = _xi_order(suites)
    if orders:
        with _stopwatch(timings, "xi"):
            xi = ssf.ssf_from_moments(ssf.moments(pair, max(orders.values())))
        if "circle" in suites:
            with _stopwatch(timings, "powers"):
                powers = calculus.power_table(np.stack((pair.T, pair.T0)), TABLE_ORDER)
            with _stopwatch(timings, "circle"):
                results += circle_checks(powers, xi)
            del powers
        if "disc" in suites:
            with _stopwatch(timings, "disc"):
                results += disc_checks(np.stack((pair.T, pair.T0)), xi)
    return results, timings
