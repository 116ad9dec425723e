"""Acceptance gate: one test per headline claim, one printed verdict each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines as they are produced.  C2, C3, C4, C7 and C8 run the
checks of ``ssftrace verify`` (``ssftrace.checks``) with its tolerances
over seeded pair sets; C2, C3, C4 and C7 add the pairs with
||T|| = 1 from ``norm_one_pairs``.
"""

import numpy as np

from oracles import disc_quadrature, eigh, kernel_expansion_check, poisson_extend
from pairs import (norm_one_pairs, pair_powers, random_pairs, random_positive_pair,
                   random_strict_pair, scalar_pair)
from ssftrace import calculus, checks, disc, kernel_integral, ssf
from ssftrace.calculus import LaurentSeries

SLACK = checks.TOLERANCES["trace_bound_slack"]

# the verify symbols plus two sparse ones
ACCEPTANCE_SERIES = {
    **checks.CIRCLE_SERIES,
    "odd": {1: 1.0, 3: -1.0 / 3.0, 5: 0.2},
    "quad": {2: 1.0},
}


def verdict(label: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def max_measured(results, prefix: str) -> float:
    """Largest measured value over the checks whose name starts with prefix."""
    return max(c.measured for c in results if c.name.startswith(prefix))


def max_ratio(results, prefix: str) -> float:
    """Largest measured/threshold over the checks whose name starts with prefix."""
    return max(c.measured / c.threshold for c in results if c.name.startswith(prefix))


def test_c1_semigroup_integral():
    worst_err = 0.0
    violations = 0
    for i in range(100):
        A, B = random_positive_pair(dim=2 + i % 11, delta_b=0.2, seed=9000 + i)
        r = kernel_integral.semigroup_integral(A, B, eigh(A), eigh(B))
        worst_err = max(worst_err, r.frobenius_error)
        violations += r.trace_norm_difference > r.trace_bound + SLACK
    ok = worst_err <= checks.TOLERANCES["semigroup_tol"] and violations == 0
    verdict("C1 semigroup integral", ok,
            f"max Frobenius error {worst_err:.3e}, bound violations {violations}")


def test_c2_defect_difference():
    results = []
    for pair in random_pairs(100, seed=9100, delta=0.2) + norm_one_pairs():
        results += checks.lemma_checks(pair)
    worst_id = max_measured(results, "lemma/identity_")
    violations = sum(not c.passed for c in results if c.name.startswith("lemma/trace_bound_"))
    ok = all(c.passed for c in results)
    verdict("C2 defect difference", ok,
            f"max identity error {worst_id:.3e}, bound violations {violations}")


def test_c3_dilation():
    results = []
    for pair in random_pairs(50, seed=9200, dims=(2, 3, 4, 5, 6)) + norm_one_pairs():
        results += checks.dilation_checks(pair)
    ok = all(c.passed for c in results)
    verdict("C3 truncated dilation", ok,
            f"worst ortho {max_measured(results, 'dilation/orthonormal_'):.3e}, "
            f"off-blocks {max_measured(results, 'dilation/four_blocks'):.3e}, "
            f"compression {max_measured(results, 'dilation/compression_'):.3e}, "
            f"trace transfer {max_measured(results, 'dilation/trace_transfer_'):.3e}")


def test_c4_circle_formula():
    n_max = max(max(terms) for terms in ACCEPTANCE_SERIES.values())
    results = []
    for pair in random_pairs(50, seed=9300) + norm_one_pairs():
        xi = ssf.ssf_from_moments(ssf.moments(pair, n_max))
        results += checks.circle_checks(pair_powers(pair), xi, ACCEPTANCE_SERIES)
    ok = all(c.passed for c in results)
    # |lhs - rhs| / (1 + sum k|a_k|)
    scaled_gap = max_ratio(results, "circle/formula_") * checks.TOLERANCES["circle_tol"]
    const_exact = max_measured(results, "circle/constant_independence_") == 0.0
    verdict("C4 circle trace formula", ok,
            f"worst scaled gap {scaled_gap:.3e}, "
            f"worst quadrature/budget {max_ratio(results, 'circle/quadrature_'):.3f}, "
            f"constant independence exact: {const_exact}")


def test_c6_poisson_fatou():
    s = ssf.ssf_from_moments(
        ssf.moments(random_strict_pair(6, 0.8, 0.5, 777), 48))
    # harmonicity: five-point Laplacian stencil at interior points
    h = 1e-3
    rng = np.random.default_rng(778)
    worst_lap = 0.0
    for _ in range(40):
        z = complex(*rng.uniform(-0.5, 0.5, 2))
        f = poisson_extend
        lap = abs(f(s, z + h) + f(s, z - h) + f(s, z + 1j * h)
                  + f(s, z - 1j * h) - 4.0 * f(s, z)) / h ** 2
        worst_lap = max(worst_lap, lap / (1.0 + abs(f(s, z))))
    # kernel truncation stays inside its geometric tail
    t_grid = 2.0 * np.pi * np.arange(1024) / 1024
    kernel_ok = True
    for z, n_trunc in ((0.9j, 200), (0.6 - 0.3j, 100), (-0.8, 160)):
        err = kernel_expansion_check(z, t_grid, n_trunc)
        bound = 2.0 * abs(z) ** (n_trunc + 1) / (1.0 - abs(z))
        kernel_ok &= err <= bound + 1e-13
    ok = worst_lap <= 1e-5 and kernel_ok
    verdict("C6 Poisson extension", ok,
            f"stencil residual {worst_lap:.3e}, kernel bound ok {kernel_ok}")


def test_c7_disc_formula():
    results = []
    for pair in random_pairs(25, seed=9500, dims=(2, 4, 6)) + norm_one_pairs():
        xi = ssf.ssf_from_moments(ssf.moments(pair, 32))
        results += checks.disc_checks(pair_powers(pair), xi)
    disc_ok = all(c.passed for c in results)
    gap_ok = all(c.passed for c in results if c.name.startswith("disc/limit_gap_"))
    # angular orthogonality of monomial Jacobians on a fixed disc
    ortho_ok = True
    R = 0.85
    for n in range(1, 9):
        for m in range(1, 9):
            xi = LaurentSeries.from_terms({n: 1.0 / n})
            psi = LaurentSeries.from_terms({-m: 1.0 / m})
            val = disc_quadrature(xi, psi, R)
            want = -4j * np.pi * R ** (n + m) / (n + m) if n == m else 0.0
            ortho_ok &= abs(val - want) <= 1e-12
    ok = disc_ok and ortho_ok
    verdict("C7 disc Jacobian trace formula", ok,
            f"worst quad-vs-closed {max_measured(results, 'disc/quad_vs_closed_'):.3e}, "
            f"limit gaps within tail {gap_ok}, angular orthogonality {ortho_ok}")


def test_c8_cross_theorem():
    # the disc suite's cross-theorem rows, off a xi to the order its tables read
    results = []
    for pair in random_pairs(25, seed=9500, dims=(2, 4, 6)):
        xi = ssf.ssf_from_moments(ssf.moments(pair, checks.DISC_MAX_ORDER))
        results += [c for c in checks.disc_checks(pair_powers(pair), xi)
                    if c.name == "disc/cross_theorem_one_sided"]
    assert len(results) == 25
    ok = all(c.passed for c in results)
    verdict("C8 cross-theorem consistency", ok,
            f"max one-sided LHS gap {max_measured(results, 'disc/cross_theorem_'):.3e}")


def test_c9_scalar_golden():
    pair = scalar_pair(0.5, 0.25)
    psi = LaurentSeries.from_terms({1: 1.0})
    lhs = calculus.laurent_difference_trace(pair_powers(pair), psi)
    s = ssf.ssf_from_moments(ssf.moments(pair, 16))
    curve_err = max(
        abs(disc.disc_integral_closed_form(s, psi, R) - 0.25 * R ** 2)
        for R in (0.3, 0.5, 0.8, 0.99, 1.0))
    ok = abs(lhs - 0.25) <= 1e-12 and curve_err <= 1e-12
    verdict("C9 scalar golden values", ok,
            f"|lhs - 0.25| = {abs(lhs - 0.25):.3e}, "
            f"max |closed(R) - 0.25 R^2| = {curve_err:.3e}")
