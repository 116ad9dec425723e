"""Wrong implementations that the verify suites must catch.

Each mutant replaces one layer function with a plausible mistake, and the
suites that touch that layer must then fail at least one row.  A mutant
that no row catches points to a row that measures only roundoff.  Pairs
are built after patching, because ``make_pair`` stores the defect eigenpairs
on the pair and ``pair.defects`` is cached there.
"""

import dataclasses

import numpy as np
import pytest

from pairs import NORM_ONE_IDS, norm_one_pairs
from ssftrace import calculus, checks, dilation, disc, kernel_integral, linops, ssf

N_MAX = 64
exact_validate = linops.validate_contraction
exact_moments = ssf.moments
exact_ring_sums = disc._ring_sums
exact_ring_wirtinger = disc._ring_wirtinger
exact_julia = dilation.julia
exact_integral = kernel_integral.semigroup_integral
exact_circle_quadrature = calculus.trace_rhs_circle_quadrature
POOL_IDS = ("random_d16", *NORM_ONE_IDS)
QUAD_ROWS = {f"disc/quad_vs_closed_{name}" for name in checks.DISC_TABLES}
CIRCLE_QUAD_ROWS = {f"circle/quadrature_{name}" for name in checks.CIRCLE_SERIES}
GEOM_ROW = {"circle/quadrature_geom"}
# random_d16's xi is smooth enough that only the longest symbol aliases on it
ALIASED = {"random_d16": GEOM_ROW, **dict.fromkeys(NORM_ONE_IDS, CIRCLE_QUAD_ROWS)}


def factors_one_minus_s(M):
    """linops.validate_contraction with r = 1 - s in place of sqrt((1 - s)(1 + s)):
    both the pair's defects and the lemma's eigenpairs read it."""
    U, s, Vh = np.linalg.svd(linops.as_operator(M))
    return exact_validate(M)[0], ((1.0 - s, Vh.conj().T), (1.0 - s, U))


def eigenpairs_swapped(M):
    """linops.validate_contraction with the eigenpairs of D_M and D_M* in each
    other's places."""
    cert, (eig_D, eig_D_star) = exact_validate(M)
    return cert, (eig_D_star, eig_D)


def integral_eigenvalues_reversed(A, B, eig_A, eig_B):
    """kernel_integral.semigroup_integral handed eigenpairs whose eigenvalues run in
    reverse order against their eigenvectors."""
    (a, Va), (b, Vb) = eig_A, eig_B
    return exact_integral(A, B, (a[::-1], Va), (b[::-1], Vb))


def trace_bound_frobenius(A, B, eig_A, eig_B):
    """kernel_integral.semigroup_integral with ||A^2 - B^2||_F / delta_B, not the trace
    norm, as the bound: at most the true bound, so below ||A - B||_1 where that is tight."""
    report = exact_integral(A, B, eig_A, eig_B)
    bound = np.linalg.norm(A @ A - B @ B, "fro") / eig_B[0].min()
    return dataclasses.replace(report, trace_bound=float(bound))


def circle_quadrature_conjugated(s, phis, abel_radius):
    """calculus.trace_rhs_circle_quadrature returning the conjugate of each value."""
    return [q.conjugate() for q in exact_circle_quadrature(s, phis, abel_radius)]


def moments_shifted(pair, n_max):
    """ssf.moments one power off: Tr(T^(n+1) - T0^(n+1)) in place of m_n."""
    return exact_moments(pair, n_max + 1)[1:]


def ring_sums_negated(xi_grids, psi_grids):
    """disc._ring_sums with the Jacobian's sign flipped."""
    return -exact_ring_sums(xi_grids, psi_grids)


def ring_wirtinger_extra_power(coeffs, r, M):
    """disc._ring_wirtinger with both derivatives one power of r too high."""
    dz, dzbar = exact_ring_wirtinger(coeffs, r, M)
    return r[:, None] * dz, r[:, None] * dzbar


def ring_wirtinger_dzbar_sign_slip(coeffs, r, M):
    """disc._ring_wirtinger with d/dzbar on the modes n - 1, not 1 - n: the FFT's
    sign convention slipped."""
    K = (coeffs.shape[-1] - 1) // 2
    n = np.arange(1, K + 1)
    dz, _ = exact_ring_wirtinger(coeffs, r, M)
    scale = n * r[:, None] ** (n - 1)
    return dz, ssf.uniform_trig_values(n - 1, coeffs[..., None, K - n] * scale, M)


def julia_minus_t(T, D, D_star):
    """dilation.julia with -T in place of -T* in block (-1, 1)."""
    J = exact_julia(T, D, D_star)
    d = len(T)
    J[:d, d:] = -T
    return J


def julia_defects_swapped(T, D, D_star):
    """dilation.julia with D_T and D_T* in each other's slots."""
    return exact_julia(T, D_star, D)


def julia_conjugated_t(T, D, D_star):
    """dilation.julia with conj(T) in T's slot."""
    J = exact_julia(T, D, D_star)
    d = len(T)
    J[d:, :d] = T.conj()
    return J


def failed_rows(suites):
    pair = linops.random_pair(16, 0.25, 0.1, seed=1)
    results, _ = checks.run(pair, suites, N_MAX)
    return {c.name for c in results if not c.passed}


def failed_rows_by_pair():
    """{pair id: failed rows of every suite} over the random pair of ``failed_rows``
    and the three ``norm_one_pairs``, where the bound rows are tight."""
    pairs = [linops.random_pair(16, 0.25, 0.1, seed=1), *norm_one_pairs()]
    return {pair_id: {c.name for c in checks.run(pair, checks.SUITES, N_MAX)[0] if not c.passed}
            for pair_id, pair in zip(POOL_IDS, pairs)}


def test_wrong_defect_fails_lemma(monkeypatch):
    assert not failed_rows(("lemma",))
    monkeypatch.setattr(linops, "validate_contraction", factors_one_minus_s)
    assert {"lemma/identity_left", "lemma/identity_right"} <= failed_rows(("lemma",))


def test_swapped_eigenpairs_fail_identity_and_orthonormality(monkeypatch):
    # D_M and D_M* share their spectrum, so the trace norms and the semigroup
    # integral of each side still meet; M D_M = D_M* M and the Julia operator do not
    monkeypatch.setattr(linops, "validate_contraction", eigenpairs_swapped)
    assert failed_rows(checks.SUITES) == {"lemma/identity_left", "lemma/identity_right",
                                          "dilation/orthonormal_T", "dilation/orthonormal_T0"}


def test_reversed_eigenvalues_fail_semigroup(monkeypatch):
    # the trace norms and the defect identity never read the eigenpairs
    monkeypatch.setattr(kernel_integral, "semigroup_integral", integral_eigenvalues_reversed)
    assert failed_rows(("lemma",)) == {"lemma/semigroup_left", "lemma/semigroup_right"}


def test_shifted_moments_fail_circle_and_disc(monkeypatch):
    # these rows catch a wrong moment sequence through xi, so a pairing of the
    # moments with a symbol, term for term the closed form, adds no detection
    assert not failed_rows(("circle", "disc"))
    monkeypatch.setattr(ssf, "moments", moments_shifted)
    failed = failed_rows(("circle", "disc"))
    assert any(name.startswith("circle/formula_") for name in failed)
    assert any(name.startswith("disc/limit_gap_") for name in failed)


@pytest.mark.parametrize("name, mutant", [("_ring_sums", ring_sums_negated),
                                          ("_ring_wirtinger", ring_wirtinger_extra_power),
                                          ("_ring_wirtinger", ring_wirtinger_dzbar_sign_slip)])
def test_wrong_jacobian_fails_disc_quadrature(monkeypatch, name, mutant):
    assert not failed_rows(("disc",))
    monkeypatch.setattr(disc, name, mutant)
    assert QUAD_ROWS <= failed_rows(("disc",))


def test_transposed_block_fails_dilation(monkeypatch):
    assert not failed_rows(("dilation",))
    monkeypatch.setattr(dilation, "julia", julia_minus_t)
    assert {"dilation/orthonormal_T", "dilation/orthonormal_T0",
            "dilation/four_blocks"} <= failed_rows(("dilation",))


def test_swapped_defects_fail_dilation(monkeypatch):
    monkeypatch.setattr(dilation, "julia", julia_defects_swapped)
    assert failed_rows(("dilation",)) == {"dilation/orthonormal_T", "dilation/orthonormal_T0",
                                          "dilation/four_blocks"}


def test_conjugated_t_fails_every_dilation_row(monkeypatch):
    # the T slot is what the power walk raises to n, so [W^n]_00 = conj(T)^n and
    # Tr W^n = conj(Tr T^n) move off T^n and Tr T^n
    monkeypatch.setattr(dilation, "julia", julia_conjugated_t)
    pair = linops.random_pair(16, 0.25, 0.1, seed=1)
    rows = checks.dilation_checks(pair)
    assert len(rows) == 19
    assert [r.name for r in rows if r.passed] == []


def test_frobenius_bound_fails_trace_bound_where_tight(monkeypatch):
    # ||C||_F <= ||C||_1, so the bound only drops; it drops below ||A - B||_1 on the
    # norm-one pairs, where the unmutated bound has the least slack
    bound_rows = {"lemma/trace_bound_left", "lemma/trace_bound_right"}
    monkeypatch.setattr(kernel_integral, "semigroup_integral", trace_bound_frobenius)
    assert failed_rows_by_pair() == {"random_d16": set(),
                                     **dict.fromkeys(NORM_ONE_IDS, bound_rows)}


def test_conjugated_quadrature_fails_circle_quadrature(monkeypatch):
    monkeypatch.setattr(calculus, "trace_rhs_circle_quadrature", circle_quadrature_conjugated)
    assert failed_rows_by_pair() == dict.fromkeys(POOL_IDS, CIRCLE_QUAD_ROWS)


@pytest.mark.parametrize("nodes, failed", [
    # K and 2K points alias phi' xi_r, of degree 2K, onto its low modes; 2K + 1 points
    # are the fewest that sum it exactly, so the roundoff threshold fails none
    (lambda K: K, ALIASED),
    (lambda K: 2 * K, {"random_d16": set(), **dict.fromkeys(NORM_ONE_IDS, GEOM_ROW)}),
    (lambda K: 2 * K + 1, dict.fromkeys(POOL_IDS, set())),
], ids=["K", "2K", "2K+1"])
def test_aliasing_grid_fails_circle_quadrature(monkeypatch, nodes, failed):
    monkeypatch.setattr(calculus, "angular_nodes", nodes)
    assert failed_rows_by_pair() == failed


def test_coarse_quadrature_grid_fails_where_xi_is_rough(monkeypatch):
    # a 32-point rule on the circle route alone (the disc keeps its rule) aliases
    # every symbol against the norm-one pairs' xi, whose coefficients decay slowest,
    # and the longest symbol against random_d16's
    monkeypatch.setattr(calculus, "angular_nodes", lambda order: 32)
    assert failed_rows_by_pair() == ALIASED
