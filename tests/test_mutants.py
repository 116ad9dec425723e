"""Wrong implementations that the verify suites must catch.

Each ``REGISTRY`` entry replaces one layer function with a plausible mistake and
pins the rows it fails on each pool pair.  A mutant that no row catches points to
a row that measures only roundoff, and a row that no mutant fails to a row that
checks nothing.  Pairs are built after patching, because ``make_pair`` stores the
defect eigenpairs on the pair and ``pair.defects`` is cached there.
"""

import collections
import dataclasses
import itertools

import numpy as np
import pytest

from pairs import NORM_ONE_IDS, norm_one_pairs
from ssftrace import calculus, checks, dilation, disc, kernel_integral, linops, ssf

exact_validate = linops.validate_contraction
exact_moments = ssf.moments
exact_ring_sums = disc._ring_sums
exact_ring_wirtinger = disc._ring_wirtinger
exact_julia = dilation.julia
exact_integral = kernel_integral.semigroup_integral
exact_circle_quadrature = calculus.trace_rhs_circle_quadrature
exact_laurent = calculus.apply_laurent
POOL_IDS = ("random_d16", *NORM_ONE_IDS)
ROWS = [c.name for c in checks.run(linops.random_pair(4, 0.25, 0.1, seed=0), checks.SUITES)[0]]


def factors_one_minus_s(M):
    """linops.validate_contraction with r = 1 - s in place of sqrt((1 - s)(1 + s)):
    both the pair's defects and the lemma's eigenpairs read it."""
    U, s, Vh = np.linalg.svd(linops.as_operator(M))
    return exact_validate(M)[0], ((1.0 - s, Vh.conj().T), (1.0 - s, U))


def eigenpairs_swapped(M):
    """linops.validate_contraction with the eigenpairs of D_M and D_M* swapped."""
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
    J[:len(T), len(T):] = -T
    return J


def julia_conjugated_t(T, D, D_star):
    """dilation.julia with conj(T) in T's slot."""
    J = exact_julia(T, D, D_star)
    J[len(T):, :len(T)] = T.conj()
    return J


def failed_rows_by_pair():
    """{pair id: failed rows of every suite} over ``random_pair(16, 0.25, 0.1, 1)`` and
    the three ``norm_one_pairs``, where the bound rows are tight."""
    pairs = [linops.random_pair(16, 0.25, 0.1, seed=1), *norm_one_pairs()]
    return {pair_id: {c.name for c in checks.run(pair, checks.SUITES)[0] if not c.passed}
            for pair_id, pair in zip(POOL_IDS, pairs)}


def rows(*prefixes):
    return {name for name in ROWS if name.startswith(prefixes)}


def pool(failed, **by_pair):
    """{pool pair id: ``failed``}, save the pairs that ``by_pair`` names."""
    return {pair_id: by_pair.get(pair_id, failed) for pair_id in POOL_IDS}


# an entry runs as test_<id>, and the ids <name>[<param>] as the parameters of test_<name>;
# it replaces ssftrace's "module.attribute" target and fails {pool pair id: rows}
Mutant = collections.namedtuple("Mutant", "id target replacement fails")
IDENTITY, ORTHONORMAL = rows("lemma/identity_"), rows("dilation/orthonormal_")
BLOCKS = rows("dilation/orthonormal_", "dilation/four_blocks")
# unitary_d4's T0 = I/2 is real and Hermitian, with D_T0 = D_T0* scalar, so a slip that
# puts T0*, conj(T0), the other defect or reordered eigenvalues in a slot moves no row of it
UNITARY_BLOCKS = BLOCKS - {"dilation/orthonormal_T0"}
CIRCLE_QUAD, GEOM = rows("circle/quadrature_"), {"circle/quadrature_geom"}
# random_d16's xi is smooth enough that only the longest symbol aliases on it
ALIASED = pool(CIRCLE_QUAD, random_d16=GEOM)
# A mutant that leaves every traced difference unchanged is equivalent, not a gap in
# the rows' reach: apply_series without a_0, or returning its transpose, fails no row,
# since neither moves Tr(phi(T) - phi(T0)).  Such mutants are not registered.
REGISTRY = (
    Mutant("wrong_defect_fails_lemma", "linops.validate_contraction", factors_one_minus_s,
           pool(IDENTITY | ORTHONORMAL, unitary_d4=IDENTITY | {"dilation/orthonormal_T0"})),
    # D_M and D_M* share their spectrum, so the trace norms and the semigroup integral
    # of each side still meet; M D_M = D_M* M and the Julia operator do not
    Mutant("swapped_eigenpairs_fail_identity_and_orthonormality", "linops.validate_contraction",
           eigenpairs_swapped,
           pool(IDENTITY | ORTHONORMAL, unitary_d4={"dilation/orthonormal_T"})),
    # the trace norms and the defect identity never read the eigenpairs
    Mutant("reversed_eigenvalues_fail_semigroup", "kernel_integral.semigroup_integral",
           integral_eigenvalues_reversed, pool(rows("lemma/semigroup_"), unitary_d4=set())),
    # Tr(T^(n+1) - T0^(n+1)) in place of m_n: these rows catch a wrong moment sequence
    # through xi, so a pairing of the moments with a symbol adds no detection
    Mutant("shifted_moments_fail_circle_and_disc", "ssf.moments",
           lambda pair, n_max: exact_moments(pair, n_max + 1)[1:],
           pool(rows("circle/formula_", "disc/limit_gap_"))),
    *(Mutant(f"wrong_jacobian_fails_disc_quadrature[{name}-{mutant.__name__}]",
             f"disc.{name}", mutant, pool(rows("disc/quad_vs_closed_")))
      for name, mutant in [("_ring_sums", ring_sums_negated),
                           ("_ring_wirtinger", ring_wirtinger_extra_power),
                           ("_ring_wirtinger", ring_wirtinger_dzbar_sign_slip)]),
    Mutant("transposed_block_fails_dilation", "dilation.julia", julia_minus_t,
           pool(BLOCKS, unitary_d4=UNITARY_BLOCKS)),
    Mutant("swapped_defects_fail_dilation", "dilation.julia",
           lambda T, D, D_star: exact_julia(T, D_star, D),
           pool(BLOCKS, unitary_d4=UNITARY_BLOCKS)),
    # the T slot is what the power walk raises to n, so [W^n]_00 = conj(T)^n and
    # Tr W^n = conj(Tr T^n) move off T^n and Tr T^n
    Mutant("conjugated_t_fails_every_dilation_row", "dilation.julia", julia_conjugated_t,
           pool(rows("dilation/"), unitary_d4=rows("dilation/") - {"dilation/orthonormal_T0"})),
    # ||C||_F <= ||C||_1, so the bound only drops; it drops below ||A - B||_1 on the
    # norm-one pairs, where the unmutated bound has the least slack
    Mutant("frobenius_bound_fails_trace_bound_where_tight", "kernel_integral.semigroup_integral",
           trace_bound_frobenius, pool(rows("lemma/trace_bound_"), random_d16=set())),
    Mutant("conjugated_quadrature_fails_circle_quadrature", "calculus.trace_rhs_circle_quadrature",
           lambda *args, **kwargs: [q.conjugate()
                                    for q in exact_circle_quadrature(*args, **kwargs)],
           pool(CIRCLE_QUAD)),
    # K and 2K points alias phi' xi_r, of degree 2K, onto its low modes; 2K + 1 points
    # are the fewest that sum it exactly, so the roundoff threshold fails none
    *(Mutant(f"aliasing_grid_fails_circle_quadrature[{nodes}]", "calculus.angular_nodes",
             rule, fails)
      for nodes, rule, fails in [("K", lambda K: K, ALIASED),
                                 ("2K", lambda K: 2 * K, pool(GEOM, random_d16=set())),
                                 ("2K+1", lambda K: 2 * K + 1, pool(set()))]),
    # a 32-point rule on the circle route alone (the disc keeps its rule) aliases
    # every symbol against the norm-one pairs' xi, whose coefficients decay slowest,
    # and the longest symbol against random_d16's
    Mutant("coarse_quadrature_grid_fails_where_xi_is_rough", "calculus.angular_nodes",
           lambda order: 32, ALIASED),
    # psi_hat(n) and psi_hat(-n) exchanged, so T^n sits in the slot of (T*)^n: the
    # two-sided left side moves off the closed form, and on a one-sided table off the
    # circle left side
    Mutant("swapped_laurent_slots_fail_limit_gap_and_cross_theorem", "calculus.apply_laurent",
           lambda psi, powers: exact_laurent(ssf.LaurentSeries(psi.coeffs[::-1]), powers),
           pool(rows("disc/limit_gap_", "disc/cross_theorem_"))),
)
# rows that no wrong implementation fails, each with the reason
CANNOT_FAIL = {f"circle/constant_independence_{name}":
               "the closed form never reads xi_hat(0), so the shifted table gives the same "
               "computation as the unshifted one; ROADMAP item 2 deletes the row"
               for name in checks.CIRCLE_SERIES}


def assert_fails(monkeypatch, mutant):
    monkeypatch.setattr(f"ssftrace.{mutant.target}", mutant.replacement)
    assert failed_rows_by_pair() == mutant.fails


def _runner(mutants):
    """The test of one registry name: its one mutant, or its mutants as parameters."""
    if len(mutants) == 1:
        return lambda monkeypatch: assert_fails(monkeypatch, mutants[0])

    @pytest.mark.parametrize("mutant", mutants, ids=[m.id.partition("[")[2][:-1]
                                                     for m in mutants])
    def test(monkeypatch, mutant):
        assert_fails(monkeypatch, mutant)
    return test


for _name, _mutants in itertools.groupby(REGISTRY, key=lambda m: m.id.partition("[")[0]):
    globals()[f"test_{_name}"] = _runner(list(_mutants))


def test_unmutated_pool_fails_no_row():
    assert failed_rows_by_pair() == pool(set())


def test_every_row_can_fail():
    failed = set().union(*(on_pair for m in REGISTRY for on_pair in m.fails.values()))
    assert not failed & CANNOT_FAIL.keys()
    assert failed | CANNOT_FAIL.keys() == set(ROWS)
    assert len(ROWS) == 41
