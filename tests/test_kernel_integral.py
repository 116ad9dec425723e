"""Semigroup integral representation and the defect-difference bounds."""

import tracemalloc

import numpy as np
import pytest

from oracles import eigh
from pairs import random_pairs, random_positive_pair, scalar_pair
from ssftrace import checks, kernel_integral, linops
from ssftrace.errors import NotPositiveContractionError, SingularBError

SLACK = checks.TOLERANCES["trace_bound_slack"]


def integral(A, B):
    """The semigroup integral of two matrices, their eigenpairs by ``eigh``."""
    return kernel_integral.semigroup_integral(A, B, eigh(A), eigh(B))


def diagonal_integral(a, b):
    """The semigroup integral of diag(a) and diag(b), with the eigenvalues a and b."""
    eye = np.eye(len(a))
    return kernel_integral.semigroup_integral(np.diag(a), np.diag(b), (np.array(a), eye),
                                              (np.array(b), eye))


def test_scalar_closed_form():
    # integral of e^(-0.8t) 0.39 e^(-0.5t) dt = 0.39 / 1.3 = 0.3
    r = integral(np.array([[0.8]]), np.array([[0.5]]))
    assert r.computed_difference[0, 0] == pytest.approx(0.3, abs=1e-10)
    assert r.frobenius_error < 1e-10


def test_equal_operators():
    A = np.diag([0.7, 0.4])
    r = integral(A, A)
    np.testing.assert_allclose(r.computed_difference, 0.0, atol=1e-12)
    np.testing.assert_allclose(r.direct_difference, 0.0)


def test_commuting_diagonal():
    r = integral(np.diag([0.9, 0.2]), np.diag([0.4, 0.1]))
    np.testing.assert_allclose(r.computed_difference, np.diag([0.5, 0.1]),
                               atol=1e-9)


def test_rejects_non_positive():
    with pytest.raises(NotPositiveContractionError):
        diagonal_integral([-0.2, 0.5], [0.5, 0.5])
    with pytest.raises(NotPositiveContractionError):
        diagonal_integral([0.5, 0.5], [1.4, 0.5])


def test_rejects_singular_b():
    with pytest.raises(SingularBError):
        diagonal_integral([0.5, 0.5], [1e-6, 0.5])


def test_checks_shapes_before_reading_eigenpairs():
    # the eigenpairs are never read: the mismatch is refused first
    with pytest.raises(ValueError, match="same dimension"):
        kernel_integral.semigroup_integral(np.eye(2), np.eye(3), None, None)


def test_svd_eigenpairs_match_eigh():
    # the lemma's eigenpairs come from the SVD of T; eigh of each defect gives the same
    pair = linops.random_pair(12, 0.25, 0.1, seed=5)
    (U, r, Vh), (U0, r0, Vh0) = pair.defect_factors
    sides = zip(pair.defects[0], pair.defects[1],
                (((r, Vh.conj().T), (r0, Vh0.conj().T)), ((r, U), (r0, U0))))
    for A, B, (eig_A, eig_B) in sides:
        by_svd = kernel_integral.semigroup_integral(A, B, eig_A, eig_B)
        by_eigh = integral(A, B)
        np.testing.assert_allclose(by_svd.computed_difference, by_eigh.computed_difference,
                                   atol=1e-14)
        assert by_svd.trace_bound == pytest.approx(by_eigh.trace_bound, rel=1e-13)


def test_random_pairs_converge():
    for i in range(20):
        A, B = random_positive_pair(dim=4 + i % 9, delta_b=0.2, seed=1000 + i)
        r = integral(A, B)
        assert r.frobenius_error <= 1e-7


def gauss_panels(upper, nodes_per_unit=32):
    """Composite Gauss-Legendre nodes and weights on [0, upper], one panel per unit."""
    panels = max(int(np.ceil(upper)), 1)
    x, w = np.polynomial.legendre.leggauss(nodes_per_unit)
    width = upper / panels
    starts = width * np.arange(panels)
    return ((starts[:, None] + width * (x[None, :] + 1.0) / 2.0).ravel(),
            np.tile(w * width / 2.0, panels))


def test_kernel_matches_per_node_products():
    # reference: 32 Gauss nodes per unit time on [0, 40 / delta_B], where the dropped
    # tail is below e^-40, summed one node at a time, w_t exp(-tA) (A^2 - B^2) exp(-tB)
    A, B = random_positive_pair(dim=5, delta_b=0.3, seed=41)
    r = integral(A, B)
    A, B = (A + A.conj().T) / 2, (B + B.conj().T) / 2
    (wa, Va), (wb, Vb) = np.linalg.eigh(A), np.linalg.eigh(B)
    t, w = gauss_panels(40.0 / wb.min())
    C = A @ A - B @ B
    ref = sum(wk * (Va * np.exp(-tk * wa)) @ Va.conj().T @ C @ (Vb * np.exp(-tk * wb))
              @ Vb.conj().T for tk, wk in zip(t, w))
    np.testing.assert_allclose(r.computed_difference, ref, atol=1e-14)


def test_kernel_solves_the_sylvester_equation():
    # AX + XB = A^2 - B^2 solved densely, (I (x) A + B^T (x) I) vec X = vec C in
    # column-major vec, with no eigenbasis; its solution is X = A - B
    A, B = random_positive_pair(dim=6, delta_b=0.2, seed=43)
    d = A.shape[0]
    C = A @ A - B @ B
    lhs = np.kron(np.eye(d), A) + np.kron(B.T, np.eye(d))
    X = np.linalg.solve(lhs, C.reshape(-1, order="F")).reshape(d, d, order="F")
    r = integral(A, B)
    np.testing.assert_allclose(r.computed_difference, X, atol=1e-13)


def test_near_strict_pair_bounded_memory():
    # at delta = DELTA_MIN a quadrature in time would need about 5 * 10^5 nodes per
    # defect pair; the exact kernel is one d x d array whatever delta_B is
    pair = linops.random_pair(32, linops.DELTA_MIN, 0.1, seed=3)
    tracemalloc.start()
    try:
        for A, B in zip(*pair.defects):
            r = integral(A, B)
            assert r.frobenius_error <= 1e-7
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_trace_bound_scalar():
    r = integral(np.array([[0.8]]), np.array([[0.5]]))
    assert r.trace_norm_difference == pytest.approx(0.3)
    assert r.trace_bound == pytest.approx(0.78)


def test_trace_bound_equal():
    A = np.diag([0.6, 0.3])
    r = integral(A, A)
    assert r.trace_norm_difference == pytest.approx(0.0, abs=1e-14)
    assert r.trace_bound == pytest.approx(0.0, abs=1e-14)


def test_trace_bound_random():
    for i in range(20):
        A, B = random_positive_pair(dim=8, delta_b=0.3, seed=2000 + i)
        r = integral(A, B)
        assert r.trace_norm_difference <= r.trace_bound + SLACK


def test_trace_bound_symmetric_swap():
    # both arguments bounded below: the roles of A and B can be interchanged
    A, B = random_positive_pair(dim=6, delta_b=0.4, seed=37)
    r1 = integral(A, B)
    r2 = integral(B, A)
    assert r1.trace_norm_difference == pytest.approx(r2.trace_norm_difference, abs=1e-12)
    for r in (r1, r2):
        assert r.trace_norm_difference <= r.trace_bound + SLACK


class TestDefectDifference:
    @staticmethod
    def by_name(results):
        return {c.name: c for c in results}

    def test_equal_pair(self):
        T0 = 0.5 * np.eye(3)
        checked = self.by_name(checks.lemma_checks(linops.make_pair(T0, T0)))
        for side in ("left", "right"):
            bound = checked[f"lemma/trace_bound_{side}"]
            assert bound.measured == pytest.approx(0.0, abs=1e-12)
            assert bound.threshold - SLACK == pytest.approx(0.0, abs=1e-12)

    def test_scalar_closed_form(self):
        checked = self.by_name(checks.lemma_checks(scalar_pair(0.6, 0.5)))
        d_gap = abs(0.8 - np.sqrt(0.75))
        bound = abs(0.64 - 0.75) / np.sqrt(0.75)
        assert checked["lemma/trace_bound_left"].measured == pytest.approx(d_gap, abs=1e-12)
        assert checked["lemma/trace_bound_left"].threshold - SLACK == (
            pytest.approx(bound, abs=1e-12))

    def test_random_pairs(self):
        for pair in random_pairs(10, seed=300, dims=(8,), delta=0.3):
            for c in checks.lemma_checks(pair):
                assert c.passed, c
