"""Matrix kernel: certificates, defects, trace norms, random pairs."""

import collections
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import defects_of
from pairs import NORM_ONE_IDS, norm_one_pairs
from ssftrace import checks, disc, linops
from ssftrace.errors import (
    InvalidDeltaError,
    NotAContractionError,
    NotSquareError,
    RequiresStrictContractionError,
)


class TestValidateContraction:
    def test_scalar_half(self):
        cert, _ = linops.validate_contraction(np.array([[0.5]]))
        assert cert.operator_norm == pytest.approx(0.5)
        assert cert.strictness_margin_delta == pytest.approx(0.5)
        assert cert.is_strict

    def test_identity_not_strict(self):
        cert, _ = linops.validate_contraction(np.eye(3))
        assert cert.operator_norm == pytest.approx(1.0)
        assert not cert.is_strict

    def test_jordan_block(self):
        cert, _ = linops.validate_contraction(np.array([[0, 1], [0, 0]]))
        assert cert.operator_norm == pytest.approx(1.0)
        assert not cert.is_strict

    def test_rejects_expansion(self):
        with pytest.raises(NotAContractionError):
            linops.validate_contraction(1.5 * np.eye(2))

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            linops.validate_contraction(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            linops.validate_contraction(np.array([[np.nan]]))


def intertwining_error(M, D, D_star) -> float:
    """||M D_M - D_M* M||, zero in exact arithmetic."""
    return float(np.linalg.norm(M @ D - D_star @ M, 2))


class TestDefect:
    def test_scalar_left(self):
        D, D_star = defects_of(np.array([[0.6]]))
        assert D[0, 0] == pytest.approx(0.8)
        assert D_star[0, 0] == pytest.approx(0.8)

    def test_zero_operator(self):
        for D in defects_of(np.zeros((4, 4))):
            np.testing.assert_allclose(D, np.eye(4), atol=1e-14)

    def test_jordan_block_sides(self):
        M = np.array([[0, 1], [0, 0]], dtype=complex)
        D, D_star = defects_of(M)
        np.testing.assert_allclose(D, np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(D_star, np.diag([0.0, 1.0]), atol=1e-14)

    def test_rejects_expansion(self):
        with pytest.raises(NotAContractionError):
            defects_of(1.5 * np.eye(2))

    def test_defects_hermitian_psd_contractive(self):
        # spec-scale sweep: 200 random contractions, d <= 16
        rng = np.random.default_rng(7)
        for i in range(200):
            d = int(rng.integers(1, 17))
            M = linops.random_contraction(d, float(rng.uniform(0.05, 1.0)), rng)
            D, D_star = defects_of(M)
            assert intertwining_error(M, D, D_star) <= 1e-14
            for D in (D, D_star):
                assert np.linalg.norm(D - D.conj().T) < 1e-12
                w = np.linalg.eigvalsh(D)
                assert w.min() >= 0.0
                assert w.max() <= 1.0 + 1e-10

    @pytest.mark.parametrize("index", range(3), ids=NORM_ONE_IDS)
    def test_norm_one_intertwines(self, index):
        # singular values at 1: two separate square roots disagreed here
        T = norm_one_pairs()[index].T
        D, D_star = defects_of(T)
        assert intertwining_error(T, D, D_star) <= 1e-14
        eye = np.eye(len(T))
        np.testing.assert_allclose(D @ D, eye - T.conj().T @ T, atol=1e-14)
        np.testing.assert_allclose(D_star @ D_star, eye - T @ T.conj().T, atol=1e-14)

    def test_strict_lower_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            norm = float(rng.uniform(0.1, 0.95))
            M = linops.random_contraction(6, norm, rng)
            w = np.linalg.eigvalsh(defects_of(M)[0])
            assert w.min() >= (1.0 - norm) - 1e-10


class TestTraceNorm:
    def test_diagonal(self):
        assert linops.trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0)

    def test_zero(self):
        assert linops.trace_norm(np.zeros((3, 3))) == 0.0

    def test_rank_one(self):
        assert linops.trace_norm(np.array([[0, 1], [0, 0]])) == pytest.approx(1.0)

    def test_dominates_trace(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            M = linops.ginibre(rng, 5)
            assert linops.trace_norm(M) >= abs(np.trace(M)) - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_subadditive(self, seed):
        rng = np.random.default_rng(seed)
        A = linops.ginibre(rng, 6)
        B = linops.ginibre(rng, 6)
        assert linops.trace_norm(A + B) <= (linops.trace_norm(A)
                                            + linops.trace_norm(B) + 1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        A = linops.ginibre(rng, 5)
        U, _ = np.linalg.qr(linops.ginibre(rng, 5))
        V, _ = np.linalg.qr(linops.ginibre(rng, 5))
        assert linops.trace_norm(U @ A @ V) == pytest.approx(
            linops.trace_norm(A), abs=1e-10)


class TestRandomPair:
    def test_scalar_bound(self):
        pair = linops.random_pair(1, 0.5, 0.05, seed=7)
        assert abs(pair.T0[0, 0]) <= 0.5 + 1e-12

    def test_determinism(self):
        a = linops.random_pair(4, 0.2, 0.1, seed=99)
        b = linops.random_pair(4, 0.2, 0.1, seed=99)
        np.testing.assert_array_equal(a.T, b.T)
        np.testing.assert_array_equal(a.T0, b.T0)

    def test_strictness_certified(self):
        pair = linops.random_pair(8, 0.1, 0.1, seed=5)
        cert, _ = linops.validate_contraction(pair.T0)
        assert cert.is_strict
        assert pair.cert_T0.is_strict

    def test_perturbation_scale(self):
        pair = linops.random_pair(6, 0.4, 0.07, seed=21)
        # T is only rescaled when it overshoots norm 1, which cannot happen here
        assert linops.trace_norm(pair.T - pair.T0) == pytest.approx(0.07, rel=1e-10)

    def test_invalid_delta(self):
        with pytest.raises(InvalidDeltaError):
            linops.random_pair(4, 1.5, 0.1, seed=0)

    def test_non_finite_perturbation(self):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="perturbation_trace_norm"):
                linops.random_pair(4, 0.25, value, seed=0)

    def test_delta_min_certifies(self):
        # rounding puts 1 - (1 - DELTA_MIN) below DELTA_MIN
        for dim in (1, 2, 5, 16):
            for seed in range(20):
                pair = linops.random_pair(dim, linops.DELTA_MIN, 0.1, seed)
                assert pair.cert_T0.strictness_margin_delta >= linops.DELTA_MIN
                assert pair.cert_T0.operator_norm >= 1.0 - 1.001 * linops.DELTA_MIN


class TestMakePair:
    def test_requires_strict_t0(self):
        with pytest.raises(RequiresStrictContractionError):
            linops.make_pair(np.eye(2) * 0.5, np.eye(2))

    def test_dimension_mismatch(self):
        with pytest.raises(NotSquareError):
            linops.make_pair(np.eye(2) * 0.5, np.eye(3) * 0.5)

    def test_renormalizes_overshoot(self):
        T = (1.0 + 5e-11) * np.eye(2)
        pair = linops.make_pair(T, 0.5 * np.eye(2))
        assert np.linalg.norm(pair.T, 2) <= 1.0
        # (1 + 5e-11) times a unitary, and times a unitary with two singular
        # values below 1, whose defects show whether the clip reached them: the
        # defect eigenpairs are those of the clipped T
        Q, _ = np.linalg.qr(linops.ginibre(np.random.default_rng(5), 4))
        eye = np.eye(4)
        for M in (Q, Q * [1.0, 1.0, 0.5, 0.2]):
            pair = linops.make_pair((1.0 + 5e-11) * M, 0.5 * eye)
            # the certificate keeps the norm from before the clip
            assert pair.cert_T.operator_norm == pytest.approx(1.0 + 5e-11, rel=1e-14, abs=0)
            eigenpairs = pair.defect_eigenpairs[0]
            assert min(w.min() for w, _ in eigenpairs) == 0.0
            D, D_star = linops.defects(eigenpairs)
            np.testing.assert_allclose(D @ D, eye - pair.T.conj().T @ pair.T,
                                       rtol=0, atol=1e-14)
            np.testing.assert_allclose(D_star @ D_star, eye - pair.T @ pair.T.conj().T,
                                       rtol=0, atol=1e-14)


class TestPairDefects:
    def test_matches_defects_and_is_read_only(self):
        pair = linops.random_pair(4, 0.25, 0.1, seed=2)
        assert pair.defects is pair.defects
        assert pair.defect_eigenpairs is pair.defect_eigenpairs
        for M, eigenpairs, held in zip((pair.T, pair.T0), pair.defect_eigenpairs, pair.defects):
            for (w, Q), (w_ref, Q_ref) in zip(eigenpairs, linops.validate_contraction(M)[1]):
                np.testing.assert_array_equal(w, w_ref)
                np.testing.assert_array_equal(Q, Q_ref)
            for D, ref in zip(held, defects_of(M)):
                np.testing.assert_array_equal(D, ref)
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.defects = pair.defects
        with pytest.raises(ValueError, match="read-only"):
            pair.defects[0][0][0, 0] = 0.0
        for w, Q in pair.defect_eigenpairs[1]:
            for F in (w, Q):
                with pytest.raises(ValueError, match="read-only"):
                    F[0] = 0.0

    def test_factors_are_eigenpairs_of_the_defects(self):
        # D_T = V diag(r) V* and D_T* = U diag(r) U*: what the lemma hands the kernel
        pair = linops.random_pair(8, 0.25, 0.1, seed=3)
        for eigenpairs, held in zip(pair.defect_eigenpairs, pair.defects):
            for (w, Q), D in zip(eigenpairs, held):
                np.testing.assert_allclose(D @ Q, Q * w, atol=1e-14)
                np.testing.assert_allclose(Q.conj().T @ Q, np.eye(8), atol=1e-14)

    def test_one_factorization_per_contraction(self, monkeypatch):
        # assembling a pair and one verify run factor T and T0 once: the
        # certificates, the lemma's defects and eigenpairs, the four-blocks check
        # and both windows read those two SVDs
        given = linops.random_pair(32, 0.25, 0.1, seed=1)
        # the disc suite's cached Gauss-Legendre rule runs an eigvalsh on a cold
        # cache only; fill it, so the count does not depend on the tests run before
        disc.legendre_rule(disc.radial_nodes(checks.DISC_MAX_ORDER))
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        norm = np.linalg.norm

        def counted_norm(x, ord=None, *args, **kwargs):
            # numpy takes norm(x, 2) by an SVD that the svd count cannot see
            if ord == 2:
                calls["norm_2"] += 1
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(np.linalg, "norm", counted_norm)
        checks.run(linops.make_pair(given.T, given.T0), checks.SUITES)
        # 2 SVDs in make_pair, and the two Hermitian trace norms of each lemma side
        assert calls == {"svd": 2, "eigvalsh": 4}
