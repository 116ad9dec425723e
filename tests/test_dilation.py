"""Truncated Schäffer dilation: the Julia operator, compressions, trace transfer.

The suite reads every row off J_T and J_T0.  The dense tests build the whole
window as one array (``oracles.dense_window``) and check that its layout makes
those reductions exact and that its Gram, powers and traces are the rows'.
"""

import tracemalloc

import numpy as np
import pytest

from oracles import (defects_of, dense_window, difference_block_trace_norm_sum,
                     unpruned_power_walk)
from pairs import NORM_ONE_IDS, norm_one_pairs, random_pairs, scalar_pair
from ssftrace import checks, dilation, linops

# every pair of d <= 8 the dense window is checked on, by name
SMALL_PAIRS = {f"random_s{413 + i}_d{p.dim}": p for i, p in enumerate(random_pairs(8, seed=413))}
SMALL_PAIRS.update((name, p) for name, p in zip(NORM_ONE_IDS, norm_one_pairs()) if p.dim <= 8)


def julias(pair):
    """(J_T, J_T0), from the defects the pair holds, as ``dilation_checks`` builds them."""
    (D, D_star), (D0, D0_star) = pair.defects
    return dilation.julia(pair.T, D, D_star), dilation.julia(pair.T0, D0, D0_star)


def walk(pair, N):
    """power_walk of the pair's Julia operators to N, as {n: (gap, lhs, rhs)}."""
    return {n: rest for n, *rest in dilation.power_walk(pair, *julias(pair), N)}


def block(W, N, i, j, d):
    """Block (i, j) of a dense window of radius N and block size d."""
    return W[(i + N) * d:(i + N + 1) * d, (j + N) * d:(j + N + 1) * d]


def test_zero_contraction_structure():
    W = dense_window(np.array([[0.0]]), 2)
    assert block(W, 2, -1, 0, 1)[0, 0] == pytest.approx(1.0)   # D_T = 1
    assert block(W, 2, 0, 1, 1)[0, 0] == pytest.approx(1.0)    # D_T* = 1
    assert block(W, 2, 0, 0, 1)[0, 0] == 0.0
    assert block(W, 2, -2, -1, 1)[0, 0] == pytest.approx(1.0)  # shift part


def test_identity_dilates_trivially():
    J = dilation.julia(np.eye(2), *defects_of(np.eye(2)))
    np.testing.assert_allclose(J[:2, :2], 0.0, atol=1e-12)   # D_T
    np.testing.assert_allclose(J[2:, 2:], 0.0, atol=1e-12)   # D_T*
    np.testing.assert_allclose(J[:2, 2:], -np.eye(2), atol=1e-12)
    np.testing.assert_allclose(J[2:, :2], np.eye(2), atol=1e-12)


def test_scalar_unit_column():
    W = dense_window(np.array([[0.5]]), 3)
    assert block(W, 3, -1, 0, 1)[0, 0] == pytest.approx(np.sqrt(0.75))
    assert block(W, 3, 0, 0, 1)[0, 0] == pytest.approx(0.5)
    col = W[:, 3 * 1]  # block column 0
    assert np.linalg.norm(col) == pytest.approx(1.0)


def test_interior_orthonormality_random():
    rng = np.random.default_rng(17)
    for _ in range(15):
        d = int(rng.integers(1, 9))
        M = linops.random_contraction(d, float(rng.uniform(0.1, 1.0)), rng)
        J = dilation.julia(M, *defects_of(M))
        assert dilation.interior_column_orthonormality(J) <= 1e-10


def test_julia_is_unitary():
    # J*J = I is the window's interior columns; JJ* = I is its rows -1 and 0
    for pair in SMALL_PAIRS.values():
        for J in julias(pair):
            eye = np.eye(len(J))
            assert np.abs(J.conj().T @ J - eye).max() <= 1e-13
            assert np.abs(J @ J.conj().T - eye).max() <= 1e-13


def test_walk_matches_matrix_power():
    # [W^n]_00 and Tr W^n of the whole window against the rows read off J
    cases = [(random_pairs(1, seed=407, dims=(3,))[0], 5)]
    cases += [(pair, N) for pair in SMALL_PAIRS.values() for N in (1, 3, 8)]
    for pair, N in cases:
        c = slice(N * pair.dim, (N + 1) * pair.dim)  # the central block
        entries = dilation.power_walk(pair, *julias(pair), N)
        assert [e[0] for e in entries] == list(range(1, N + 1))
        dense_T, dense_0 = dense_window(pair.T, N), dense_window(pair.T0, N)
        for n, gap, lhs, rhs in entries:
            P = np.linalg.matrix_power(dense_T, n)
            Tn = np.linalg.matrix_power(pair.T, n)
            T0n = np.linalg.matrix_power(pair.T0, n)
            assert gap == pytest.approx(np.linalg.norm(P[c, c] - Tn, "fro"), abs=1e-14)
            assert lhs == pytest.approx(np.trace(Tn) - np.trace(T0n), abs=1e-14)
            assert rhs == pytest.approx(
                np.trace(P) - np.trace(np.linalg.matrix_power(dense_0, n)), abs=1e-14)


@pytest.mark.parametrize("name", SMALL_PAIRS)
def test_interior_orthonormality_matches_the_dense_window(name):
    pair = SMALL_PAIRS[name]
    for T, J in zip((pair.T, pair.T0), julias(pair)):
        for N in (1, 3, 8):
            cols = dense_window(T, N)[:, pair.dim:]  # every in-window column but -N
            gram = float(np.abs(cols.conj().T @ cols - np.eye(cols.shape[1])).max())
            assert dilation.interior_column_orthonormality(J) == pytest.approx(gram, abs=1e-14)


def test_d64_suite_passes_within_one_window_of_memory():
    pair = linops.random_pair(64, 0.25, 0.1, seed=1)
    tracemalloc.start()
    try:
        rows = checks.dilation_checks(pair)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 19
    assert [r.name for r in rows if not r.passed] == []
    # one dense complex window array of radius WINDOW_N: 18.1 MiB
    assert peak < ((2 * checks.WINDOW_N + 1) * 64) ** 2 * 16


class TestPrunedWalk:
    @pytest.mark.parametrize("edit", [None, "conj"])
    def test_equals_the_unpruned_walk_bit_for_bit(self, edit):
        # the rows read off J's T slot are those of the whole window's block walk;
        # "conj" puts conj(T) in the slot of J and of the window alike
        pair = random_pairs(1, seed=411, dims=(4,))[0]
        N, d = checks.WINDOW_N, pair.dim
        (JT, J0), WT, W0 = julias(pair), dense_window(pair.T, N), dense_window(pair.T0, N)
        if edit == "conj":
            for J, W, T in ((JT, WT, pair.T), (J0, W0, pair.T0)):
                J[d:, :d] = T.conj()
                block(W, N, 0, 0, d)[:] = T.conj()
        walk = dilation.power_walk(pair, JT, J0, N)
        assert walk == unpruned_power_walk(pair, WT, W0, N)
        gaps = [gap for _, gap, _, _ in walk]
        assert (max(gaps) > 0.1) if edit else (max(gaps) == 0.0)

    def test_documented_layout_forms_only_the_central_block(self):
        # the window is block upper triangular and (0, 0), J's T slot, is its only
        # nonzero diagonal block, so [W^n]_00 = (T slot)^n and Tr W^n = Tr (T slot)^n
        for pair in SMALL_PAIRS.values():
            T, d = pair.T, pair.dim
            for N in range(1, 9):
                W = dense_window(T, N)
                for i in range(-N, N + 1):
                    for j in range(-N, i + 1):
                        if (i, j) != (0, 0):
                            assert not block(W, N, i, j, d).any()
                np.testing.assert_array_equal(block(W, N, 0, 0, d), T)


class TestWindowBlocks:
    def test_holds_the_band(self):
        # the dense window holds J in block rows -1, 0 and columns 0, 1, a shift at
        # each (k, k+1) off those rows, and zero elsewhere
        N, d = 3, 2
        T = 0.5 * np.eye(d)
        W = dense_window(T, N)
        shift = {(k, k + 1) for k in range(-N, N) if k not in (-1, 0)}
        julia = dict(zip([(-1, 0), (-1, 1), (0, 0), (0, 1)],
                         [J for row in np.split(dilation.julia(T, *defects_of(T)), 2)
                          for J in np.split(row, 2, axis=1)]))
        for i in range(-N, N + 1):
            for j in range(-N, N + 1):
                expected = np.eye(d) if (i, j) in shift else julia.get((i, j), np.zeros((d, d)))
                np.testing.assert_array_equal(block(W, N, i, j, d), expected)

    def test_four_blocks_sees_a_block_off_the_pattern(self):
        pair = random_pairs(1, seed=410, dims=(3,))[0]
        JT, J0 = julias(pair)
        assert dilation.four_blocks_residual(pair, JT, J0) == 0.0
        edited = J0.copy()
        edited[3:, :3] += np.full((3, 3), 1e-6)  # the T slot off T - T0
        assert dilation.four_blocks_residual(pair, JT, edited) == pytest.approx(3e-6)


class TestCompression:
    def test_shift_power_is_zero(self):
        gaps = walk(scalar_pair(0.0, 0.0), 4)
        for n in range(1, 5):
            assert gaps[n][0] == 0.0

    def test_scalar_square(self):
        P = np.linalg.matrix_power(dense_window(np.array([[0.5]]), 2), 2)
        central = P[2, 2]
        assert central == pytest.approx(0.25)
        assert walk(scalar_pair(0.5, 0.5), 2)[2][0] <= 1e-12

    def test_random_contraction(self):
        rng = np.random.default_rng(23)
        T = linops.random_contraction(4, 0.9, rng)
        assert walk(linops.make_pair(T, T), 4)[3][0] <= 1e-10

    def test_all_powers_within_window(self):
        rng = np.random.default_rng(29)
        T = linops.random_contraction(3, 0.95, rng)
        gaps = walk(linops.make_pair(T, T), 6)
        for n in range(1, 7):
            assert gaps[n][0] <= 1e-10


class TestDifferenceBlocks:
    def test_equal_pair(self):
        pair = scalar_pair(0.5, 0.5)
        blocks = dilation.dilation_difference_blocks(pair)
        assert set(blocks) == {(0, 0), (0, 1), (-1, 0), (-1, 1)}
        for blk in blocks.values():
            np.testing.assert_allclose(blk, 0.0, atol=1e-14)

    def test_scalar_values(self):
        blocks = dilation.dilation_difference_blocks(scalar_pair(0.6, 0.5))
        assert blocks[(0, 0)][0, 0] == pytest.approx(0.1)
        assert blocks[(-1, 1)][0, 0] == pytest.approx(-0.1)
        d_gap = np.sqrt(0.64) - np.sqrt(0.75)
        assert blocks[(-1, 0)][0, 0] == pytest.approx(d_gap)
        assert blocks[(0, 1)][0, 0] == pytest.approx(d_gap)

    def test_only_four_nonzero_blocks(self):
        # oracle: build both dense windows and subtract
        pair = random_pairs(1, seed=404, dims=(4,))[0]
        N, d = 3, 4
        diff = dense_window(pair.T, N) - dense_window(pair.T0, N)
        expected = dilation.dilation_difference_blocks(pair)
        for i in range(-N, N + 1):
            for j in range(-N, N + 1):
                blk = block(diff, N, i, j, d)
                ref = expected.get((i, j))
                if ref is None:
                    assert np.linalg.norm(blk, "fro") <= 1e-12
                else:
                    np.testing.assert_allclose(blk, ref, atol=1e-12)

    def test_subadditive_trace_norm(self):
        pair = random_pairs(1, seed=405, dims=(4,))[0]
        N = 3
        total = linops.trace_norm(dense_window(pair.T, N) - dense_window(pair.T0, N))
        blocks = dilation.dilation_difference_blocks(pair)
        assert total <= difference_block_trace_norm_sum(blocks) + 1e-10


class TestTraceTransfer:
    def test_equal_pair(self):
        _, lhs, rhs = walk(scalar_pair(0.5, 0.5), 4)[3]
        assert lhs == 0.0
        assert abs(rhs) <= 1e-12

    def test_scalar_square(self):
        _, lhs, rhs = walk(scalar_pair(0.5, 0.25), 3)[2]
        assert lhs == pytest.approx(0.1875)
        assert abs(lhs - rhs) <= 1e-12

    def test_random_pair(self):
        pair = random_pairs(1, seed=406, dims=(4,))[0]
        _, lhs, rhs = walk(pair, 6)[5]
        assert abs(lhs - rhs) <= 1e-9
