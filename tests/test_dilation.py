"""Truncated Schäffer dilation: structure, compressions, trace transfer."""

import tracemalloc

import numpy as np
import pytest

from oracles import difference_block_trace_norm_sum, unpruned_power_walk, window
from pairs import random_pairs, scalar_pair
from ssftrace import checks, dilation, linops


def dense_window(W):
    """The window as one ((2N+1)d)^2 array, assembled from its blocks (test oracle)."""
    idx = range(-W.window_radius_n, W.window_radius_n + 1)
    return np.block([[W.block(i, j) for j in idx] for i in idx])


def test_zero_contraction_structure():
    W = window(np.array([[0.0]]), 2)
    assert W.block(-1, 0)[0, 0] == pytest.approx(1.0)   # D_T = 1
    assert W.block(0, 1)[0, 0] == pytest.approx(1.0)    # D_T* = 1
    assert W.block(0, 0)[0, 0] == 0.0
    assert W.block(-2, -1)[0, 0] == pytest.approx(1.0)  # shift part


def test_identity_dilates_trivially():
    W = window(np.eye(2), 2)
    np.testing.assert_allclose(W.block(-1, 0), 0.0, atol=1e-12)
    np.testing.assert_allclose(W.block(0, 1), 0.0, atol=1e-12)
    np.testing.assert_allclose(W.block(-1, 1), -np.eye(2), atol=1e-12)
    np.testing.assert_allclose(W.block(0, 0), np.eye(2), atol=1e-12)


def test_scalar_unit_column():
    W = window(np.array([[0.5]]), 3)
    assert W.block(-1, 0)[0, 0] == pytest.approx(np.sqrt(0.75))
    assert W.block(0, 0)[0, 0] == pytest.approx(0.5)
    col = dense_window(W)[:, 3 * 1]  # block column 0
    assert np.linalg.norm(col) == pytest.approx(1.0)


def test_interior_orthonormality_random():
    rng = np.random.default_rng(17)
    for _ in range(15):
        d = int(rng.integers(1, 9))
        N = int(rng.integers(1, 9))
        M = linops.random_contraction(d, float(rng.uniform(0.1, 1.0)), rng)
        W = window(M, N)
        assert dilation.interior_column_orthonormality(W) <= 1e-10


def walk(pair, N):
    """power_walk over the two windows of radius N, as {n: (gap, lhs, rhs)}."""
    WT = window(pair.T, N)
    W0 = window(pair.T0, N)
    return {n: rest for n, *rest in dilation.power_walk(pair, WT, W0)}


def test_walk_matches_matrix_power():
    pair = random_pairs(1, seed=407, dims=(3,))[0]
    N, c = 5, slice(5 * 3, 6 * 3)  # window radius and the central block of d = 3
    WT = window(pair.T, N)
    W0 = window(pair.T0, N)
    entries = dilation.power_walk(pair, WT, W0)
    assert [e[0] for e in entries] == list(range(1, N + 1))
    dense_T, dense_0 = dense_window(WT), dense_window(W0)
    for n, gap, lhs, rhs in entries:
        P = np.linalg.matrix_power(dense_T, n)
        Tn = np.linalg.matrix_power(pair.T, n)
        T0n = np.linalg.matrix_power(pair.T0, n)
        assert gap == pytest.approx(np.linalg.norm(P[c, c] - Tn, "fro"), abs=1e-14)
        assert lhs == pytest.approx(np.trace(Tn) - np.trace(T0n), abs=1e-14)
        assert rhs == pytest.approx(
            np.trace(P) - np.trace(np.linalg.matrix_power(dense_0, n)), abs=1e-14)


# windows off the documented pattern, as edits of what a window holds: a block below
# the diagonal (D_T* at (1, 0), 0.3 T at (3, -2), a shift at (2, -1) or a random block
# at (2, -2)), block column 1 emptied, or the shift at (2, 3) moved to (3, 2)
LAYOUTS = {
    "defect": lambda held, T: {**held, (1, 0): held[(0, 1)]},
    "scaled": lambda held, T: {**held, (3, -2): 0.3 * T},
    "shift": lambda held, T: {**held, (2, -1): dilation._I},
    "extra_block": lambda held, T: {
        **held, (2, -2): 0.3 * np.random.default_rng(409).standard_normal(T.shape)},
    "empty_column": lambda held, T: {ij: b for ij, b in held.items() if ij[1] != 1},
    "misplaced_shift": lambda held, T: {(3, 2) if ij == (2, 3) else ij: b
                                        for ij, b in held.items()},
}
# the edits that close a cycle through block 0, so that walks return to [W^n]_00
THROUGH_CENTRE = {"defect", "scaled", "shift", "extra_block"}


def edited(W, T, edit):
    """W with the layout edit ``edit`` applied to what it holds."""
    return dilation.WindowDilation(W.window_radius_n, W.block_dim_d, LAYOUTS[edit](W.held, T))


@pytest.mark.parametrize("edit", ["extra_block", "empty_column", "misplaced_shift"])
def test_block_route_reads_built_window(edit):
    # windows off the documented pattern: the block route must use what was built
    pair = random_pairs(1, seed=408, dims=(3,))[0]
    N, d, c = 4, 3, slice(4 * 3, 5 * 3)
    W0 = window(pair.T0, N)
    WT = edited(window(pair.T, N), pair.T, edit)
    dense_T, dense_0 = dense_window(WT), dense_window(W0)
    for n, gap, _, rhs in dilation.power_walk(pair, WT, W0):
        P = np.linalg.matrix_power(dense_T, n)
        Tn = np.linalg.matrix_power(pair.T, n)
        assert gap == pytest.approx(np.linalg.norm(P[c, c] - Tn, "fro"), abs=1e-13)
        assert rhs == pytest.approx(
            np.trace(P) - np.trace(np.linalg.matrix_power(dense_0, n)), abs=1e-13)
    cols = dense_T[:, d:]
    dense = float(np.abs(cols.conj().T @ cols - np.eye(cols.shape[1])).max())
    assert dilation.interior_column_orthonormality(WT) == pytest.approx(dense, abs=1e-13)
    if edit != "extra_block":
        assert dense == dilation.interior_column_orthonormality(WT) == 1.0


class TestPrunedWalk:
    @pytest.mark.parametrize("edit", [None, *LAYOUTS])
    def test_equals_the_unpruned_walk_bit_for_bit(self, edit):
        pair = random_pairs(1, seed=411, dims=(4,))[0]
        WT, W0 = window(pair.T, checks.WINDOW_N), window(pair.T0, checks.WINDOW_N)
        if edit is not None:
            WT, W0 = edited(WT, pair.T, edit), edited(W0, pair.T0, edit)
        walk = dilation.power_walk(pair, WT, W0)
        assert walk == unpruned_power_walk(pair, WT, W0)
        # a cycle through block 0 opens walks back to it, so the rows move off zero
        gaps = [gap for _, gap, _, _ in walk]
        assert (max(gaps) > 0.1) if edit in THROUGH_CENTRE else (max(gaps) == 0.0)

    def test_keeps_the_blocks_on_cycles_in_window_order(self):
        # (2, -2) closes the cycle -2 -> -1 -> 1 -> 2 -> -2, which (-1, 0), (0, 0) and
        # (0, 1) join; the shifts at the window's ends lie on no cycle
        T = random_pairs(1, seed=408, dims=(3,))[0].T
        W = window(T, 4)
        assert list(dilation._on_cycles(W.held)) == [(0, 0)]
        kept = dilation._on_cycles(edited(W, T, "extra_block").held)
        assert list(kept) == [(-2, -1), (1, 2), (-1, 0), (-1, 1), (0, 0), (0, 1), (2, -2)]
        # a cycle of even length with no block (0, 0) to close walks of every length
        two_cycle = dict.fromkeys([(1, 2), (2, 1), (2, 3)], dilation._I)
        assert list(dilation._on_cycles(two_cycle)) == [(1, 2), (2, 1)]

    def test_documented_layout_forms_only_the_central_block(self, monkeypatch):
        # every held block sits on or above the diagonal, so (0, 0) is the only
        # block on a cycle and no block of W^n but (0, 0) is formed
        exact, formed = dilation._block_product, []

        def recorded(A, B, d):
            C = exact(A, B, d)
            formed.append(set(C))
            return C

        monkeypatch.setattr(dilation, "_block_product", recorded)
        pair = random_pairs(1, seed=412, dims=(3,))[0]
        WT = window(pair.T, checks.WINDOW_N)
        dilation.power_walk(pair, WT, window(pair.T0, checks.WINDOW_N))
        assert formed == [{(0, 0)}] * (2 * (checks.WINDOW_N - 1))


def test_builder_checks_the_radius_first():
    # the defects are never read: the radius is refused first
    with pytest.raises(ValueError, match="window radius"):
        dilation.build_window_dilation(np.eye(2), None, 0)


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


class TestWindowBlocks:
    def test_holds_the_band(self):
        N, d = 3, 2
        W = window(0.5 * np.eye(d), N)
        shift = {(k, k + 1) for k in range(-N, N) if k not in (-1, 0)}
        # the shifts first, in window order, then the four blocks
        assert list(W.held) == [*sorted(shift), (-1, 0), (-1, 1), (0, 0), (0, 1)]
        assert {ij for ij, b in W.held.items() if b is dilation._I} == shift
        for i, j in shift:
            np.testing.assert_array_equal(W.block(i, j), np.eye(d))
        np.testing.assert_array_equal(W.block(2, -2), np.zeros((d, d)))
        for i, j in ((N + 1, 0), (0, -N - 1)):
            with pytest.raises(IndexError):
                W.block(i, j)

    def test_blocks_are_read_only(self):
        T = np.array([[0.5]], dtype=complex)
        W = window(T, 3)
        for block in (b for b in W.held.values() if b is not dilation._I):
            with pytest.raises(ValueError):
                block[0, 0] = 2.0
        assert T[0, 0] == 0.5
        T[0, 0] = 0.25  # T itself stays writable

    def test_four_blocks_sees_a_block_off_the_pattern(self):
        pair = random_pairs(1, seed=410, dims=(3,))[0]
        WT = window(pair.T, 4)
        W0 = window(pair.T0, 4)
        assert dilation.four_blocks_residual(pair, WT, W0) <= 1e-12
        extra = np.full((3, 3), 1e-6)
        edited = dilation.WindowDilation(4, 3, {**W0.held, (3, -2): extra})
        assert dilation.four_blocks_residual(pair, WT, edited) == pytest.approx(3e-6)

    def test_four_blocks_sees_a_shift_in_one_window_only(self):
        pair = random_pairs(1, seed=410, dims=(3,))[0]
        WT = window(pair.T, 4)
        W0 = window(pair.T0, 4)
        held = {ij: b for ij, b in W0.held.items() if ij != (2, 3)}
        edited = dilation.WindowDilation(4, 3, held)
        assert dilation.four_blocks_residual(pair, WT, edited) == pytest.approx(np.sqrt(3))

    def test_shift_blocks_are_fresh(self):
        W = window(0.5 * np.eye(2), 3)
        W.block(1, 2)[0, 1] = 7.0
        np.testing.assert_array_equal(W.block(1, 2), np.eye(2))


class TestCompression:
    def test_shift_power_is_zero(self):
        gaps = walk(scalar_pair(0.0, 0.0), 4)
        for n in range(1, 5):
            assert gaps[n][0] == 0.0

    def test_scalar_square(self):
        W = window(np.array([[0.5]]), 2)
        P = np.linalg.matrix_power(dense_window(W), 2)
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
        # oracle: build both windows and subtract
        pair = random_pairs(1, seed=404, dims=(4,))[0]
        N = 3
        WT = window(pair.T, N)
        W0 = window(pair.T0, N)
        expected = dilation.dilation_difference_blocks(pair)
        for i in range(-N, N + 1):
            for j in range(-N, N + 1):
                blk = WT.block(i, j) - W0.block(i, j)
                ref = expected.get((i, j))
                if ref is None:
                    assert np.linalg.norm(blk, "fro") <= 1e-12
                else:
                    np.testing.assert_allclose(blk, ref, atol=1e-12)

    def test_subadditive_trace_norm(self):
        pair = random_pairs(1, seed=405, dims=(4,))[0]
        N = 3
        WT = window(pair.T, N)
        W0 = window(pair.T0, N)
        total = linops.trace_norm(dense_window(WT) - dense_window(W0))
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
