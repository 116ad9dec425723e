"""Finite-window truncation of the Schäffer unitary dilation.

The dilation acts on a bilateral sequence space; block row -1 carries
(D_T, -T*) in columns (0, 1), block row 0 carries (T, D_T*), and every
other row k holds the identity in column k+1 (a shift).  Truncating to
the window [-N, N] keeps the band structure, so central compressions of
powers up to N and window traces of power differences are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linops import ContractionPair, as_operator, defect, trace_norm, validate_contraction


@dataclass(frozen=True)
class WindowDilation:
    window_radius_n: int
    block_dim_d: int
    base: np.ndarray

    def block(self, i: int, j: int) -> np.ndarray:
        """Block at window position (i, j); indices run in [-N, N]."""
        N, d = self.window_radius_n, self.block_dim_d
        if not (-N <= i <= N and -N <= j <= N):
            raise IndexError(f"block index ({i}, {j}) outside window [-{N}, {N}]")
        return self.base[(i + N) * d:(i + N + 1) * d, (j + N) * d:(j + N + 1) * d]


@dataclass(frozen=True)
class DifferenceBlocks:
    at_00: np.ndarray
    at_01: np.ndarray
    at_m10: np.ndarray
    at_m11: np.ndarray


def build_window_dilation(T, N: int) -> WindowDilation:
    """Assemble the truncated dilation of a contraction on window [-N, N]."""
    T = as_operator(T)
    validate_contraction(T)
    if N < 1:
        raise ValueError(f"window radius must be >= 1, got {N}")
    d = T.shape[0]
    size = (2 * N + 1) * d
    base = np.zeros((size, size), dtype=complex)

    def put(i, j, blockmat):
        base[(i + N) * d:(i + N + 1) * d, (j + N) * d:(j + N + 1) * d] = blockmat

    eye = np.eye(d, dtype=complex)
    for k in range(-N, N + 1):
        if k in (-1, 0) or k + 1 > N:
            continue
        put(k, k + 1, eye)
    put(-1, 0, defect(T, "left"))
    put(-1, 1, -T.conj().T)
    put(0, 0, T)
    put(0, 1, defect(T, "right"))
    return WindowDilation(window_radius_n=N, block_dim_d=d, base=base)


def interior_column_orthonormality(W: WindowDilation) -> float:
    """Max deviation from orthonormality over the in-window columns.

    Only block column -N maps outside the window (its identity sits at
    row -N-1); every other column is complete and must be orthonormal.
    """
    d = W.block_dim_d
    cols = W.base[:, d:]
    G = cols.conj().T @ cols
    return float(np.abs(G - np.eye(G.shape[0])).max())


def dilation_difference_blocks(pair: ContractionPair) -> DifferenceBlocks:
    """The four nonzero blocks of the dilation difference.

    Every other block of U_T - U_T0 vanishes identically because the
    shift parts coincide.
    """
    T, T0 = pair.T, pair.T0
    return DifferenceBlocks(
        at_00=T - T0,
        at_01=defect(T, "right") - defect(T0, "right"),
        at_m10=defect(T, "left") - defect(T0, "left"),
        at_m11=-(T - T0).conj().T,
    )


def difference_block_trace_norm_sum(blocks: DifferenceBlocks) -> float:
    """Subadditive upper bound for the trace norm of the dilation difference."""
    return (trace_norm(blocks.at_00) + trace_norm(blocks.at_01)
            + trace_norm(blocks.at_m10) + trace_norm(blocks.at_m11))


def power_walk(pair: ContractionPair, WT: WindowDilation, W0: WindowDilation) -> list:
    """Powers n = 1..N of T, T0 and their windows WT, W0 of radius N.

    Entry n is (n, ||[WT^n]_00 - T^n||_F, Tr(T^n - T0^n), Tr(WT^n - W0^n)).
    Each power is one product with the previous one; T^n and T0^n come from
    T and T0 alone, never from the windows.
    """
    N, d = WT.window_radius_n, WT.block_dim_d
    c = slice(N * d, (N + 1) * d)
    Tn, T0n, PT, P0 = pair.T, pair.T0, WT.base, W0.base
    walk = []
    for n in range(1, N + 1):
        if n > 1:
            Tn, T0n = Tn @ pair.T, T0n @ pair.T0
            # one window product at a time: the old PT is freed before P0's
            # product is formed, so five window-sized arrays are live, not six
            PT = PT @ WT.base
            P0 = P0 @ W0.base
        walk.append((n, float(np.linalg.norm(PT[c, c] - Tn, "fro")),
                     complex(np.trace(Tn) - np.trace(T0n)),
                     complex(np.trace(PT) - np.trace(P0))))
    return walk
