"""Finite-window truncation of the Schäffer unitary dilation.

The dilation acts on a bilateral sequence space; block row -1 carries
(D_T, -T*) in columns (0, 1), block row 0 carries (T, D_T*), and every
other row k holds the identity in column k+1 (a shift).  Truncating to
the window [-N, N] keeps the band structure, so central compressions of
powers up to N and window traces of power differences are exact.

A window holds one map: its 2N-2 shifts, as identities, and four blocks built
from T and the defects its caller took from T's one SVD; every other block is
zero.  No window-sized array and no identity is formed: a product with a shift
is a relabelling.  The power walk, the column Gram and the four-block residual
read what a window holds, not the pattern above, and products
C_ik = sum_j A_ij B_jk run over those only.  The power walk multiplies only
the blocks that lie on a cycle of the window, as every closed walk does: on
the pattern above, whose blocks all sit on or above the diagonal, that is
(0, 0) alone, so only [W^n]_00 is formed.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .linops import ContractionPair, as_operator

_I = object()  # an identity block: a product with it is the other factor


@dataclass(frozen=True)
class WindowDilation:
    """Window [-N, N] of a dilation: ``held`` maps (i, j) to a d x d block or to ``_I``,
    an identity, and every other block is zero."""

    window_radius_n: int
    block_dim_d: int
    held: dict

    def block(self, i: int, j: int) -> np.ndarray:
        """Block at window position (i, j), a fresh identity at a shift; indices run in [-N, N]."""
        N, d = self.window_radius_n, self.block_dim_d
        if not (-N <= i <= N and -N <= j <= N):
            raise IndexError(f"block index ({i}, {j}) outside window [-{N}, {N}]")
        held = self.held.get((i, j))
        return np.zeros((d, d), dtype=complex) if held is None else _dense(held, d)


def _dense(block, d: int):
    return np.eye(d, dtype=complex) if block is _I else block


def _read_only(block: np.ndarray) -> np.ndarray:
    view = block.view()
    view.flags.writeable = False
    return view


def build_window_dilation(T, defects, N: int) -> WindowDilation:
    """Assemble the truncated dilation of a contraction on window [-N, N].

    ``defects`` is (D_T, D_T*), as ``ContractionPair.defects`` holds them; no
    factorization runs here.  The shifts come first, in window order, so every
    block product sums in that order.  The blocks are read-only views, so an
    edit cannot reach T.
    """
    if N < 1:
        raise ValueError(f"window radius must be >= 1, got {N}")
    T = as_operator(T)
    D, D_star = defects
    blocks = {(-1, 0): D, (-1, 1): -T.conj().T, (0, 0): T, (0, 1): D_star}
    shifts = dict.fromkeys(((k, k + 1) for k in range(-N, N) if k not in (-1, 0)), _I)
    return WindowDilation(window_radius_n=N, block_dim_d=len(T),
                          held={**shifts, **{ij: _read_only(b) for ij, b in blocks.items()}})


def _block_product(A: dict, B: dict, d: int) -> dict:
    """C_ik = sum_j A_ij B_jk over the blocks A and B hold, a factor ``_I`` a relabelling."""
    rows = defaultdict(list)
    for (j, k), b in B.items():
        rows[j].append((k, b))
    C = {}
    for (i, j), a in A.items():
        for k, b in rows[j]:
            prod = b if a is _I else a if b is _I else a @ b
            C[(i, k)] = _dense(C[(i, k)], d) + _dense(prod, d) if (i, k) in C else prod
    return C


def interior_column_orthonormality(W: WindowDilation) -> float:
    """Max deviation from orthonormality over the in-window columns.

    Only block column -N maps outside the window (its identity sits at
    row -N-1); every other column is complete and must be orthonormal.
    The Gram blocks G_jk = sum_i W_ij* W_ik of those columns are one block
    product, a shift's adjoint a shift; G_jj is compared with the identity
    and G_jk, j < k, with zero (G is Hermitian).  A Gram block the product
    does not hold is zero, so a column that holds no block deviates by 1.
    """
    N, d = W.window_radius_n, W.block_dim_d
    inside = {(i, j): b for (i, j), b in W.held.items() if j > -N}
    G = _block_product({(j, i): b if b is _I else b.conj().T for (i, j), b in inside.items()},
                       inside, d)
    eye = np.eye(d)
    return max([0.0 if g is _I else float(np.abs(g - eye).max())
                for g in (G.get((j, j), 0.0) for j in range(-N + 1, N + 1))]
               + [1.0 if g is _I else float(np.abs(g).max()) for (j, k), g in G.items() if j < k])


def dilation_difference_blocks(pair: ContractionPair) -> dict:
    """The four nonzero blocks of the dilation difference, keyed by window position.

    Every other block of U_T - U_T0 vanishes identically because the
    shift parts coincide.
    """
    T, T0 = pair.T, pair.T0
    (D, D_star), (D0, D0_star) = pair.defects
    return {(0, 0): T - T0, (0, 1): D_star - D0_star,
            (-1, 0): D - D0, (-1, 1): -(T - T0).conj().T}


def four_blocks_residual(pair: ContractionPair, WT: WindowDilation, W0: WindowDilation) -> float:
    """Worst block of WT - W0 against its closed form, or against zero off the four slots,
    over every position either window holds (a shift held by both is I - I = 0)."""
    expected = dilation_difference_blocks(pair)
    worst = 0.0
    for ij in WT.held.keys() | W0.held.keys() | expected.keys():
        if WT.held.get(ij) is W0.held.get(ij) is _I:
            continue
        blk = WT.block(*ij) - W0.block(*ij)
        ref = expected.get(ij)
        worst = max(worst, float(np.linalg.norm(blk - ref if ref is not None else blk, "fro")))
    return worst


def _on_cycles(held: dict) -> dict:
    """The held blocks (j, l), each a step j -> l, that lie on a cycle: those with a
    walk l -> j, read off the reflexive-transitive closure of the steps, squared
    until it covers walks as long as there are indices."""
    index = {j: p for p, j in enumerate(sorted({j for ij in held for j in ij}))}
    reach = np.eye(len(index), dtype=bool)
    for j, l in held:
        reach[index[j], index[l]] = True
    for _ in range(len(index).bit_length()):
        reach = reach @ reach
    return {(j, l): b for (j, l), b in held.items() if reach[index[l], index[j]]}


def _window_powers(W: WindowDilation) -> list:
    """([W^n]_00, Tr W^n) for n = 1..N, W^n kept as blocks and identities.

    Each power is one block product with the blocks of W on a cycle, which are
    all a closed walk steps on; a walk within one strongly connected component
    never leaves it, so each block formed sums the full walk's terms in order.
    The trace sums the diagonal blocks' traces in window order, d for an identity.
    """
    N, d = W.window_radius_n, W.block_dim_d
    U = P = _on_cycles(W.held)
    zero = np.zeros((d, d), dtype=complex)
    powers = []
    for n in range(1, N + 1):
        if n > 1:
            P = _block_product(P, U, d)
        diagonal = (P[(i, i)] for i in range(-N, N + 1) if (i, i) in P)
        powers.append((_dense(P.get((0, 0), zero), d),
                       sum((d if b is _I else np.trace(b) for b in diagonal), 0j)))
    return powers


def power_walk(pair: ContractionPair, WT: WindowDilation, W0: WindowDilation) -> list:
    """Powers n = 1..N of T, T0 and their windows WT, W0 of radius N.

    Entry n is (n, ||[WT^n]_00 - T^n||_F, Tr(T^n - T0^n), Tr(WT^n - W0^n)).
    The window powers are block products over the blocks of each window that
    lie on a cycle, one window after the other, so only two powers of one
    window are held at a time.
    T^n and T0^n come from T and T0 alone, never from the windows.
    """
    Tn, T0n = pair.T, pair.T0
    walk = []
    for n, (central, trace_T), (_, trace_0) in zip(
            range(1, WT.window_radius_n + 1), _window_powers(WT), _window_powers(W0)):
        if n > 1:
            Tn, T0n = Tn @ pair.T, T0n @ pair.T0
        walk.append((n, float(np.linalg.norm(central - Tn, "fro")),
                     complex(np.trace(Tn) - np.trace(T0n)), complex(trace_T - trace_0)))
    return walk
