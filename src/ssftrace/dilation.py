"""The truncated Schäffer unitary dilation, read off its Julia operator.

The dilation acts on a bilateral sequence space; block row -1 carries
(D_T, -T*) in columns (0, 1), block row 0 carries (T, D_T*), and every
other row k holds the identity in column k+1 (a shift).  So rows -1 and 0 hold
the Julia operator J_T = [[D_T, -T*], [T, D_T*]] alone (Sz.-Nagy & Foias,
Harmonic Analysis of Operators on Hilbert Space, ch. I), and on a window
[-N, N] each check reduces to J_T exactly: the in-window columns but 0 and 1
are single shifts, so they are orthonormal iff J_T*J_T = I; every block sits
on or above the diagonal and (0, 0), J_T's T slot, is the only nonzero
diagonal one, so [W^n]_00 and Tr W^n are those of (T slot)^n; and U_T - U_T0
is J_T - J_T0 in rows -1 and 0.
"""

from __future__ import annotations

import numpy as np

from .linops import ContractionPair


def julia(T, D, D_star) -> np.ndarray:
    """J_T = [[D_T, -T*], [T, D_T*]], from T and the defects its caller holds."""
    return np.block([[D, -T.conj().T], [T, D_star]])


def interior_column_orthonormality(J) -> float:
    """Max deviation of the window's interior columns from orthonormality, that of J's:
    max |J*J - I|."""
    return float(np.abs(J.conj().T @ J - np.eye(len(J))).max())


def dilation_difference_blocks(pair: ContractionPair) -> dict:
    """The four nonzero blocks of U_T - U_T0 (the shifts cancel), keyed by window position."""
    T, T0 = pair.T, pair.T0
    (D, D_star), (D0, D0_star) = pair.defects
    return {(0, 0): T - T0, (0, 1): D_star - D0_star,
            (-1, 0): D - D0, (-1, 1): -(T - T0).conj().T}


def four_blocks_residual(pair: ContractionPair, JT, J0) -> float:
    """Worst Frobenius norm of a block of JT - J0 against its closed form."""
    blocks = (JT - J0).reshape(2, pair.dim, 2, pair.dim)  # [row + 1, :, column]
    return max(float(np.linalg.norm(blocks[i + 1, :, j] - ref, "fro"))
               for (i, j), ref in dilation_difference_blocks(pair).items())


def power_walk(pair: ContractionPair, JT, J0, N: int) -> list:
    """Entry n = 1..N is (n, ||[W_T^n]_00 - T^n||_F, Tr(T^n - T0^n), Tr(W_T^n - W_T0^n)),
    W^n read as the n-th power of J's T slot; T^n and T0^n come from T and T0 alone."""
    d = pair.dim
    S, S0 = JT[d:, :d], J0[d:, :d]
    Tn, T0n, P, P0 = pair.T, pair.T0, S, S0
    walk = []
    for n in range(1, N + 1):
        if n > 1:
            Tn, T0n, P, P0 = Tn @ pair.T, T0n @ pair.T0, P @ S, P0 @ S0
        walk.append((n, float(np.linalg.norm(P - Tn, "fro")),
                     complex(np.trace(Tn) - np.trace(T0n)), complex(np.trace(P) - np.trace(P0))))
    return walk
