"""Spectral shift function reconstruction from moment traces.

The moments m_n = Tr(T^n - T0^n) determine the Fourier coefficients of
the shift function through xi_hat(-n) = m_n / (2*pi*i*n); the additive
constant is fixed by xi_hat(0) = 0.  The table is a ``LaurentSeries``,
the two-sided class the disc symbols use too.  Pointwise values are
Abel means (never raw partial sums), which coincide with the Poisson
harmonic extension evaluated on the circle of radius r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientCoefficientsError, NonRealResultError
from .linops import ContractionPair

REAL_TOL = 1e-10


@dataclass(frozen=True)
class LaurentSeries:
    """Two-sided Fourier table c_(-K)..c_K of a circle function, stored centered."""

    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.coeffs) % 2 != 1:
            raise ValueError("centered table must have odd length")

    @classmethod
    def from_terms(cls, terms: dict[int, complex]) -> "LaurentSeries":
        K = max((abs(n) for n in terms), default=0)
        c = np.zeros(2 * K + 1, dtype=complex)
        for n, a in terms.items():
            c[n + K] = a
        return cls(coeffs=c)

    @property
    def order(self) -> int:
        return (len(self.coeffs) - 1) // 2

    def coeff(self, n: int) -> complex:
        if abs(n) > self.order:
            return 0.0 + 0.0j
        return complex(self.coeffs[n + self.order])

    @property
    def weighted_norm(self) -> float:
        n = np.arange(-self.order, self.order + 1)
        return float(np.abs(n * self.coeffs).sum())

    def with_constant(self, c: complex) -> "LaurentSeries":
        """Same table with the constant (index-0) coefficient replaced."""
        coeffs = self.coeffs.copy()
        coeffs[self.order] = c
        return LaurentSeries(coeffs=coeffs)


def stack_tables(tables: list[LaurentSeries], s: LaurentSeries) -> tuple:
    """The coefficients of ``tables`` padded with zero modes to their largest order K and
    stacked, (len(tables), 2K + 1), and ``s``, the table they pair with, cut to the modes
    |n| <= K that a pairing reads; InsufficientCoefficientsError if K exceeds its order."""
    K = max(t.order for t in tables)
    if K > s.order:
        raise InsufficientCoefficientsError(
            f"table order {K} exceeds coefficient table order {s.order}")
    return (np.stack([np.pad(t.coeffs, K - t.order) for t in tables]),
            LaurentSeries(s.coeffs[s.order - K:s.order + K + 1]))


def _sum2(terms: np.ndarray) -> np.ndarray:
    """Column sums of a float array (w, k) by a pairwise TwoSum tree, its rounding errors
    summed beside it: Sum2 of Ogita, Rump & Oishi (SIAM J. Sci. Comput. 26(6), 2005), as
    accurate as a sum in twice the working precision.  Each level adds row i + h to row i,
    h = w // 2, an odd last row carried up, so row i first meets row i + w // 2."""
    err = np.zeros((len(terms) // 2, terms.shape[1]))
    while len(terms) > 1:
        half = len(terms) // 2
        a, b = terms[:half], terms[half:2 * half]
        s = a + b
        z = s - a
        err[:half] += (a - (s - z)) + (b - z)  # Knuth's TwoSum: a + b = s + this, exactly
        terms = s if len(terms) % 2 == 0 else np.concatenate([s, terms[-1:]])
    return terms[0] + err.sum(axis=0)


def moments(pair: ContractionPair, n_max: int) -> np.ndarray:
    """Moment traces m_n = Tr(T^n) - Tr(T0^n), n = 1..n_max, with compensated sums, by
    baby-step/giant-step on S = (T, T0) (Paterson & Stockmeyer, SIAM J. Comput. 2, 1973):
    babies S^1..S^s, s = isqrt(n_max), giants S^(ks), and the diagonal of S^(ks + r) as
    row dots of giant and baby r, never formed; 13 products for n_max = 64.  The babies
    are built here, never taken from ``calculus``.  The 2d diagonal terms of every
    moment, real and imaginary parts apart, are summed in one ``_sum2`` pass, each
    Tr(T^n) term first meeting its -Tr(T0^n) term."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    s = math.isqrt(n_max)
    babies = np.empty((s, 2, pair.dim, pair.dim), dtype=complex)  # S^1..S^s
    babies[0] = pair.T, pair.T0
    for r in range(1, s):
        np.matmul(babies[r - 1], babies[0], out=babies[r])
    diagonals = np.empty((n_max, 2, pair.dim), dtype=complex)  # Tr(T^n) and Tr(T0^n) terms
    diagonals[:s] = np.diagonal(babies, axis1=2, axis2=3)
    giant = babies[-1]
    for ks in range(s, n_max, s):
        giant = giant @ babies[-1] if ks > s else giant  # S^ks
        width = min(s, n_max - ks)
        diagonals[ks:ks + width] = np.einsum('kij,rkji->rki', giant, babies[:width])
    np.negative(diagonals[:, 1], out=diagonals[:, 1])
    # row i of the terms: [Re, Im] of term i of every moment, T's d terms then T0's
    return _sum2(diagonals.reshape(n_max, -1).T.copy().view(float)).view(complex)


def ssf_from_moments(m: np.ndarray) -> LaurentSeries:
    """Table of the moments m_1..m_n_max: xi_hat(-n) = m_n / (2*pi*i*n), conjugate symmetric."""
    n_max = len(m)
    c = m / (2j * np.pi * np.arange(1, n_max + 1))  # xi_hat(-1)..xi_hat(-n_max)
    coeffs = np.zeros(2 * n_max + 1, dtype=complex)
    coeffs[n_max - 1::-1] = c
    coeffs[n_max + 1:] = np.conj(c)
    return LaurentSeries(coeffs=coeffs)


def uniform_trig_values(n: np.ndarray, c: np.ndarray, M: int) -> np.ndarray:
    """sum_k c_k e^(i n_k t_j) at t_j = 2*pi*j/M, j < M, by one inverse FFT; n is a
    contiguous mode range, and c of shape (..., len(n)) gives (..., M), one grid per
    leading index.

    Modes are folded n -> n mod M first, by one ``np.add.at``, which is exact
    on this grid for any mode range, so a table longer than M is not truncated.
    """
    folded = np.zeros((*np.shape(c)[:-1], M), dtype=complex)
    np.add.at(folded, (..., n % M), c)
    return np.fft.ifft(folded, norm="forward")


def check_abel_radius(abel_radius: float):
    """ValueError unless 0 < abel_radius < 1, which a NaN radius fails too."""
    if not 0.0 < abel_radius < 1.0:
        raise ValueError(f"abel_radius must lie in (0, 1), got {abel_radius}")


def evaluate_ssf_uniform(s: LaurentSeries, M: int, abel_radius: float) -> np.ndarray:
    """Abel-summed values on the uniform grid t_j = 2*pi*j/M, j < M, by FFT: the real
    part, after checking the radius and the imaginary residual."""
    check_abel_radius(abel_radius)
    n = np.arange(-s.order, s.order + 1)
    vals = uniform_trig_values(n, s.coeffs * abel_radius ** np.abs(n), M)
    resid = float(np.abs(vals.imag).max(initial=0.0))
    if resid > REAL_TOL:
        raise NonRealResultError(
            f"imaginary residual {resid} exceeds {REAL_TOL}; coefficient "
            "table has lost conjugate symmetry")
    return vals.real
