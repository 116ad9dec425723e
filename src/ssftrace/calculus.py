"""Functional calculus from finite coefficient tables, all ``ssf.LaurentSeries``.

A table with no negative modes (an analytic symbol) acts on a contraction
as sum a_k T^k, by Paterson-Stockmeyer; a two-sided table acts as
psi_hat(0) I + sum psi_hat(-n) (T*)^n + sum psi_hat(n) T^n.  The left side
of the circle trace formula, its grid quadrature and the trace of the
two-sided difference are computed here; the pairing is ``disc``'s closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InsufficientCoefficientsError
from .linops import ContractionPair, as_operator, trace_norm
from .ssf import LaurentSeries, evaluate_ssf_uniform, uniform_trig_values

# grid size of the circle quadrature route
QUADRATURE_POINTS = 4096


def apply_series(phi: LaurentSeries, T) -> np.ndarray:
    """sum a_k T^k by Paterson & Stockmeyer (SIAM J. Comput. 2, 1973); ValueError if
    phi has a nonzero negative mode.

    Babies T^1..T^s, s = isqrt(K), and Horner in T^s over blocks of s terms,
    the top block taking up to s + 1: s - 1 + (K - 1) // s products for K >= 1,
    where Horner takes K.  Each block's constant goes on its diagonal in place.
    The babies are built here, never taken from ``ssf.moments``.
    """
    if np.any(phi.coeffs[:phi.order]):
        raise ValueError("an analytic symbol cannot hold a nonzero negative mode")
    T = as_operator(T)
    a = phi.coeffs[phi.order:]  # a_0..a_K
    K, d = phi.order, len(T)
    s = max(math.isqrt(K), 1)
    babies = np.empty((s, d, d), dtype=complex)  # T^1..T^s
    babies[0] = T
    for r in range(1, s):
        np.matmul(babies[r - 1], T, out=babies[r])
    acc = None
    top = max(K - 1, 0) // s  # the top block holds a_(top s)..a_K
    for j in range(top, -1, -1):
        block = a[j * s:] if j == top else a[j * s:(j + 1) * s]
        poly = (block[1:] @ babies[:len(block) - 1].reshape(-1, d * d)).reshape(d, d)
        poly.flat[::d + 1] += block[0]
        acc = poly if acc is None else acc @ babies[-1] + poly
    return acc


def apply_laurent(psi: LaurentSeries, T) -> np.ndarray:
    """psi_hat(0) I + sum psi_hat(-n) (T*)^n + sum psi_hat(n) T^n."""
    T = as_operator(T)
    eye = np.eye(T.shape[0], dtype=complex)
    acc = psi.coeff(0) * eye
    P = eye
    for n in range(1, psi.order + 1):
        P = P @ T
        acc = acc + psi.coeff(-n) * P.conj().T + psi.coeff(n) * P
    return acc


def _trace(M: np.ndarray) -> complex:
    d = np.diagonal(M)
    return complex(math.fsum(d.real), math.fsum(d.imag))


def trace_lhs_circle(pair: ContractionPair, phi: LaurentSeries) -> complex:
    """Tr(phi(T) - phi(T0)) by matrix functional calculus."""
    return _trace(apply_series(phi, pair.T) - apply_series(phi, pair.T0))


def trace_rhs_circle_quadrature(s: LaurentSeries, phis: list[LaurentSeries],
                                abel_radius: float) -> list[complex]:
    """Grid quadrature of (d/dt phi(e^{it})) * xi_r(t) over [0, 2*pi), per symbol of ``phis``.

    Independent of the coefficient pairing: the shift function enters only
    through its Abel-regularized pointwise values, taken once for all symbols,
    and each product is summed point by point on the grid.  The symbols are
    padded with zero modes to the largest order K and stacked, so every phi'
    is taken over the modes -K..K in one batch; the zero modes fold exactly.
    """
    K = max(phi.order for phi in phis)
    if K > s.order:
        raise InsufficientCoefficientsError(
            f"symbol order {K} exceeds coefficient table order {s.order}")
    n = np.arange(-K, K + 1)
    stacked = np.stack([np.pad(phi.coeffs, K - phi.order) for phi in phis])
    phi_prime = uniform_trig_values(n, 1j * n * stacked, QUADRATURE_POINTS)
    xi_r = evaluate_ssf_uniform(s, QUADRATURE_POINTS, abel_radius)
    return [complex((2.0 * np.pi / QUADRATURE_POINTS) * np.sum(row * xi_r)) for row in phi_prime]


def laurent_difference_trace(pair: ContractionPair, psi: LaurentSeries) -> complex:
    """Tr(psi~(T, T*) - psi~(T0, T0*)) by matrix functional calculus."""
    return _trace(apply_laurent(psi, pair.T) - apply_laurent(psi, pair.T0))


def laurent_difference_bound(pair: ContractionPair, psi: LaurentSeries):
    """(||psi~(T,T*) - psi~(T0,T0*)||_1, weighted_norm * ||T - T0||_1)."""
    lhs = trace_norm(apply_laurent(psi, pair.T) - apply_laurent(psi, pair.T0))
    return lhs, psi.weighted_norm * trace_norm(pair.T - pair.T0)
