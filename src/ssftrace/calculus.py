"""Functional calculus from finite coefficient tables, all ``ssf.LaurentSeries``.

A table with no negative modes (an analytic symbol) acts on a contraction
as sum a_k T^k, by Paterson-Stockmeyer; a two-sided table acts as
psi_hat(0) I + sum psi_hat(-n) (T*)^n + sum psi_hat(n) T^n.  Both act on the stacked
pair (T, T0) at once: the first reads its ``power_table``, built once per verify run
for every circle symbol, the second steps from the pair.  The left side of the circle
trace formula, its grid quadrature and the trace of the two-sided difference are
computed here; the pairing is ``disc``'s closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .disc import angular_nodes
from .linops import trace_norm
from .ssf import LaurentSeries, evaluate_ssf_uniform, stack_tables, uniform_trig_values


def power_table(S, s: int) -> np.ndarray:
    """S^1..S^s of a stack S (..., d, d) of square matrices, as (..., s, d, d): each
    power the one before times S, one batched product per power past the first.
    ``apply_series`` takes such a table; on the table of the stacked pair (T, T0) it
    takes every product once for both operators and every symbol, and each operator's
    result is, bit for bit, the one its own products give, as its powers stay
    contiguous."""
    S = np.asarray(S, dtype=complex)
    table = np.empty((*S.shape[:-2], s, *S.shape[-2:]), dtype=complex)
    table[..., 0, :, :] = S
    for r in range(1, s):
        np.matmul(table[..., r - 1, :, :], S, out=table[..., r, :, :])
    return table


def apply_series(phi: LaurentSeries, powers: np.ndarray) -> np.ndarray:
    """sum a_k S^k by Paterson & Stockmeyer (SIAM J. Comput. 2, 1973), for each matrix S
    of the stack whose ``power_table`` is ``powers``; ValueError if phi has a nonzero
    negative mode or the table holds fewer than s powers.

    Babies S^1..S^s, s = isqrt(K), read off the table, and Horner in S^s over blocks
    of s terms, the top block taking up to s + 1: (K - 1) // s products for K >= 1,
    where Horner takes K.  Each block's constant goes on its diagonal in place.  The
    table is built in this module, never taken from ``ssf.moments``.
    """
    if np.any(phi.coeffs[:phi.order]):
        raise ValueError("an analytic symbol cannot hold a nonzero negative mode")
    a = phi.coeffs[phi.order:]  # a_0..a_K
    K, (*lead, held, d, _) = phi.order, powers.shape
    s = max(math.isqrt(K), 1)
    if s > held:
        raise ValueError(f"a symbol of order {K} reads powers to {s}; the table holds {held}")
    babies = powers[..., :s, :, :].reshape(*lead, s, d * d)
    acc = None
    top = max(K - 1, 0) // s  # the top block holds a_(top s)..a_K
    for j in range(top, -1, -1):
        block = a[j * s:] if j == top else a[j * s:(j + 1) * s]
        poly = (block[1:] @ babies[..., :len(block) - 1, :]).reshape(*lead, d, d)
        poly.reshape(-1, d * d)[:, ::d + 1] += block[0]
        acc = poly if acc is None else acc @ powers[..., s - 1, :, :] + poly
    return acc


def apply_laurent(psi: LaurentSeries, S) -> np.ndarray:
    """psi_hat(0) I + sum psi_hat(-n) (S*)^n + sum psi_hat(n) S^n, for each matrix S of
    the stack S (..., d, d): S^n by one running product P <- P S from P = S, the products
    ``power_table`` takes, so each power is, bit for bit, the one its table holds."""
    S = np.asarray(S, dtype=complex)
    *lead, d, _ = S.shape
    acc = np.zeros((*lead, d, d), dtype=complex)
    acc.reshape(-1, d * d)[:, ::d + 1] = psi.coeff(0)
    for n in range(1, psi.order + 1):
        P = S if n == 1 else P @ S
        term = np.conjugate(P)
        acc += np.swapaxes(np.multiply(psi.coeff(-n), term, out=term), -1, -2)
        acc += np.multiply(psi.coeff(n), P, out=term)
        del term  # so the next running product finds four stacks live: S, acc and two powers
    return acc


def _trace(M: np.ndarray) -> complex:
    d = np.diagonal(M)
    return complex(math.fsum(d.real), math.fsum(d.imag))


def trace_lhs_circle(powers: np.ndarray, phi: LaurentSeries) -> complex:
    """Tr(phi(T) - phi(T0)) by matrix functional calculus, off the ``power_table`` of
    the stacked pair (T, T0)."""
    F = apply_series(phi, powers)
    return _trace(F[0] - F[1])


def trace_rhs_circle_quadrature(s: LaurentSeries, phis: list[LaurentSeries],
                                abel_radius: float) -> list[complex]:
    """Grid quadrature of (d/dt phi(e^{it})) * xi_r(t) over [0, 2*pi), per symbol of ``phis``.

    Independent of the coefficient pairing: the shift function enters only
    through its Abel-regularized pointwise values, taken once for all symbols,
    and each product is summed point by point on the grid.  The symbols are
    padded with zero modes to the largest order K and stacked, and xi cut to its
    modes |n| <= K, so every phi' is taken over the modes -K..K in one batch; each
    product has degree 2K, summed exactly on the disc's ``angular_nodes(K)`` points.
    """
    stacked, xi = stack_tables(phis, s)
    K, M = xi.order, angular_nodes(xi.order)
    n = np.arange(-K, K + 1)
    phi_prime = uniform_trig_values(n, 1j * n * stacked, M)
    xi_r = evaluate_ssf_uniform(xi, M, abel_radius)
    return [complex((2.0 * np.pi / M) * np.sum(row * xi_r)) for row in phi_prime]


def laurent_difference_trace(S, psi: LaurentSeries) -> complex:
    """Tr(psi~(T, T*) - psi~(T0, T0*)) by matrix functional calculus, on the stacked
    pair S = (T, T0)."""
    F = apply_laurent(psi, S)
    return _trace(F[0] - F[1])


def laurent_difference_bound(S, psi: LaurentSeries):
    """(||psi~(T,T*) - psi~(T0,T0*)||_1, weighted_norm * ||T - T0||_1), on the stacked
    pair S = (T, T0)."""
    F = apply_laurent(psi, S)
    return trace_norm(F[0] - F[1]), psi.weighted_norm * trace_norm(S[0] - S[1])
