"""Functional calculus from finite coefficient tables.

One-sided tables (analytic symbols, weighted norm sum k|a_k|) act on a
contraction as sum a_k T^k; two-sided tables (``ssf.LaurentSeries``, the
class of the shift function too) act as
psi_hat(0) I + sum psi_hat(-n) (T*)^n + sum psi_hat(n) T^n.  Both sides
of the circle trace formula and the trace of the two-sided difference
are computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientCoefficientsError
from .linops import ContractionPair, as_operator, trace_norm
from .ssf import LaurentSeries, evaluate_ssf_uniform, uniform_trig_values

# grid size of the circle quadrature route
QUADRATURE_POINTS = 4096


@dataclass(frozen=True)
class CoefficientSeries:
    """One-sided table a_0..a_K of an analytic symbol."""

    coeffs: np.ndarray

    @classmethod
    def from_terms(cls, terms: dict[int, complex]) -> "CoefficientSeries":
        K = max(terms) if terms else 0
        c = np.zeros(K + 1, dtype=complex)
        for k, a in terms.items():
            if k < 0:
                raise ValueError(f"one-sided series cannot hold index {k}")
            c[k] = a
        return cls(coeffs=c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def weighted_norm(self) -> float:
        k = np.arange(len(self.coeffs))
        return float(np.abs(k * self.coeffs).sum())


def apply_series(phi: CoefficientSeries, T) -> np.ndarray:
    """Horner evaluation of sum a_k T^k."""
    T = as_operator(T)
    eye = np.eye(T.shape[0], dtype=complex)
    acc = phi.coeffs[-1] * eye
    for a in phi.coeffs[-2::-1]:
        acc = acc @ T + a * eye
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


def trace_lhs_circle(pair: ContractionPair, phi: CoefficientSeries) -> complex:
    """Tr(phi(T) - phi(T0)) by matrix functional calculus."""
    return _trace(apply_series(phi, pair.T) - apply_series(phi, pair.T0))


def series_difference_bound(pair: ContractionPair, phi: CoefficientSeries):
    """(||phi(T) - phi(T0)||_1, weighted_norm * ||T - T0||_1); telescoping bound."""
    lhs = trace_norm(apply_series(phi, pair.T) - apply_series(phi, pair.T0))
    return lhs, phi.weighted_norm * trace_norm(pair.T - pair.T0)


def trace_rhs_circle(s: LaurentSeries, phi: CoefficientSeries) -> complex:
    """Coefficient pairing 2*pi*i * sum_k k a_k xi_hat(-k)."""
    if phi.degree > s.order:
        raise InsufficientCoefficientsError(
            f"series degree {phi.degree} exceeds coefficient table order {s.order}")
    total = 0.0 + 0.0j
    for k in range(1, phi.degree + 1):
        total += k * phi.coeffs[k] * s.coeff(-k)
    return 2j * np.pi * total


def trace_rhs_circle_quadrature(s: LaurentSeries, phi: CoefficientSeries,
                                abel_radius: float) -> complex:
    """Grid quadrature of (d/dt phi(e^{it})) * xi_r(t) over [0, 2*pi).

    Independent of the coefficient pairing: the shift function enters
    only through its Abel-regularized pointwise values, and the product
    is summed point by point on the grid.
    """
    if phi.degree > s.order:
        raise InsufficientCoefficientsError(
            f"series degree {phi.degree} exceeds coefficient table order {s.order}")
    k = np.arange(len(phi.coeffs))
    phi_prime = uniform_trig_values(k, 1j * k * phi.coeffs, QUADRATURE_POINTS)
    xi_r = evaluate_ssf_uniform(s, QUADRATURE_POINTS, abel_radius)
    return complex((2.0 * np.pi / QUADRATURE_POINTS) * np.sum(phi_prime * xi_r))


def laurent_difference_trace(pair: ContractionPair, psi: LaurentSeries) -> complex:
    """Tr(psi~(T, T*) - psi~(T0, T0*)) by matrix functional calculus."""
    return _trace(apply_laurent(psi, pair.T) - apply_laurent(psi, pair.T0))


def laurent_difference_bound(pair: ContractionPair, psi: LaurentSeries):
    """(||psi~(T,T*) - psi~(T0,T0*)||_1, weighted_norm * ||T - T0||_1)."""
    lhs = trace_norm(apply_laurent(psi, pair.T) - apply_laurent(psi, pair.T0))
    return lhs, psi.weighted_norm * trace_norm(pair.T - pair.T0)


def laurent_trace_from_moments(m, psi: LaurentSeries) -> complex:
    """sum psi_hat(-n) conj(m_n) + psi_hat(n) m_n; adjoint moments by conjugation."""
    if psi.order > m.n_max:
        raise InsufficientCoefficientsError(
            f"table order {psi.order} exceeds moment range {m.n_max}")
    total = 0.0 + 0.0j
    for n in range(1, psi.order + 1):
        mn = m.moments[n - 1]
        total += psi.coeff(-n) * np.conj(mn) + psi.coeff(n) * mn
    return complex(total)
