"""Semigroup integral representation of A - B for positive contractions.

For Hermitian 0 <= A, B <= I with B bounded below by delta > 0,

    A - B = integral_0^inf exp(-tA) (A^2 - B^2) exp(-tB) dt,

and the trace-norm estimate ||A - B||_1 <= ||A^2 - B^2||_1 / delta.
Both come from one eigendecomposition of each of A and B and are applied
to defect-operator pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import NotPositiveContractionError, SingularBError
from .linops import as_operator, trace_norm

DELTA_FLOOR = 1e-4
NODES_PER_UNIT = 32
# spectra within SPECTRUM_TOL of [0, 1] count as positive contractions
SPECTRUM_TOL = 1e-10


@dataclass(frozen=True)
class IntegralReport:
    computed_difference: np.ndarray
    direct_difference: np.ndarray
    frobenius_error: float
    upper_time_limit: float
    nodes_used: int
    trace_norm_difference: float  # ||A - B||_1
    trace_bound: float  # ||A^2 - B^2||_1 / delta_B, at least trace_norm_difference


def _positive_contraction_eig(M):
    """Eigendecomposition of a Hermitian matrix with spectrum in [0, 1]."""
    A = as_operator(M)
    herm_err = float(np.linalg.norm(A - A.conj().T, "fro"))
    if herm_err > 1e-10 * max(float(np.linalg.norm(A, "fro")), 1.0):
        raise NotPositiveContractionError(f"not Hermitian (residual {herm_err})")
    H = (A + A.conj().T) / 2.0
    w, V = np.linalg.eigh(H)
    if w.min() < -SPECTRUM_TOL or w.max() > 1.0 + SPECTRUM_TOL:
        raise NotPositiveContractionError(
            f"spectrum [{w.min()}, {w.max()}] not within [0, 1]")
    return H, np.clip(w, 0.0, 1.0), V


@cache
def legendre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per node count."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_panels(upper: float, nodes_per_unit: int):
    """Composite Gauss-Legendre nodes/weights on [0, upper], one panel per unit."""
    panels = max(int(math.ceil(upper)), 1)
    x, w = legendre_rule(nodes_per_unit)
    width = upper / panels
    starts = width * np.arange(panels)
    nodes = (starts[:, None] + width * (x[None, :] + 1.0) / 2.0).ravel()
    weights = np.tile(w * width / 2.0, panels)
    return nodes, weights


def semigroup_integral(A, B, tol: float) -> IntegralReport:
    """Quadrature evaluation of the semigroup integral for A - B.

    The integral is truncated at s* chosen so the dropped tail has trace
    norm at most tol; the report's Frobenius error compares against the
    direct difference A - B.  The same eigendecompositions give the
    trace-norm bound ||A - B||_1 <= ||A^2 - B^2||_1 / delta_B, where
    delta_B, the smallest eigenvalue of B, must reach DELTA_FLOOR.
    """
    HA, wa, Va = _positive_contraction_eig(A)
    HB, wb, Vb = _positive_contraction_eig(B)
    if HA.shape != HB.shape:
        raise ValueError("A and B must have the same dimension")
    delta_b = float(wb.min())
    if delta_b < DELTA_FLOOR:
        raise SingularBError(f"smallest eigenvalue of B is {delta_b}, below {DELTA_FLOOR}")

    C = HA @ HA - HB @ HB
    c1 = trace_norm(C)
    if c1 > tol * delta_b:
        s_star = math.log(c1 / (tol * delta_b)) / delta_b
    else:
        s_star = 1.0
    s_star = max(s_star, 1.0)

    t, wts = _gauss_panels(s_star, NODES_PER_UNIT)
    # in the eigenbases the quadrature is a Hadamard product with the kernel
    # K_ij = sum_t w_t exp(-t (a_i + b_j)) (Bhatia & Rosenthal, Bull. LMS 29, 1997)
    K = (wts[:, None] * np.exp(-np.outer(t, wa))).T @ np.exp(-np.outer(t, wb))
    computed = Va @ (K * (Va.conj().T @ C @ Vb)) @ Vb.conj().T

    direct = HA - HB
    err = float(np.linalg.norm(computed - direct, "fro"))
    return IntegralReport(computed_difference=computed,
                          direct_difference=direct,
                          frobenius_error=err,
                          upper_time_limit=s_star,
                          nodes_used=len(t),
                          trace_norm_difference=trace_norm(direct),
                          trace_bound=c1 / delta_b)


def defect_identity_error(A, B, T, T0) -> float:
    """Frobenius residual of A^2 - B^2 = (T0 - T)* T0 + T* (T0 - T): the defect identity
    for (A, B) = (D_T, D_T0), and for (D_T*, D_T0*) with T, T0 replaced by T*, T0*."""
    E = T0 - T
    return float(np.linalg.norm(A @ A - B @ B - (E.conj().T @ T0 + T.conj().T @ E), "fro"))
