"""Semigroup integral representation of A - B for positive contractions.

For Hermitian 0 <= A, B <= I with B bounded below by delta > 0,

    A - B = integral_0^inf exp(-tA) (A^2 - B^2) exp(-tB) dt,

and the trace-norm estimate ||A - B||_1 <= ||A^2 - B^2||_1 / delta.  Both
come from one eigendecomposition each of A and B, applied to defect-operator
pairs.  In those eigenbases the whole integral is the Hadamard product with
K_ij = 1 / (a_i + b_j), the solution of AX + XB = A^2 - B^2 (Bhatia &
Rosenthal, Bull. LMS 29, 1997): no truncation time and no quadrature nodes,
so the cost does not grow as delta nears zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveContractionError, SingularBError
from .linops import as_operator

DELTA_FLOOR = 1e-4
# spectra within SPECTRUM_TOL of [0, 1] count as positive contractions
SPECTRUM_TOL = 1e-10


@dataclass(frozen=True)
class IntegralReport:
    computed_difference: np.ndarray
    direct_difference: np.ndarray
    frobenius_error: float
    nodes_used: int  # always 0: no quadrature nodes; perfbench/tracer.py reads it
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


def semigroup_integral(A, B) -> IntegralReport:
    """The semigroup integral for A - B over [0, inf), by its kernel 1 / (a_i + b_j).

    The report's Frobenius error compares it against the direct difference A - B.
    The same eigendecompositions give the trace-norm bound
    ||A - B||_1 <= ||A^2 - B^2||_1 / delta_B, where delta_B, the smallest
    eigenvalue of B, must reach DELTA_FLOOR.  Both trace norms are of
    Hermitian matrices, so they are sums of absolute eigenvalues.
    """
    HA, wa, Va = _positive_contraction_eig(A)
    HB, wb, Vb = _positive_contraction_eig(B)
    if HA.shape != HB.shape:
        raise ValueError("A and B must have the same dimension")
    delta_b = float(wb.min())
    if delta_b < DELTA_FLOOR:
        raise SingularBError(f"smallest eigenvalue of B is {delta_b}, below {DELTA_FLOOR}")

    C = HA @ HA - HB @ HB
    # int_0^inf exp(-t (a_i + b_j)) dt = 1 / (a_i + b_j), as a_i + b_j >= delta_B > 0
    computed = Va @ ((Va.conj().T @ C @ Vb) / np.add.outer(wa, wb)) @ Vb.conj().T
    direct = HA - HB
    return IntegralReport(computed_difference=computed,
                          direct_difference=direct,
                          frobenius_error=float(np.linalg.norm(computed - direct, "fro")),
                          nodes_used=0,
                          trace_norm_difference=float(np.abs(np.linalg.eigvalsh(direct)).sum()),
                          trace_bound=float(np.abs(np.linalg.eigvalsh(C)).sum()) / delta_b)


def defect_identity_error(A, B, T, T0) -> float:
    """Frobenius residual of A^2 - B^2 = (T0 - T)* T0 + T* (T0 - T): the defect identity
    for (A, B) = (D_T, D_T0), and for (D_T*, D_T0*) with T, T0 replaced by T*, T0*."""
    E = T0 - T
    return float(np.linalg.norm(A @ A - B @ B - (E.conj().T @ T0 + T.conj().T @ E), "fro"))
