"""Semigroup integral representation of A - B for positive contractions.

For Hermitian 0 <= A, B <= I with B bounded below by delta > 0,

    A - B = integral_0^inf exp(-tA) (A^2 - B^2) exp(-tB) dt,

and the trace-norm estimate ||A - B||_1 <= ||A^2 - B^2||_1 / delta.  Both
are applied to defect-operator pairs, whose eigenpairs the caller passes in
from each contraction's one SVD (``linops.defect_factors``): no
eigendecomposition runs here.  In those eigenbases the whole integral is the
Hadamard product with K_ij = 1 / (a_i + b_j), the solution of
AX + XB = A^2 - B^2 (Bhatia & Rosenthal, Bull. LMS 29, 1997): no truncation
time and no quadrature nodes, so the cost does not grow as delta nears zero.
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


def _spectrum(w, name: str) -> np.ndarray:
    """Eigenvalues w of a positive contraction, clipped to [0, 1] once checked."""
    w = np.asarray(w, dtype=float)
    if w.min() < -SPECTRUM_TOL or w.max() > 1.0 + SPECTRUM_TOL:
        raise NotPositiveContractionError(
            f"spectrum of {name} [{w.min()}, {w.max()}] not within [0, 1]")
    return np.clip(w, 0.0, 1.0)


def semigroup_integral(A, B, eig_A, eig_B) -> IntegralReport:
    """The semigroup integral for A - B over [0, inf), by its kernel 1 / (a_i + b_j).

    ``eig_A`` = (a, V_A) and ``eig_B`` = (b, V_B) are eigenpairs of
    A = V_A diag(a) V_A* and B, as the caller's factorization gives them; no
    eigendecomposition runs here.  A^2 - B^2 and the direct difference A - B,
    which the report's Frobenius error compares the integral against, are
    formed from the Hermitian parts of the matrices, so eigenpairs that do not
    belong to them show.  The trace-norm bound ||A - B||_1 <= ||A^2 - B^2||_1 / delta_B needs
    delta_B, the smallest eigenvalue of B, to reach DELTA_FLOOR.  Both trace
    norms are of Hermitian matrices, so they are sums of absolute eigenvalues.
    """
    A, B = as_operator(A), as_operator(B)
    if A.shape != B.shape:
        raise ValueError("A and B must have the same dimension")
    A, B = (A + A.conj().T) / 2.0, (B + B.conj().T) / 2.0
    (wa, Va), (wb, Vb) = eig_A, eig_B
    wa, wb = _spectrum(wa, "A"), _spectrum(wb, "B")
    delta_b = float(wb.min())
    if delta_b < DELTA_FLOOR:
        raise SingularBError(f"smallest eigenvalue of B is {delta_b}, below {DELTA_FLOOR}")

    C = A @ A - B @ B
    # int_0^inf exp(-t (a_i + b_j)) dt = 1 / (a_i + b_j), as a_i + b_j >= delta_B > 0
    computed = Va @ ((Va.conj().T @ C @ Vb) / np.add.outer(wa, wb)) @ Vb.conj().T
    direct = A - B
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
