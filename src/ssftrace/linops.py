"""Dense complex matrix kernel.

Contraction validation, defect operators, trace norms and reproducible
random pair generation.  Both defect operators of a contraction, and their
eigenpairs, come from its one singular value decomposition, which a pair
takes once per contraction.  All functions are pure; matrices are plain
complex numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidDeltaError,
    NotAContractionError,
    NotSquareError,
    RequiresStrictContractionError,
)

# strict means 1 - ||M|| >= DELTA_MIN; norms up to 1 + NORM_TOL count as
# contractions
DELTA_MIN = 1e-6
NORM_TOL = 1e-10


@dataclass(frozen=True)
class ContractionCertificate:
    operator_norm: float
    strictness_margin_delta: float
    is_strict: bool


@dataclass(frozen=True)
class ContractionPair:
    """A pair (T, T0) of same-size contractions with T0 strict."""

    T: np.ndarray
    T0: np.ndarray
    cert_T: ContractionCertificate
    cert_T0: ContractionCertificate

    @property
    def dim(self) -> int:
        return self.T.shape[0]

    @cached_property
    def defect_factors(self) -> tuple[tuple, tuple]:
        """((U, r, Vh) of T, (U, r, Vh) of T0), one ``defect_factors`` call per
        contraction on first use; the arrays are read-only, as every reader shares them."""
        factors = defect_factors(self.T), defect_factors(self.T0)
        for M in (*factors[0], *factors[1]):
            M.flags.writeable = False
        return factors

    @cached_property
    def defects(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """((D_T, D_T*), (D_T0, D_T0*)) from ``defect_factors``, read-only."""
        pairs = tuple(defects(*factors) for factors in self.defect_factors)
        for D in (*pairs[0], *pairs[1]):
            D.flags.writeable = False
        return pairs


def as_operator(M) -> np.ndarray:
    """Coerce to a nonempty square complex matrix with finite entries."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {A.shape}")
    if A.size == 0:
        raise ValueError("matrix is empty (0x0)")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    return A


def validate_contraction(M) -> ContractionCertificate:
    """Certify that M is a contraction and measure its strictness margin."""
    A = as_operator(M)
    s = float(np.linalg.norm(A, 2))
    if s > 1.0 + NORM_TOL:
        raise NotAContractionError(f"operator norm {s} exceeds 1 + {NORM_TOL}")
    delta = 1.0 - s
    return ContractionCertificate(operator_norm=s,
                                  strictness_margin_delta=delta,
                                  is_strict=delta >= DELTA_MIN)


def make_pair(T, T0) -> ContractionPair:
    """Validate and assemble a ContractionPair (T0 must be strict).

    Norms in (1, 1 + NORM_TOL] are renormalized to exactly 1; such
    overshoots are floating-point artifacts, not genuine expansions.
    """
    T = as_operator(T)
    T0 = as_operator(T0)
    if T.shape != T0.shape:
        raise NotSquareError(f"dimension mismatch: {T.shape} vs {T0.shape}")

    def _clip(A, cert):
        return A / cert.operator_norm if cert.operator_norm > 1.0 else A

    cert_T = validate_contraction(T)
    cert_T0 = validate_contraction(T0)
    T = _clip(T, cert_T)
    T0 = _clip(T0, cert_T0)
    if not cert_T0.is_strict:
        raise RequiresStrictContractionError(
            f"T0 has norm {cert_T0.operator_norm}; strictness margin "
            f"{cert_T0.strictness_margin_delta} below {DELTA_MIN}")
    return ContractionPair(T=T, T0=T0, cert_T=cert_T, cert_T0=cert_T0)


def defect_factors(M) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, r, Vh) from one SVD M = U diag(s) Vh, with r = sqrt((1 - s)(1 + s)).

    D_M = V diag(r) V* and D_M* = U diag(r) U*, so (r, V) and (r, U) are the
    eigenpairs of D_M and D_M*, and M D_M = D_M* M holds in factored form
    even where s is near 1.
    """
    U, s, Vh = np.linalg.svd(as_operator(M))
    if s.max(initial=0.0) > 1.0 + NORM_TOL:
        raise NotAContractionError(f"operator norm {s.max()} exceeds 1 + {NORM_TOL}")
    # a norm overshooting 1 by up to NORM_TOL gives r = 0, not NaN
    return U, np.sqrt(np.clip((1.0 - s) * (1.0 + s), 0.0, None)), Vh


def defects(U, r, Vh) -> tuple[np.ndarray, np.ndarray]:
    """Defect operators (D_M, D_M*) = ((I - M*M)^(1/2), (I - MM*)^(1/2)) from the
    ``defect_factors`` of M."""
    return (Vh.conj().T * r) @ Vh, (U * r) @ U.conj().T


def trace_norm(M) -> float:
    """Sum of singular values (Schatten-1 norm)."""
    A = np.asarray(M, dtype=complex)
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    return float(np.linalg.svd(A, compute_uv=False).sum())


def ginibre(rng: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    """Complex Ginibre draw, entries ~ CN(0, 1/rows)."""
    cols = rows if cols is None else cols
    G = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return G / np.sqrt(2.0 * rows)


def random_contraction(dim: int, target_norm: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Ginibre matrix rescaled to the given operator norm."""
    G = ginibre(rng, dim)
    return G * (target_norm / float(np.linalg.norm(G, 2)))


def random_pair(dim: int, delta: float, perturbation_trace_norm: float,
                seed: int) -> ContractionPair:
    """Deterministic random pair: strict T0 plus a low-rank trace-norm perturbation."""
    if not 0.0 < delta < 1.0:
        raise InvalidDeltaError(f"delta must lie in (0, 1), got {delta}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not (math.isfinite(perturbation_trace_norm) and perturbation_trace_norm > 0.0):
        raise ValueError("perturbation_trace_norm must be finite and positive, "
                         f"got {perturbation_trace_norm}")
    rng = np.random.default_rng(seed)
    T0 = random_contraction(dim, 1.0 - delta, rng)
    # rounding can leave 1 - ||T0|| a few ulps short of delta, and so of
    # DELTA_MIN when delta = DELTA_MIN: step the norm down an ulp at a time
    while delta >= DELTA_MIN and not validate_contraction(T0).is_strict:
        T0 = T0 * np.nextafter(1.0, 0.0)
    rank = min(dim, 2)
    u = ginibre(rng, dim, rank)
    v = ginibre(rng, dim, rank)
    E = u @ v.conj().T
    E *= perturbation_trace_norm / trace_norm(E)
    T = T0 + E
    s = float(np.linalg.norm(T, 2))
    if s > 1.0:
        T = T / s
    return make_pair(T, T0)
