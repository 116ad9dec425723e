"""Reference evaluations the tests check the package against.

No ``ssftrace`` command runs them: pointwise harmonic extension, Wirtinger
derivatives and Jacobian by Horner ``polyval``, the truncated Poisson kernel,
Abel values at arbitrary angles by the dense mode matrix, the inverse of
``ssf_from_moments``, a trace-norm bound for the dilation difference, one
value of the disc quadrature, eigenpairs and defects of a bare matrix,
the dilation's window as one dense array and its walk with every block formed, and ``apply_series`` by plain Horner.
"""

import numpy as np
from numpy.polynomial import polynomial as npoly

from ssftrace import dilation, disc, linops, ssf
from ssftrace.errors import SsftraceError
from ssftrace.linops import trace_norm
from ssftrace.ssf import LaurentSeries

BOUNDARY_GUARD = 1e-6


class OutsideOpenDiscError(SsftraceError):
    pass


def poisson_extend(table: LaurentSeries, z: complex) -> complex:
    """Harmonic extension c_0 + sum c_(-n) zbar^n + sum c_n z^n at |z| < 1."""
    order, c = table.order, table.coeffs
    z = complex(z)
    if abs(z) > 1.0 - BOUNDARY_GUARD:
        raise OutsideOpenDiscError(f"|z| = {abs(z)} is outside the guarded disc")
    pos = c[order + 1:]
    neg = c[order - 1::-1]  # index n-1 holds c_(-n)
    val = c[order]
    if order >= 1:
        val = val + z * npoly.polyval(z, pos) + np.conj(z) * npoly.polyval(np.conj(z), neg)
    return complex(val)


def kernel_expansion_check(z: complex, t_grid, n_trunc: int) -> float:
    """Max error of the truncated geometric expansion of the Poisson kernel."""
    z = complex(z)
    if abs(z) > 0.95:
        raise ValueError(f"|z| = {abs(z)} exceeds 0.95")
    t = np.asarray(t_grid, dtype=float)
    direct = (1.0 - abs(z) ** 2) / np.abs(np.exp(1j * t) - z) ** 2
    w = np.conj(z) * np.exp(1j * t)
    partial = np.ones_like(t, dtype=complex)
    wp = np.ones_like(t, dtype=complex)
    for _ in range(n_trunc):
        wp = wp * w
        partial = partial + wp
    expansion = 2.0 * partial.real - 1.0  # 1 + 2 Re sum_{n>=1} (zbar e^{it})^n
    return float(np.abs(direct - expansion).max())


def _wirtinger(table: LaurentSeries, z, conjugate: bool):
    """d/dz (conjugate=False) or d/dzbar (True) of the extension; z may be an array."""
    order, c = table.order, table.coeffs
    z = np.asarray(z, dtype=complex)
    if order < 1:
        return np.zeros_like(z)
    n = np.arange(1, order + 1)
    if conjugate:
        return npoly.polyval(np.conj(z), n * c[order - 1::-1])
    return npoly.polyval(z, n * c[order + 1:])


def jacobian_at(xi, psi, z: complex) -> complex:
    """J = (d xi/dz)(d psi/dzbar) - (d psi/dz)(d xi/dzbar) at a point of the disc."""
    z = complex(z)
    if abs(z) > 1.0 - BOUNDARY_GUARD:
        raise OutsideOpenDiscError(f"|z| = {abs(z)} is outside the guarded disc")
    return complex(_wirtinger(xi, z, False) * _wirtinger(psi, z, True)
                   - _wirtinger(psi, z, False) * _wirtinger(xi, z, True))


def disc_quadrature(xi, psi, R: float) -> complex:
    """``disc.quadrature`` for one table at one radius R in (0, 1); xi is first padded
    with zero modes to psi's order, which pair with nothing, so any two tables pair."""
    xi = LaurentSeries(coeffs=np.pad(xi.coeffs, max(psi.order - xi.order, 0)))
    return complex(disc.quadrature(xi, [psi], [R])[0, 0])


def evaluate_ssf_grid(s: LaurentSeries, t_grid, abel_radius: float) -> np.ndarray:
    """Abel-summed values sum_n xi_hat(n) r^|n| e^{int} on any grid of angles, by the
    dense mode matrix; the table must be conjugate symmetric."""
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    n = np.arange(-s.order, s.order + 1)
    vals = np.exp(1j * np.outer(t, n)) @ (s.coeffs * abel_radius ** np.abs(n))
    assert np.abs(vals.imag).max(initial=0.0) <= ssf.REAL_TOL
    return vals.real


def moments_from_ssf(s: LaurentSeries) -> np.ndarray:
    """Inverse of ssf_from_moments: m_n = 2*pi*i*n*xi_hat(-n), n = 1..order."""
    return np.array([2j * np.pi * n * s.coeff(-n) for n in range(1, s.order + 1)])


def difference_block_trace_norm_sum(blocks) -> float:
    """Subadditive upper bound for the trace norm of the dilation difference."""
    return sum(trace_norm(b) for b in blocks.values())


def eigh(M):
    """(w, V) of the Hermitian part of M, the eigenpairs ``semigroup_integral`` takes."""
    M = np.asarray(M, dtype=complex)
    return np.linalg.eigh((M + M.conj().T) / 2.0)


def defects_of(M):
    """(D_M, D_M*) of a bare matrix, from the defect eigenpairs of its
    ``validate_contraction``."""
    return linops.defects(linops.validate_contraction(M)[1])


def dense_window(T, N: int) -> np.ndarray:
    """The window [-N, N] of the dilation of a bare matrix as one ((2N+1)d)^2 array:
    ``dilation.julia`` in block rows -1, 0 and columns 0, 1, its defects taken
    here, and an identity at each of the 2N - 2 shift positions (k, k+1)."""
    T = np.asarray(T, dtype=complex)
    d = len(T)
    W = np.zeros(((2 * N + 1) * d,) * 2, dtype=complex)
    for k in range(-N, N):
        if k not in (-1, 0):
            W[(k + N) * d:(k + N + 1) * d, (k + N + 1) * d:(k + N + 2) * d] = np.eye(d)
    W[(N - 1) * d:(N + 1) * d, N * d:(N + 2) * d] = dilation.julia(T, *defects_of(T))
    return W


def unpruned_power_walk(pair, WT, W0, N: int) -> list:
    """``dilation.power_walk``'s entries from two dense windows of radius N, every
    block (i, j) of W^n formed as sum_k [W^(n-1)]_ik W_kj, traces summed block by
    block; T^n and T0^n by the walk's own products."""
    d, m = pair.dim, 2 * N + 1

    def blocks(W):
        return [[W[i * d:(i + 1) * d, j * d:(j + 1) * d] for j in range(m)] for i in range(m)]

    BT, B0 = blocks(WT), blocks(W0)
    PT, P0 = BT, B0
    Tn, T0n = pair.T, pair.T0
    walk = []
    for n in range(1, N + 1):
        if n > 1:
            PT, P0 = ([[sum((P[i][k] @ B[k][j] for k in range(m)), np.zeros((d, d), complex))
                        for j in range(m)] for i in range(m)] for P, B in ((PT, BT), (P0, B0)))
            Tn, T0n = Tn @ pair.T, T0n @ pair.T0
        trace_T = sum((np.trace(PT[i][i]) for i in range(m)), 0j)
        trace_0 = sum((np.trace(P0[i][i]) for i in range(m)), 0j)
        walk.append((n, float(np.linalg.norm(PT[N][N] - Tn, "fro")),
                     complex(np.trace(Tn) - np.trace(T0n)), complex(trace_T - trace_0)))
    return walk


def horner(phi: LaurentSeries, T) -> np.ndarray:
    """sum a_k T^k over a_0..a_K by Horner, K products."""
    T = np.asarray(T, dtype=complex)
    eye = np.eye(len(T), dtype=complex)
    coeffs = phi.coeffs[phi.order:]
    acc = coeffs[-1] * eye
    for a in coeffs[-2::-1]:
        acc = acc @ T + a * eye
    return acc
