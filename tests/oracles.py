"""Reference evaluations the tests check the package against.

No ``ssftrace`` command runs them: pointwise harmonic extension, Wirtinger
derivatives and Jacobian by Horner ``polyval``, the truncated Poisson kernel,
Abel values at arbitrary angles by the dense mode matrix, the inverse of
``ssf_from_moments``, a trace-norm bound for the dilation difference, one
value of the disc quadrature, eigenpairs and defects of a bare matrix,
the dilation's window as one dense array and its walk with every block formed,
``apply_series`` by plain Horner, both evaluators on one operator with its own
powers, which the power table must match bit for bit, pairs whose moments are
known exactly, with those moments, and the exact moments and trace differences of
any pair of dyadic entries.
"""

import math
from fractions import Fraction

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


def per_operator_series(phi: LaurentSeries, T) -> np.ndarray:
    """``calculus.apply_series`` on one operator with its own babies: T^1..T^s,
    s = isqrt(K), each the one before times T, and Horner in T^s over blocks of s
    coefficients."""
    T = np.asarray(T, dtype=complex)
    a, K, d = phi.coeffs[phi.order:], phi.order, len(T)
    s = max(math.isqrt(K), 1)
    babies = [T]
    while len(babies) < s:
        babies.append(babies[-1] @ T)
    babies = np.array(babies)
    acc = None
    top = max(K - 1, 0) // s
    for j in range(top, -1, -1):
        block = a[j * s:] if j == top else a[j * s:(j + 1) * s]
        poly = (block[1:] @ babies[:len(block) - 1].reshape(-1, d * d)).reshape(d, d)
        poly.flat[::d + 1] += block[0]
        acc = poly if acc is None else acc @ babies[-1] + poly
    return acc


def per_operator_laurent(psi: LaurentSeries, T) -> np.ndarray:
    """``calculus.apply_laurent`` on one operator by the power loop P = P T from
    P = I."""
    T = np.asarray(T, dtype=complex)
    eye = np.eye(len(T), dtype=complex)
    acc = psi.coeff(0) * eye
    P = eye
    for n in range(1, psi.order + 1):
        P = P @ T
        acc = acc + psi.coeff(-n) * P.conj().T + psi.coeff(n) * P
    return acc


def horner(phi: LaurentSeries, T) -> np.ndarray:
    """sum a_k T^k over a_0..a_K by Horner, K products."""
    T = np.asarray(T, dtype=complex)
    eye = np.eye(len(T), dtype=complex)
    coeffs = phi.coeffs[phi.order:]
    acc = coeffs[-1] * eye
    for a in coeffs[-2::-1]:
        acc = acc @ T + a * eye
    return acc


def sylvester_hadamard(d: int) -> np.ndarray:
    """The d x d Sylvester-Hadamard matrix, d a power of two: H H^T = d I."""
    if d < 1 or d & (d - 1):
        raise ValueError(f"d must be a power of two, got {d}")
    H = np.ones((1, 1))
    while len(H) < d:
        H = np.block([[H, H], [H, -H]])
    return H


def hadamard_pair(d: int, seed: int):
    """(pair, eig_T, eig_T0) with T = H (D + N) H^T / d, H ``sylvester_hadamard(d)``, D a
    dyadic diagonal (numerators below 2^9 over 2^11, below 2^8 for T0) and N strictly
    upper triangular (numerators below 2^9 over 2^11 d), T0 built the same way.
    H / sqrt(d) is orthogonal, so ||T|| = ||D + N|| (about 0.25, and 0.12 for T0), and
    T is similar to the triangular D + N, whose eigenvalues are D's entries: the pair is
    dense and non-normal with a known spectrum.  Every float entry of T is exact, a
    dyadic of at most 11 + 2 log2(d) bits, as 1/d is a power of two.  Each eig_* lists
    the integers a of the eigenvalues a / 2^11."""
    rng = np.random.default_rng(seed)
    H = sylvester_hadamard(d)
    sides, eigs = [], []
    for bits in (9, 8):
        a = rng.integers(-2 ** bits + 1, 2 ** bits, d)
        N = np.triu(rng.integers(-2 ** 9 + 1, 2 ** 9, (d, d)), 1)
        sides.append(H @ (np.diag(a) / 2.0 ** 11 + N / (2.0 ** 11 * d)) @ H.T / d)
        eigs.append(a.tolist())
    return linops.make_pair(*sides), eigs[0], eigs[1]


def exact_moments(eig_T, eig_T0, n_max: int) -> list:
    """sum lambda^n - sum mu^n, n = 1..n_max, as ``Fraction``s, from the eigenvalues
    a / 2^11 of ``hadamard_pair``: the powers a^n summed in integers, over 2^(11 n)."""
    return [Fraction(sum(a ** n for a in eig_T) - sum(b ** n for b in eig_T0), 2 ** (11 * n))
            for n in range(1, n_max + 1)]


DYADIC_BITS = 12


def _gaussian_integers(M) -> list:
    """2^12 M as rows of (re, im) int pairs; AssertionError unless every part of every
    entry of M is a dyadic k / 2^12."""
    rows = []
    for row in np.asarray(M, dtype=complex).tolist():
        scaled = [(Fraction(z.real) * 2 ** DYADIC_BITS, Fraction(z.imag) * 2 ** DYADIC_BITS)
                  for z in row]
        assert all(part.denominator == 1 for entry in scaled for part in entry)
        rows.append([(int(re), int(im)) for re, im in scaled])
    return rows


def exact_moments_general(T, T0, n_max: int) -> list:
    """Tr T^n - Tr T0^n, n = 1..n_max, as (re, im) ``Fraction`` pairs, for square T and
    T0 of dyadic entries k / 2^12: the powers of the Gaussian-integer matrices 2^12 T
    and 2^12 T0 by plain integer loops, each trace over 2^(12 n)."""
    traces = []
    for M in (T, T0):
        A = _gaussian_integers(M)
        P, side = A, []
        for n in range(1, n_max + 1):
            if n > 1:
                P = [[(sum(p[0] * a[0] - p[1] * a[1] for p, a in zip(row, col)),
                       sum(p[0] * a[1] + p[1] * a[0] for p, a in zip(row, col)))
                      for col in zip(*A)] for row in P]
            side.append((sum(P[i][i][0] for i in range(len(P))),
                         sum(P[i][i][1] for i in range(len(P)))))
        traces.append(side)
    return [(Fraction(a[0] - b[0], 2 ** (DYADIC_BITS * n)),
             Fraction(a[1] - b[1], 2 ** (DYADIC_BITS * n)))
            for n, (a, b) in enumerate(zip(*traces), start=1)]


def exact_trace_difference(T, T0, phi: dict) -> tuple:
    """Tr(phi~(T, T*) - phi~(T0, T0*)) as an (re, im) ``Fraction`` pair, for the table
    phi = {n: phi_hat(n)} of float coefficients, each read exactly, and T, T0 of
    ``exact_moments_general``: sum phi_hat(n) m_n + phi_hat(-n) conj(m_n) over n >= 1,
    as Tr (T*)^n is conj Tr T^n and phi_hat(0) I cancels."""
    m = exact_moments_general(T, T0, max(abs(n) for n in phi))
    re = im = Fraction(0)
    for n, a in phi.items():
        if n == 0:
            continue
        m_re, m_im = m[abs(n) - 1]
        m_im = m_im if n > 0 else -m_im
        a_re, a_im = Fraction(complex(a).real), Fraction(complex(a).imag)
        re += a_re * m_re - a_im * m_im
        im += a_re * m_im + a_im * m_re
    return re, im
