"""Shared random-instance generators for the test suite."""

import numpy as np
from hypothesis import strategies as st

from ssftrace import calculus, checks, linops


def random_pairs(count, seed, dims=(2, 4, 6, 8), delta=0.3, perturbation=0.1):
    """Deterministic list of contraction pairs cycling through dims."""
    return [
        linops.random_pair(dims[i % len(dims)], delta, perturbation, seed=seed + i)
        for i in range(count)
    ]


def random_strict_pair(dim, norm_t, norm_t0, seed):
    """Pair with both contractions strict, at prescribed operator norms."""
    rng = np.random.default_rng(seed)
    T = linops.random_contraction(dim, norm_t, rng)
    T0 = linops.random_contraction(dim, norm_t0, rng)
    return linops.make_pair(T, T0)


def random_positive_contraction(dim, eig_min, eig_max, rng):
    """Random Hermitian matrix with eigenvalues uniform in [eig_min, eig_max]."""
    Q, _ = np.linalg.qr(linops.ginibre(rng, dim))
    w = rng.uniform(eig_min, eig_max, dim)
    A = (Q * w) @ Q.conj().T
    return (A + A.conj().T) / 2.0


def random_positive_pair(dim, delta_b, seed):
    """Hermitian positive contractions (A, B) with B bounded below by delta_b."""
    rng = np.random.default_rng(seed)
    A = random_positive_contraction(dim, 0.0, 1.0, rng)
    B = random_positive_contraction(dim, delta_b, 1.0, rng)
    return A, B


NORM_ONE_IDS = ("unitary_d4", "half_isometry_d16", "half_isometry_d64")


def norm_one_pairs():
    """Pairs with ||T|| = 1, the paper's minimal hypothesis (only T0 strict):
    a unitary T against T0 = I/2 at d = 4, and T = Q diag(1, ..., 1, 0.2..0.9)
    (half its singular values 1) against a random T0 of norm 0.75 at d = 16, 64."""
    rng = np.random.default_rng(2024)
    Q, _ = np.linalg.qr(linops.ginibre(rng, 4))
    pairs = [linops.make_pair(Q, 0.5 * np.eye(4))]
    for d in (16, 64):
        Q, _ = np.linalg.qr(linops.ginibre(rng, d))
        s = np.concatenate([np.ones(d // 2), np.linspace(0.2, 0.9, d - d // 2)])
        pairs.append(linops.make_pair(Q * s, linops.random_contraction(d, 0.75, rng)))
    return pairs


def report_pairs():
    """The fixed pairs that scripts/diff_reports.py compares two trees on, by id:
    random_pair(d, 0.25, 0.1, s) for d in {4, 6, 8, 32, 128} and s in 0..3, and the
    three ``norm_one_pairs``."""
    pairs = {f"random_d{d}_s{s}": linops.random_pair(d, 0.25, 0.1, seed=s)
             for d in (4, 6, 8, 32, 128) for s in range(4)}
    pairs.update(zip(NORM_ONE_IDS, norm_one_pairs()))
    return pairs


def scalar_pair(t, t0):
    return linops.make_pair(np.array([[t]], dtype=complex),
                            np.array([[t0]], dtype=complex))


def _unitary(rng, dim):
    Q, _ = np.linalg.qr(linops.ginibre(rng, dim))
    return Q


def _to_norm(M, norm):
    """M rescaled to operator norm ``norm``; a zero M stays zero."""
    size = float(np.linalg.norm(M, 2))
    return M * (norm / size) if size > 0.0 else M


def _blocks(sizes, block):
    """Block-diagonal matrix of ``block(k)`` for each size k."""
    M = np.zeros((sum(sizes),) * 2, dtype=complex)
    start = 0
    for k in sizes:
        M[start:start + k, start:start + k] = block(k)
        start += k
    return M


def _partition(draw, dim):
    """Sizes of a partition of ``dim`` into blocks."""
    sizes = []
    while sum(sizes) < dim:
        sizes.append(draw(st.integers(1, dim - sum(sizes))))
    return sizes


SIDE_KINDS = ("ginibre", "jordan", "shift", "partial_isometry", "diagonal_unitary",
              "scaled_identity")


@st.composite
def _side(draw, rng, dim, other=None):
    """One contraction of a drawn kind, or a copy of ``other`` when given; its bulk
    entries come from ``rng``."""
    kind = draw(st.sampled_from(SIDE_KINDS + ("copy",) * (other is not None)))
    if kind == "copy":
        return other.copy()
    if kind == "ginibre":
        return _to_norm(linops.ginibre(rng, dim), draw(st.floats(0.0, 1.0)))
    if kind == "jordan":
        # one eigenvalue per block, the whole matrix at a drawn norm
        def jordan(k):
            eigenvalue = rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            return eigenvalue * np.eye(k) + np.eye(k, k=-1)
        return _to_norm(_blocks(_partition(draw, dim), jordan), draw(st.floats(0.0, 1.0)))
    if kind == "shift":
        # shift blocks, or their adjoints
        S = _blocks(_partition(draw, dim), lambda k: np.eye(k, k=-1))
        return S if draw(st.booleans()) else S.T.copy()
    if kind == "partial_isometry":
        rank = draw(st.integers(0, dim))
        return _unitary(rng, dim)[:, :rank] @ _unitary(rng, dim)[:, :rank].conj().T
    if kind == "diagonal_unitary":
        return np.diag(np.exp(2j * np.pi * rng.uniform(size=dim)))
    scale = draw(st.floats(0.0, 1.0)) * np.exp(2j * np.pi * draw(st.floats(0.0, 1.0)))
    return scale * np.eye(dim, dtype=complex)


@st.composite
def pair_space(draw):
    """Matrices (T, T0) of one dimension in 1..12, each side a Ginibre matrix at a norm
    in [0, 1], Jordan or shift blocks, a partial isometry, a diagonal unitary, a scaled
    identity, or a copy of the other side.  ``make_pair`` may refuse a draw."""
    dim = draw(st.integers(1, 12))
    # one generator for both sides, so that two sides of one kind differ
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = draw(_side(rng, dim))
    B = draw(_side(rng, dim, A))
    return (A, B) if draw(st.booleans()) else (B, A)


def pair_powers(pair, s=None):
    """``calculus.power_table`` of the stacked pair (T, T0): S^1..S^s, by default to the
    order ``checks.run`` builds for the circle and disc suites."""
    s = max(checks.TABLE_ORDERS.values()) if s is None else s
    return calculus.power_table(np.stack((pair.T, pair.T0)), s)
