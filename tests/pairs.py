"""Shared random-instance generators for the test suite."""

import numpy as np

from ssftrace import linops


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


def scalar_pair(t, t0):
    return linops.make_pair(np.array([[t]], dtype=complex),
                            np.array([[t0]], dtype=complex))
