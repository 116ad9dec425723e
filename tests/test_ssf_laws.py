"""Symmetry laws of the shift function over the drawn pair space.

Each law is read off what ``ssftrace ssf`` writes, the Abel-summed values on
the uniform grid t_j = 2*pi*j/M, at the command's defaults.  Both hold
exactly (Birman & Pushnitski, Integral Equations Operator Theory 30, 1998;
Yafaev, Mathematical Scattering Theory, AMS 1992, ch. 8):

- rotation: xi of (e^(i theta) T, e^(i theta) T0) at t is xi at t - theta, so
  for theta = 2*pi*k/M the grid is rolled by k;
- adjoint: xi of (T*, T0*) at t is -xi at -t, the grid read backwards from j = 0;
- unitary invariance: xi of (Q T Q*, Q T0 Q*) is xi, Q unitary;
- direct sum: xi of (T + S, T0 + S), S strict on a space of its own, is xi;
- chain additivity: xi of (T, T1) plus xi of (T1, T0) is xi of (T, T0), T1 strict.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pairs import pair_space
from ssftrace import calculus, checks, disc, linops, ssf
from ssftrace.errors import SsftraceError

N_MAX, M, ABEL_RADIUS = 64, 256, 0.99  # the defaults of ``ssftrace ssf``
LAW_TOL = 1e-12
LAWS = settings(derandomize=True, max_examples=150, deadline=None)
exact_trig_values = ssf.uniform_trig_values


def values(T, T0):
    """xi's values on the grid of M points, as ``ssftrace ssf`` writes them, or None
    where ``make_pair`` refuses the pair."""
    try:
        pair = linops.make_pair(T, T0)
    except SsftraceError:
        return None
    table = ssf.ssf_from_moments(ssf.moments(pair, N_MAX))
    return ssf.evaluate_ssf_uniform(table, M, ABEL_RADIUS)


def rotation_gap(T, T0, k) -> float:
    """Largest gap between xi of the pair rotated by 2*pi*k/M and xi's grid rolled by k."""
    rotation = np.exp(2j * np.pi * k / M)
    xi, rotated = values(T, T0), values(rotation * T, rotation * T0)
    return 0.0 if xi is None else float(np.abs(rotated - np.roll(xi, k)).max())


def adjoint_gap(T, T0) -> float:
    """Largest gap between xi of (T*, T0*) and -xi at -t."""
    xi, adjoint = values(T, T0), values(T.conj().T, T0.conj().T)
    return 0.0 if xi is None else float(np.abs(adjoint + np.roll(xi[::-1], 1)).max())


@LAWS
@given(pair_space(), st.integers(1, M - 1))
def test_rotation_rolls_the_grid(matrices, k):
    assert rotation_gap(*matrices, k) <= LAW_TOL


@LAWS
@given(pair_space())
def test_adjoint_mirrors_and_negates(matrices):
    assert adjoint_gap(*matrices) <= LAW_TOL


def strict(dim, norm, seed):
    """A Ginibre matrix of operator norm ``norm`` < 1, from the generator ``seed``."""
    return linops.random_contraction(dim, norm, np.random.default_rng(seed))


strict_norms, seeds = st.floats(0.0, 0.99), st.integers(0, 2 ** 32 - 1)


def unitary_gap(T, T0, seed) -> float:
    """Largest gap between xi of (Q T Q*, Q T0 Q*) and xi, Q a unitary from ``seed``."""
    Q, _ = np.linalg.qr(linops.ginibre(np.random.default_rng(seed), len(T)))
    xi = values(T, T0)
    if xi is None:
        return 0.0
    return float(np.abs(values(Q @ T @ Q.conj().T, Q @ T0 @ Q.conj().T) - xi).max())


def direct_sum_gap(T, T0, S) -> float:
    """Largest gap between xi of (T + S, T0 + S), S on a space of its own, and xi."""
    def plus_S(A):
        out = np.zeros((len(A) + len(S),) * 2, dtype=complex)
        out[:len(A), :len(A)], out[len(A):, len(A):] = A, S
        return out
    xi = values(T, T0)
    return 0.0 if xi is None else float(np.abs(values(plus_S(T), plus_S(T0)) - xi).max())


def chain_gap(T, T0, T1) -> float:
    """Largest gap between xi of (T, T1) plus xi of (T1, T0) and xi of (T, T0)."""
    xi = values(T, T0)
    return 0.0 if xi is None else float(np.abs(values(T, T1) + values(T1, T0) - xi).max())


@LAWS
@given(pair_space(), seeds)
def test_unitary_conjugation_leaves_xi(matrices, seed):
    assert unitary_gap(*matrices, seed) <= LAW_TOL


@LAWS
@given(pair_space(), st.integers(1, 6), strict_norms, seeds)
def test_direct_sum_with_a_strict_block_leaves_xi(matrices, dim, norm, seed):
    assert direct_sum_gap(*matrices, strict(dim, norm, seed)) <= LAW_TOL


@LAWS
@given(pair_space(), strict_norms, seeds)
def test_chain_adds(matrices, norm, seed):
    T, T0 = matrices
    assert chain_gap(T, T0, strict(len(T), norm, seed)) <= LAW_TOL


def mirrored_trig_values(n, c, M):
    """ssf.uniform_trig_values read at -t: sum_k c_k e^(-i n_k t_j)."""
    return exact_trig_values(-n, c, M)


def test_mirrored_grid_passes_every_row_and_fails_rotation(monkeypatch):
    # the circle quadrature and the disc Jacobian pair two grids mirrored alike,
    # so no row sees the mirror; the rotation law does
    pair = linops.random_pair(16, 0.25, 0.1, seed=1)
    T, T0, quarter = pair.T, pair.T0, M // 4
    assert rotation_gap(T, T0, quarter) <= LAW_TOL
    for module in (ssf, calculus, disc):
        monkeypatch.setattr(module, "uniform_trig_values", mirrored_trig_values)
    results, _ = checks.run(pair, checks.SUITES)
    assert [c.name for c in results if not c.passed] == []
    assert rotation_gap(T, T0, quarter) > 1e-3
