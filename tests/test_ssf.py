"""Shift-function reconstruction from moments and its invariants."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import (dense_window, evaluate_ssf_grid, exact_moments, exact_moments_general,
                     exact_trace_difference, hadamard_pair, moments_from_ssf, poisson_extend,
                     sylvester_hadamard)
from pairs import pair_powers, pair_stack, random_pairs, scalar_pair
from ssftrace import calculus, checks, linops, ssf
from ssftrace.errors import NonRealResultError


def test_moments_equal_pair():
    pair = scalar_pair(0.5, 0.5)
    m = ssf.moments(pair, 8)
    np.testing.assert_allclose(m, 0.0)


def fsum_moments(diagonals):
    """One fsum of both diagonals per moment, Tr(T^n) terms minus Tr(T0^n) terms."""
    return np.array([complex(math.fsum(terms.real), math.fsum(terms.imag))
                     for terms in (np.concatenate([dT, -dT0]) for dT, dT0 in diagonals)])


def schedule_moments(pair, n_max, skip=None):
    """The baby-step/giant-step schedule restated: babies S^1..S^s of S = (T, T0),
    s = isqrt(n_max), giants S^(ks), and the diagonal of S^(ks + r) as row dots of
    the giant with baby r.  ``skip`` = k leaves out the step to the giant S^(ks), so
    that giant and every later one come out one S^s short."""
    s = math.isqrt(n_max)
    S = np.stack([pair.T, pair.T0])
    babies = [S]
    while len(babies) < s:
        babies.append(babies[-1] @ S)
    babies = np.array(babies)
    diagonals = list(np.diagonal(babies, axis1=2, axis2=3))
    giant = babies[-1]
    for k in range(1, (n_max - 1) // s + 1):
        if 1 < k != skip:
            giant = giant @ babies[-1]
        width = min(s, n_max - k * s)
        diagonals += list(np.einsum('kij,rkji->rki', giant, babies[:width]))
    return fsum_moments(diagonals)


def power_loop_moments(pair, n_max):
    """The moments from the plain power loop T^n = T^(n-1) T."""
    PT, P0 = pair.T, pair.T0
    diagonals = []
    for _ in range(n_max):
        diagonals.append((np.diagonal(PT), np.diagonal(P0)))
        PT, P0 = PT @ pair.T, P0 @ pair.T0
    return fsum_moments(diagonals)


N_MAX_SCHEDULES = (1, 2, 3, 4, 15, 16, 17, 40, 64, 127)


def test_moments_equal_the_schedule_bit_for_bit():
    # the schedule's product order pins every bit; 1..4 and 15..17 cross a square
    for pair in random_pairs(4, seed=706, dims=(1, 3, 8, 17)):
        for n_max in N_MAX_SCHEDULES:
            assert ssf.moments(pair, n_max).tobytes() == \
                schedule_moments(pair, n_max).tobytes(), (pair.dim, n_max)


def test_moments_near_the_power_loop():
    # a priori: each computed power is off by at most ~ n d u ||T||^n per trace
    u = 2.0 ** -53
    for pair in random_pairs(4, seed=706, dims=(1, 3, 8, 17)):
        norm_T, norm_T0 = np.linalg.norm(pair.T, 2), np.linalg.norm(pair.T0, 2)
        m, ref = ssf.moments(pair, 127), power_loop_moments(pair, 127)
        n = np.arange(1, 128)
        bound = 64 * u * n * pair.dim * (norm_T ** n + norm_T0 ** n)
        assert np.all(np.abs(m - ref) <= bound)


def exact_errors(m, exact):
    """max |m_n - exact_n| over the real and imaginary parts, each difference taken
    exactly; the exact moments of a real pair are real."""
    return max(max(abs(Fraction(v.real) - e), abs(Fraction(v.imag))) for v, e in zip(m, exact))


@pytest.mark.parametrize("d", [16, 64])
def test_moments_match_exact_hadamard_moments(d):
    # every entry of T is exact, the spectrum is known, so m_n = sum a^n / 2^(11n) -
    # sum b^n / 2^(11n) exactly; ||T|| ~ 0.25 keeps every moment's roundoff near 1e-19.
    # n_max = 64 takes s = 8 and giants from S^16 on, so a wrong giant shows from m_16
    pair, eig_T, eig_T0 = hadamard_pair(d, seed=d)
    # H^T T H / d is upper triangular with the listed eigenvalues on its diagonal; its
    # entries are dyadics of at most 11 + 4 log2(d) bits, so the floats hold it exactly
    H = sylvester_hadamard(d)
    for M, eig in ((pair.T, eig_T), (pair.T0, eig_T0)):
        back = H.T @ M @ H / d
        assert not np.tril(back, -1).any()
        assert np.array_equal(np.diagonal(back), np.array(eig) / 2.0 ** 11)
    exact = exact_moments(eig_T, eig_T0, 64)
    assert exact_errors(ssf.moments(pair, 64), exact) <= 1e-18
    assert exact_errors(schedule_moments(pair, 64), exact) <= 1e-18
    # a schedule one giant step short fails the same pin
    assert exact_errors(schedule_moments(pair, 64, skip=2), exact) > 1e-9


def dyadic_pair(d: int, seed: int):
    """(T, T0) of entries k / 2^12, k a Gaussian integer whose parts lie within
    0.45 * 2^12 / sqrt(d): dense, non-normal, of norm about 0.5 to 0.7."""
    rng = np.random.default_rng(seed)
    K = int(0.45 * 2 ** 12 / math.sqrt(d))
    return [(rng.integers(-K, K + 1, (d, d)) + 1j * rng.integers(-K, K + 1, (d, d))) / 2 ** 12
            for _ in range(2)]


def a_priori(pair):
    """n -> 64 n d u (||T||^n + ||T0||^n), the a priori error of the n-th power's trace
    that test_moments_near_the_power_loop bounds, a constant (n = 0) taken as one
    rounding."""
    norms = np.linalg.norm(pair.T, 2), np.linalg.norm(pair.T0, 2)

    def bound(n):
        n = max(abs(n), 1)
        return 64 * 2.0 ** -53 * n * pair.dim * (norms[0] ** n + norms[1] ** n)
    return bound


def exact_error(value, exact):
    return math.hypot(Fraction(value.real) - exact[0], Fraction(value.imag) - exact[1])


def assert_left_sides_exact(pair, exact_value):
    """The circle left side of every ``CIRCLE_SERIES`` symbol and the trace of every
    ``DISC_TABLES`` table within ``a_priori`` summed over the terms, against
    ``exact_value(terms)``, an (re, im) ``Fraction`` pair."""
    bound = a_priori(pair)
    left_sides = [(calculus.trace_lhs_circle, pair_powers(pair), terms)
                  for terms in checks.CIRCLE_SERIES.values()]
    left_sides += [(calculus.laurent_difference_trace, pair_stack(pair), terms)
                   for terms in checks.DISC_TABLES.values()]
    for left_side, operand, terms in left_sides:
        lhs = left_side(operand, ssf.LaurentSeries.from_terms(terms))
        assert exact_error(lhs, exact_value(terms)) <= sum(
            abs(a) * bound(n) for n, a in terms.items()), terms


@pytest.mark.parametrize("d", [16, 64])
def test_left_sides_match_exact_hadamard_values(d):
    # the exact moments m_n of the Hadamard pair are real, so Tr (T*)^n - Tr (T0*)^n =
    # conj(m_n) = m_n, and each left side is sum over its modes n != 0 of phi_hat(n) m_|n|
    pair, eig_T, eig_T0 = hadamard_pair(d, seed=d)
    m = exact_moments(eig_T, eig_T0, max(checks.CIRCLE_ORDER, checks.DISC_MAX_ORDER))

    def exact_value(terms):
        scaled = [(complex(a), m[abs(n) - 1]) for n, a in terms.items() if n]
        return (sum(Fraction(a.real) * m_n for a, m_n in scaled),
                sum(Fraction(a.imag) * m_n for a, m_n in scaled))

    assert_left_sides_exact(pair, exact_value)


@pytest.mark.parametrize("d", [2, 4, 6])
def test_moments_and_left_sides_match_exact_general_pairs(d):
    # exact references by integer loops, free of ssf and calculus
    T, T0 = dyadic_pair(d, seed=d)
    pair = linops.make_pair(T, T0)
    assert np.array_equal(pair.T, T) and np.array_equal(pair.T0, T0)
    assert max(np.linalg.norm(T, 2), np.linalg.norm(T0, 2)) <= 0.9
    bound = a_priori(pair)
    exact = exact_moments_general(T, T0, 30)
    for n, (m, m_exact) in enumerate(zip(ssf.moments(pair, 30), exact), start=1):
        assert exact_error(m, m_exact) <= bound(n)
    assert_left_sides_exact(pair, lambda terms: exact_trace_difference(T, T0, terms))


SUM2_WIDTHS = (1, 2, 6, 16, 64, 256)


@pytest.mark.parametrize("w", SUM2_WIDTHS)
def test_sum2_within_its_error_bound(w):
    # Ogita, Rump & Oishi (SIAM J. Sci. Comput. 26(6), 2005), Proposition 4.5: Sum2 of
    # p_1..p_w returns res with |res - S| <= u |S| + gamma_(w-1)^2 sum |p_i|, where
    # S = sum p_i and gamma_n = n u / (1 - n u).  The pairwise tree transforms the sum
    # without error too, S = s + sum q_i, with sum |q_i| <= gamma_ceil(log2 w) sum |p_i|
    # <= gamma_(w-1) sum |p_i|, and w - 1 errors summed in any order err by at most
    # gamma_(w-2) sum |q_i|, so the same bound holds
    u = Fraction(1, 2 ** 53)

    def gamma(n):
        return n * u / (1 - n * u)

    rng = np.random.default_rng(900 + w)
    k = 40
    top = rng.standard_normal((w - w // 2, k)) * 10.0 ** rng.integers(-8, 9, (w - w // 2, k))
    # the lower half cancels the upper half up to a relative 1e-12 and a small term, its
    # rows reversed, so that cancelling terms meet only near the top of the tree
    low = -top[w // 2 - 1::-1] * (1.0 + 1e-12 * rng.standard_normal((w // 2, k))) \
        + 1e-20 * rng.standard_normal((w // 2, k))
    terms = np.concatenate([top, low])
    before = terms.copy()
    sums = ssf._sum2(terms)
    assert np.array_equal(terms, before)
    for j in range(k):
        p = [Fraction(x) for x in terms[:, j].tolist()]
        S = sum(p)
        assert abs(Fraction(sums[j]) - S) <= u * abs(S) + gamma(w - 1) ** 2 * sum(map(abs, p))


def test_moments_scalar():
    m = ssf.moments(scalar_pair(0.5, 0.25), 3)
    np.testing.assert_allclose(m, [0.25, 0.1875, 0.109375])


def test_moments_telescoping_bound():
    for pair in random_pairs(10, seed=500):
        m = ssf.moments(pair, 32)
        tn = linops.trace_norm(pair.T - pair.T0)
        rho = max(pair.cert_T.operator_norm, pair.cert_T0.operator_norm)
        for n in range(1, 33):
            assert abs(m[n - 1]) <= n * tn * rho ** (n - 1) + 1e-12


def test_moments_match_dilation_route():
    pair = random_pairs(1, seed=501, dims=(8,))[0]
    m = ssf.moments(pair, 6)
    WT, W0 = dense_window(pair.T, 6), dense_window(pair.T0, 6)
    for n in range(1, 7):
        rhs = np.trace(np.linalg.matrix_power(WT, n) - np.linalg.matrix_power(W0, n))
        assert abs(m[n - 1] - rhs) <= 1e-9


class TestCoefficients:
    def test_zero_moments(self):
        s = ssf.ssf_from_moments(ssf.moments(scalar_pair(0.3, 0.3), 16))
        np.testing.assert_allclose(s.coeffs, 0.0)

    def test_scalar_first_coefficient(self):
        s = ssf.ssf_from_moments(ssf.moments(scalar_pair(0.5, 0.25), 4))
        assert s.coeff(-1) == pytest.approx(0.25 / (2j * np.pi))

    def test_round_trip(self):
        pair = random_pairs(1, seed=502, dims=(6,))[0]
        m = ssf.moments(pair, 24)
        back = moments_from_ssf(ssf.ssf_from_moments(m))
        np.testing.assert_allclose(back, m, atol=1e-12)

    def test_conjugate_symmetry_and_zero_constant(self):
        pair = random_pairs(1, seed=503, dims=(6,))[0]
        s = ssf.ssf_from_moments(ssf.moments(pair, 16))
        assert s.coeff(0) == 0.0
        for n in range(1, 17):
            assert s.coeff(-n) == pytest.approx(np.conj(s.coeff(n)), abs=1e-15)

    def test_coefficient_bound(self):
        for pair in random_pairs(8, seed=504):
            s = ssf.ssf_from_moments(ssf.moments(pair, 32))
            bound = linops.trace_norm(pair.T - pair.T0) / (2.0 * np.pi)
            for n in range(1, 33):
                assert abs(s.coeff(n)) <= bound + 1e-12

    def test_geometric_decay_slope(self):
        # normal pair so moment decay tracks the operator norm exactly
        pair = linops.make_pair(np.diag([0.7, 0.3]), np.diag([0.4, 0.2]))
        s = ssf.ssf_from_moments(ssf.moments(pair, 64))
        ns = np.arange(32, 65)
        logs = np.log([abs(s.coeff(int(n))) for n in ns])
        slope = np.polyfit(ns, logs, 1)[0]
        assert slope == pytest.approx(np.log(0.7), rel=0.1)


class TestEvaluate:
    def test_zero_table(self):
        s = ssf.LaurentSeries(coeffs=np.zeros(9, dtype=complex))
        assert not ssf.evaluate_ssf_uniform(s, 7, 0.9).any()

    def test_single_pair_identity(self):
        c = -1j / (4.0 * np.pi)
        coeffs = np.zeros(3, dtype=complex)
        coeffs[0] = np.conj(c)
        coeffs[2] = c
        s = ssf.LaurentSeries(coeffs=coeffs)
        r = 0.8
        t = 2.0 * np.pi * np.arange(9) / 9
        expected = 2.0 * (c * r * np.exp(1j * t)).real
        np.testing.assert_allclose(ssf.evaluate_ssf_uniform(s, 9, r), expected,
                                   rtol=0, atol=1e-14)

    def test_matches_poisson_extension(self):
        s = ssf.ssf_from_moments(ssf.moments(scalar_pair(0.9, 0.5), 128))
        r = 0.99
        ts = 2.0 * np.pi * np.arange(256) / 256
        vals = ssf.evaluate_ssf_uniform(s, 256, r)
        for t, v in zip(ts[::16], vals[::16]):
            w = poisson_extend(s, r * np.exp(1j * t))
            assert v == pytest.approx(w.real, abs=1e-12)

    @pytest.mark.parametrize("M", [4096, 256, 16])
    def test_uniform_matches_dense(self, M):
        # orders 64 and 200: 2K + 1 exceeds M = 16 and M = 256, so the
        # FFT route folds modes instead of truncating them
        pair = random_pairs(1, seed=620, dims=(6,))[0]
        t = 2.0 * np.pi * np.arange(M) / M
        for order in (64, 200):
            s = ssf.ssf_from_moments(ssf.moments(pair, order))
            np.testing.assert_allclose(ssf.evaluate_ssf_uniform(s, M, 0.999),
                                       evaluate_ssf_grid(s, t, 0.999),
                                       rtol=0, atol=1e-13)

    @pytest.mark.parametrize("M", [256, 1024, 4096])
    def test_distinct_modes_match_the_scatter_add_bit_for_bit(self, M):
        # a mode range no longer than M folds by assignment; the reference adds
        # into the grid and scales the normalized inverse FFT back by M
        def scatter_add(n, c):
            folded = np.zeros((*c.shape[:-1], M), dtype=complex)
            np.add.at(folded, (..., n % M), c)
            return M * np.fft.ifft(folded)

        rng = np.random.default_rng(621)
        for n in (np.arange(-64, 65), np.arange(0, 30), np.arange(0, -30, -1),
                  np.arange(-(M // 2), M // 2)):
            c = rng.standard_normal((3, 5, len(n))) + 1j * rng.standard_normal((3, 5, len(n)))
            for table in (c, c[0, 0]):
                assert ssf.uniform_trig_values(n, table, M).tobytes() == \
                    scatter_add(n, table).tobytes()

    def test_non_real_rejected(self):
        coeffs = np.zeros(5, dtype=complex)
        coeffs[3] = 1.0  # n=1 without its conjugate partner
        s = ssf.LaurentSeries(coeffs=coeffs)
        with pytest.raises(NonRealResultError):
            ssf.evaluate_ssf_uniform(s, 16, 0.9)

    def test_bad_radius(self):
        s = ssf.LaurentSeries(coeffs=np.zeros(3, dtype=complex))
        for r in (0.0, 1.0):
            with pytest.raises(ValueError):
                ssf.evaluate_ssf_uniform(s, 16, r)


def test_constant_shift_moves_values_not_pairing():
    pair = random_pairs(1, seed=505, dims=(6,))[0]
    s = ssf.ssf_from_moments(ssf.moments(pair, 16))
    shifted = s.with_constant(2.5)
    gap = ssf.evaluate_ssf_uniform(shifted, 16, 0.9) - ssf.evaluate_ssf_uniform(s, 16, 0.9)
    np.testing.assert_allclose(gap, 2.5, rtol=0, atol=1e-12)
    np.testing.assert_allclose(moments_from_ssf(shifted),
                               moments_from_ssf(s))

