"""Functional calculus tables and both sides of the circle trace formula.

The circle pairing 2*pi*i sum k a_k xi_hat(-k) is the disc closed form at R = 1.
"""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import horner, per_operator_laurent, per_operator_series
from pairs import (NORM_ONE_IDS, norm_one_pairs, pair_powers, pair_stack, random_pairs,
                   scalar_pair)
from ssftrace import calculus, checks, disc, linops, ssf
from ssftrace.calculus import LaurentSeries
from ssftrace.errors import InsufficientCoefficientsError, NonRealResultError

EXP_SERIES = LaurentSeries.from_terms(
    {k: 1.0 / math.factorial(k) for k in range(21)})


def pairing(s, phi):
    return disc.disc_integral_closed_form(s, phi, 1.0)


class TestApplySeries:
    def test_constant(self):
        phi = LaurentSeries.from_terms({0: 1.0})
        powers = calculus.power_table(np.zeros((3, 3)), 1)
        np.testing.assert_allclose(calculus.apply_series(phi, powers), np.eye(3))

    def test_identity_symbol(self):
        phi = LaurentSeries.from_terms({1: 1.0})
        T = np.array([[0.2, 0.1], [0.0, 0.3]])
        np.testing.assert_allclose(calculus.apply_series(phi, calculus.power_table(T, 1)), T)

    def test_exponential_oracle(self):
        T = np.diag([0.5, -0.3])
        out = calculus.apply_series(EXP_SERIES, calculus.power_table(T, 4))
        np.testing.assert_allclose(out, np.diag([np.exp(0.5), np.exp(-0.3)]),
                                   atol=1e-12)

    @pytest.mark.parametrize("K", range(41))
    def test_matches_horner(self, K):
        # degrees 0 and 1 take no giant step; 4, 9, 16, 25 and 36 end a block exactly
        rng = np.random.default_rng(600 + K)
        T = linops.random_contraction(6, 0.95, rng)
        a = rng.standard_normal(K + 1) + 1j * rng.standard_normal(K + 1)
        phi = LaurentSeries.from_terms(dict(enumerate(a)))
        ref = horner(phi, T)
        out = calculus.apply_series(phi, calculus.power_table(T, max(math.isqrt(K), 1)))
        assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_rejects_negative_mode(self):
        # the evaluation runs over a_0..a_K only, so a nonzero negative mode would be dropped
        phi = LaurentSeries.from_terms({-1: 0.5, 2: 1.0})
        with pytest.raises(ValueError, match="negative mode"):
            calculus.apply_series(phi, calculus.power_table(np.eye(2), 1))


class TestApplyLaurent:
    def test_constant(self):
        psi = LaurentSeries.from_terms({0: 2.5})
        np.testing.assert_allclose(calculus.apply_laurent(psi, np.zeros((2, 2))), 2.5 * np.eye(2))

    def test_adjoint_mode(self):
        psi = LaurentSeries.from_terms({-1: 1.0})
        T = np.array([[0.1, 0.4], [0.0, 0.2]])
        np.testing.assert_allclose(calculus.apply_laurent(psi, T), T.conj().T)

    def test_symmetric_pair_of_modes(self):
        psi = LaurentSeries.from_terms({1: 1.0, -1: 1.0})
        T = np.array([[0, 1], [0, 0]], dtype=complex)
        np.testing.assert_allclose(calculus.apply_laurent(psi, T), np.array([[0, 1], [1, 0]]))


# diff_reports' random pairs, odd sizes (where a flat gemv over the stacked pair would
# split its columns differently), scalars and the norm-one pairs
FIXED_PAIRS = [
    *((f"random_d{d}_s{seed}", linops.random_pair(d, 0.25, 0.1, seed=seed))
      for d in (4, 6, 8, 32, 128) for seed in range(4)),
    *((f"random_d{d}_s0", linops.random_pair(d, 0.25, 0.1, seed=0)) for d in (1, 5, 17)),
    *zip(NORM_ONE_IDS, norm_one_pairs())]
STACK_SYMBOLS = [LaurentSeries.from_terms(t) for t in (
    *checks.CIRCLE_SERIES.values(), checks.DISC_TABLES["one_sided"], {0: 0.5},
    {1: 1.0, 3: -1.0 / 3.0, 5: 0.2}, {2: 1.0})]
STACK_TABLES = [LaurentSeries.from_terms(t) for t in (
    *checks.DISC_TABLES.values(), {n: 0.5 ** abs(n) * (1 - 0.5j) for n in range(-9, 10)})]


class TestPowerTable:
    @pytest.mark.parametrize("pair_id, pair", FIXED_PAIRS)
    def test_stacked_pair_gives_each_operator_bit_for_bit(self, pair_id, pair):
        # one table of S = (T, T0) for both operators and every symbol, and one running
        # product from S for every table, move no bit of what each operator's own
        # evaluation, with its own powers, gives
        powers = pair_powers(pair)
        for phi in STACK_SYMBOLS:
            both = calculus.apply_series(phi, powers)
            assert [M.tobytes() for M in both] == [
                per_operator_series(phi, M).tobytes() for M in (pair.T, pair.T0)], phi
        for psi in STACK_TABLES:
            both = calculus.apply_laurent(psi, pair_stack(pair))
            assert [M.tobytes() for M in both] == [
                per_operator_laurent(psi, M).tobytes() for M in (pair.T, pair.T0)], psi

    def test_laurent_past_the_table_takes_the_same_products(self):
        # the running product from S gives power_table's powers, read off a table of one
        # mode, and per_operator_laurent's values bit for bit
        psi = STACK_TABLES[-1]
        for _, pair in FIXED_PAIRS[:8]:
            S = pair_stack(pair)
            table = calculus.power_table(S, psi.order)
            for n in range(1, psi.order + 1):
                power = calculus.apply_laurent(LaurentSeries.from_terms({n: 1.0}), S)
                assert power.tobytes() == table[:, n - 1].tobytes(), n
            assert [M.tobytes() for M in calculus.apply_laurent(psi, S)] == [
                per_operator_laurent(psi, M).tobytes() for M in (pair.T, pair.T0)]

    @pytest.mark.parametrize("s", [1, 5])
    def test_order_127_table_memory_at_d128(self, s):
        # a power table of order s held by the caller (5 is the circle suite's
        # checks.TABLE_ORDER) and three more (2, d, d) stacks live at once: the sum, the
        # running power from S and the next one, or one scaled power in its place; the
        # evaluation copies nothing out of the table, and a table of all 127 powers
        # would take 127 stacks
        d = 128
        pair = linops.random_pair(d, 0.25, 0.1, seed=1)
        psi = LaurentSeries.from_terms({n: 0.5 ** abs(n) for n in range(-127, 128)})
        S = pair_stack(pair)
        tracemalloc.start()
        try:
            table = calculus.power_table(S, s)
            calculus.laurent_difference_trace(S, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape[-3] == s
        assert peak < (s + 4) * 2 * d * d * 16

    def test_short_table_refused(self):
        table = calculus.power_table(np.eye(3), 4)
        calculus.apply_series(LaurentSeries.from_terms({24: 1.0}), table)
        with pytest.raises(ValueError, match="reads powers to 5"):
            calculus.apply_series(LaurentSeries.from_terms({25: 1.0}), table)


class TestCircleLhs:
    def test_equal_pair(self):
        phi = LaurentSeries.from_terms({2: 1.0, 5: 0.3})
        assert calculus.trace_lhs_circle(pair_powers(scalar_pair(0.4, 0.4)), phi) == 0.0

    def test_linear_symbol_is_first_moment(self):
        pair = random_pairs(1, seed=600, dims=(5,))[0]
        phi = LaurentSeries.from_terms({1: 1.0})
        m = ssf.moments(pair, 1)
        assert calculus.trace_lhs_circle(pair_powers(pair), phi) == pytest.approx(
            m[0], abs=1e-13)

    def test_scalar_square(self):
        phi = LaurentSeries.from_terms({2: 1.0})
        assert calculus.trace_lhs_circle(pair_powers(scalar_pair(0.5, 0.25)), phi) \
            == pytest.approx(0.1875)

    def test_telescoping_trace_norm_bound(self):
        for pair in random_pairs(6, seed=601):
            for phi in (EXP_SERIES, LaurentSeries.from_terms({3: 1.0, 7: -2.0})):
                lhs, rhs = calculus.laurent_difference_bound(pair_stack(pair), phi)
                assert lhs <= rhs + 1e-10


class TestCircleRhs:
    def test_constant_symbol(self):
        pair = random_pairs(1, seed=602, dims=(4,))[0]
        s = ssf.ssf_from_moments(ssf.moments(pair, 8))
        phi = LaurentSeries.from_terms({0: 3.0})
        assert pairing(s, phi) == 0.0

    def test_linear_symbol(self):
        pair = random_pairs(1, seed=603, dims=(4,))[0]
        m = ssf.moments(pair, 8)
        s = ssf.ssf_from_moments(m)
        phi = LaurentSeries.from_terms({1: 1.0})
        assert pairing(s, phi) == pytest.approx(m[0], abs=1e-14)

    def test_formula_two_routes(self):
        phi = LaurentSeries.from_terms({k: 0.7 ** k / k for k in range(1, 31)})
        for pair in random_pairs(5, seed=604, dims=(8,)):
            s = ssf.ssf_from_moments(ssf.moments(pair, 64))
            lhs = calculus.trace_lhs_circle(pair_powers(pair), phi)
            rhs = pairing(s, phi)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + phi.weighted_norm)

    def test_quadrature_cross_check(self):
        terms = {k: 0.7 ** k / k for k in range(1, 31)}
        phi = LaurentSeries.from_terms(terms)
        pair = random_pairs(1, seed=605, dims=(8,))[0]
        s = ssf.ssf_from_moments(ssf.moments(pair, 64))
        rhs = pairing(s, phi)
        r = 0.999
        assert checks.ABEL_RADIUS == r
        quad, = calculus.trace_rhs_circle_quadrature(s, [phi], abel_radius=r)
        # the grid sums phi' xi_r exactly, so the quadrature is the Abel mean at radius r
        # of the pairing, the disc closed form at R = sqrt(r), to roundoff
        abel = disc.disc_integral_closed_form(s, phi, np.sqrt(r))
        assert abs(quad - abel) <= 1e-9 * (1.0 + sum(k * abs(a) for k, a in terms.items()))
        # the Abel tail 2*pi sum k|a_k||xi_hat(-k)|(1 - r^k), restated from the terms,
        # is the disc tail at R = sqrt(r), and bounds the way on from there to the pairing
        tail = 2.0 * np.pi * sum(
            k * abs(a) * abs(s.coeff(-k)) * (1.0 - r ** k) for k, a in terms.items())
        assert disc.disc_tail_bound(s, phi, np.sqrt(r)) == pytest.approx(tail, rel=1e-12)
        assert abs(quad - rhs) <= 10.0 * (tail + 1e-12)

    def test_quadrature_independent_of_pairing(self, monkeypatch):
        # the quadrature is the route that checks the coefficient pairing,
        # so it must not reach for it
        phi = LaurentSeries.from_terms({k: 0.7 ** k / k for k in range(1, 31)})
        pair = random_pairs(1, seed=605, dims=(8,))[0]
        s = ssf.ssf_from_moments(ssf.moments(pair, 64))
        expected = calculus.trace_rhs_circle_quadrature(s, [phi], checks.ABEL_RADIUS)

        def forbidden(*args, **kwargs):
            raise AssertionError("quadrature used the coefficient pairing")

        monkeypatch.setattr(disc, "disc_integral_closed_form", forbidden)
        monkeypatch.setattr(disc, "_paired_modes", forbidden)
        assert calculus.trace_rhs_circle_quadrature(s, [phi], checks.ABEL_RADIUS) == expected

    def test_batched_symbols_equal_single_calls(self):
        # the symbols' phi' tables are zero-padded to the largest order and taken
        # in one batch; that moves no bit of any symbol's value.  The grid is sized
        # to the order, so each single symbol is padded to the batch order too
        pair = random_pairs(1, seed=605, dims=(8,))[0]
        s = ssf.ssf_from_moments(ssf.moments(pair, 64))
        phis = [LaurentSeries.from_terms(t) for t in checks.CIRCLE_SERIES.values()]
        K = max(phi.order for phi in phis)
        batched = calculus.trace_rhs_circle_quadrature(s, phis, checks.ABEL_RADIUS)
        assert batched == [calculus.trace_rhs_circle_quadrature(
            s, [LaurentSeries(np.pad(phi.coeffs, K - phi.order))], checks.ABEL_RADIUS)[0]
            for phi in phis]

    @pytest.mark.parametrize("pair_id, pair", [
        *((f"random_d{d}_s{seed}", linops.random_pair(d, 0.25, 0.1, seed=seed))
          for d in (4, 8, 32) for seed in range(2)),
        ("random_d8_s605", random_pairs(1, seed=605, dims=(8,))[0]),
        *zip(NORM_ONE_IDS, norm_one_pairs())])
    def test_sized_grid_matches_a_fine_grid(self, pair_id, pair):
        # phi' xi_r with xi cut to the symbols' order K has degree 2K, which the
        # trapezoid rule on angular_nodes(K) points sums exactly: the same numbers,
        # to roundoff, as 4096 points against the whole of xi
        s = ssf.ssf_from_moments(ssf.moments(pair, 64))
        phis = [LaurentSeries.from_terms(t) for t in checks.CIRCLE_SERIES.values()]
        K, M = max(phi.order for phi in phis), 4096
        n = np.arange(-K, K + 1)
        stacked = np.stack([np.pad(phi.coeffs, K - phi.order) for phi in phis])
        phi_prime = ssf.uniform_trig_values(n, 1j * n * stacked, M)
        xi_r = ssf.evaluate_ssf_uniform(s, M, checks.ABEL_RADIUS)
        fine = [(2.0 * np.pi / M) * np.sum(row * xi_r) for row in phi_prime]
        sized = calculus.trace_rhs_circle_quadrature(s, phis, checks.ABEL_RADIUS)
        assert max(abs(a - b) for a, b in zip(sized, fine)) <= 1e-15

    def test_modes_above_the_symbols_move_no_bit(self):
        pair = random_pairs(1, seed=605, dims=(8,))[0]
        s = ssf.ssf_from_moments(ssf.moments(pair, 64))
        phis = [LaurentSeries.from_terms(t) for t in checks.CIRCLE_SERIES.values()]
        K = max(phi.order for phi in phis)
        scaled = s.coeffs.copy()
        scaled[:s.order - K] *= 1000.0
        scaled[s.order + K + 1:] *= 1000.0
        assert calculus.trace_rhs_circle_quadrature(
            LaurentSeries(scaled), phis, checks.ABEL_RADIUS) == \
            calculus.trace_rhs_circle_quadrature(s, phis, checks.ABEL_RADIUS)

    def test_circle_suite_takes_one_abel_grid(self, monkeypatch):
        pair = random_pairs(1, seed=605, dims=(8,))[0]
        xi = ssf.ssf_from_moments(ssf.moments(pair, 64))
        calls = []
        evaluate = ssf.evaluate_ssf_uniform

        def counted(*args, **kwargs):
            calls.append(args)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(ssf, "evaluate_ssf_uniform", counted)
        monkeypatch.setattr(calculus, "evaluate_ssf_uniform", counted)
        results = checks.circle_checks(pair_powers(pair), xi)
        assert len(calls) == 1
        assert len(results) == 3 * len(checks.CIRCLE_SERIES) and all(c.passed for c in results)

    def test_quadrature_rejects_non_real_shift(self):
        s = LaurentSeries.from_terms({-2: 0.5, 1: 0.1})  # no conjugate partners
        phi = LaurentSeries.from_terms({1: 1.0, 2: 0.5})
        with pytest.raises(NonRealResultError):
            calculus.trace_rhs_circle_quadrature(s, [phi], checks.ABEL_RADIUS)

    def test_additive_constant_independence(self):
        pair = random_pairs(1, seed=606, dims=(4,))[0]
        s = ssf.ssf_from_moments(ssf.moments(pair, 16))
        phi = LaurentSeries.from_terms({2: 1.0, 4: -0.5})
        assert pairing(s.with_constant(9.0), phi) \
            == pairing(s, phi)

    @pytest.mark.parametrize("d", [6, 32])
    def test_constant_independence_rows_read_zero(self, d):
        # both sides skip mode 0 by the same array sum, so the rows read exactly 0.0
        # against their threshold 0
        pair = linops.random_pair(d, 0.25, 0.1, seed=1)
        xi = ssf.ssf_from_moments(ssf.moments(pair, 64))
        rows = [c for c in checks.circle_checks(pair_powers(pair), xi)
                if c.name.startswith("circle/constant_independence_")]
        assert len(rows) == len(checks.CIRCLE_SERIES)
        assert all(c.passed and c.measured == 0.0 for c in rows)

    def test_insufficient_coefficients(self):
        pair = random_pairs(1, seed=607, dims=(4,))[0]
        s = ssf.ssf_from_moments(ssf.moments(pair, 4))
        phi = LaurentSeries.from_terms({6: 1.0})
        with pytest.raises(InsufficientCoefficientsError):
            calculus.trace_rhs_circle_quadrature(s, [phi], checks.ABEL_RADIUS)

    def test_circle_suite_rejects_short_shift(self):
        # the closed form pairs only the modes xi holds; the quadrature in the
        # same loop keeps the suite's order guard
        pair = random_pairs(1, seed=607, dims=(4,))[0]
        xi = ssf.ssf_from_moments(ssf.moments(pair, checks.CIRCLE_ORDER - 1))
        with pytest.raises(InsufficientCoefficientsError):
            checks.circle_checks(pair_powers(pair), xi)


class TestLaurentTrace:
    def test_constant_cancels(self):
        psi = LaurentSeries.from_terms({0: 5.0})
        pair = random_pairs(1, seed=608, dims=(4,))[0]
        assert calculus.laurent_difference_trace(pair_stack(pair), psi) == 0.0

    def test_positive_mode_is_moment(self):
        pair = random_pairs(1, seed=609, dims=(5,))[0]
        psi = LaurentSeries.from_terms({1: 1.0})
        m = ssf.moments(pair, 1)
        assert calculus.laurent_difference_trace(pair_stack(pair), psi) == pytest.approx(
            m[0], abs=1e-13)

    def test_negative_mode_scalar(self):
        psi = LaurentSeries.from_terms({-1: 1.0})
        assert calculus.laurent_difference_trace(pair_stack(scalar_pair(0.5, 0.25)), psi) \
            == pytest.approx(0.25)

    def test_matches_moment_pairing(self):
        # the moment route, xi's closed form at R = 1, against the power route
        psi = LaurentSeries.from_terms({-2: 0.3 + 0.1j, -1: 0.5, 1: 0.2j, 3: -0.4})
        for pair in random_pairs(5, seed=610):
            xi = ssf.ssf_from_moments(ssf.moments(pair, 8))
            direct = calculus.laurent_difference_trace(pair_stack(pair), psi)
            assert abs(direct - pairing(xi, psi)) <= 1e-11

    def test_trace_norm_inequality(self):
        psi = LaurentSeries.from_terms({-3: 0.2, -1: 1.0, 2: 0.7j})
        for pair in random_pairs(5, seed=611):
            lhs, rhs = calculus.laurent_difference_bound(pair_stack(pair), psi)
            assert lhs <= rhs + 1e-10

    def test_real_boundary_symbol_gives_real_trace(self):
        terms = {1: 0.4 - 0.3j, 2: 0.1j}
        terms.update({-n: np.conj(v) for n, v in terms.items()})
        psi = LaurentSeries.from_terms(terms)
        for pair in random_pairs(5, seed=612):
            val = calculus.laurent_difference_trace(pair_stack(pair), psi)
            assert abs(val.imag) <= 1e-10
