"""Harmonic extension, Jacobian pairing and the disc trace formula."""

import collections
import tracemalloc

import numpy as np
import pytest

from oracles import (OutsideOpenDiscError, _wirtinger, disc_quadrature, evaluate_ssf_grid,
                     jacobian_at, kernel_expansion_check, poisson_extend)
from pairs import random_pairs, random_strict_pair, scalar_pair
from ssftrace import calculus, checks, disc, linops, ssf
from ssftrace.calculus import LaurentSeries
from ssftrace.errors import InsufficientCoefficientsError, InvalidRadiusError
from ssftrace.disc import legendre_rule


def random_table(order, seed, decay=0.5):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(2 * order + 1) + 1j * rng.standard_normal(2 * order + 1)
    return LaurentSeries(coeffs=c * decay ** np.abs(np.arange(-order, order + 1)))


class TestPoissonExtend:
    def test_center_is_constant_coefficient(self):
        t = random_table(5, seed=0)
        assert poisson_extend(t, 0.0) == pytest.approx(t.coeff(0))

    def test_single_positive_mode(self):
        t = LaurentSeries.from_terms({1: 1.0})
        z = 0.3 + 0.4j
        assert poisson_extend(t, z) == pytest.approx(z)

    def test_outside_disc(self):
        with pytest.raises(OutsideOpenDiscError):
            poisson_extend(random_table(2, seed=1), 0.9999999)

    def test_conjugate_symmetric_table_is_real(self):
        s = ssf.ssf_from_moments(ssf.moments(scalar_pair(0.8, 0.3), 48))
        for z in (0.2, 0.5j, -0.3 + 0.6j):
            assert abs(poisson_extend(s, z).imag) <= 1e-12

    def test_kernel_quadrature_oracle(self):
        # oracle: (1/2pi) integral P_z(t) xi_r(t) dt; damping the boundary
        # data by r moves the evaluation point to r*z exactly
        s = ssf.ssf_from_moments(ssf.moments(scalar_pair(0.9, 0.5), 256))
        r = 0.9999
        M = 16384
        tp = 2.0 * np.pi * np.arange(M) / M
        xi_r = evaluate_ssf_grid(s, tp, r)
        for t in (0.0, 1.0, 2.5, 4.5):
            z = 0.99 * np.exp(1j * t)
            kernel = (1.0 - abs(z) ** 2) / np.abs(np.exp(1j * tp) - z) ** 2
            oracle = float(kernel @ xi_r) / M
            assert poisson_extend(s, r * z).real == pytest.approx(
                oracle, abs=1e-6)
            # at z itself the mismatch is only the O(1-r) damping bias
            assert poisson_extend(s, z).real == pytest.approx(
                oracle, abs=1e-4)

    def test_harmonicity_stencil(self):
        s = ssf.ssf_from_moments(ssf.moments(scalar_pair(0.8, 0.3), 32))
        h = 1e-3
        rng = np.random.default_rng(9)
        for _ in range(25):
            z = complex(*rng.uniform(-0.55, 0.55, 2))
            f = poisson_extend
            lap = (f(s, z + h) + f(s, z - h) + f(s, z + 1j * h) + f(s, z - 1j * h)
                   - 4.0 * f(s, z)) / h ** 2
            assert abs(lap) <= 1e-5 * (1.0 + abs(f(s, z)))


class TestKernelExpansion:
    def test_center(self):
        err = kernel_expansion_check(0.0, np.linspace(0, 6.28, 64), 10)
        assert err <= 1e-15

    def test_half_radius_floor(self):
        err = kernel_expansion_check(0.5, np.linspace(0, 6.28, 128), 60)
        assert err <= 1e-14  # geometric tail far below machine noise

    def test_geometric_bound(self):
        for z, n_trunc in ((0.9j, 200), (0.5 + 0.3j, 80), (-0.7, 120)):
            t_grid = 2.0 * np.pi * np.arange(1024) / 1024
            err = kernel_expansion_check(z, t_grid, n_trunc)
            bound = 2.0 * abs(z) ** (n_trunc + 1) / (1.0 - abs(z))
            assert err <= bound + 1e-13

    def test_rejects_large_radius(self):
        with pytest.raises(ValueError):
            kernel_expansion_check(0.97, [0.0], 10)


class TestRingWirtinger:
    @pytest.mark.parametrize("order", [1, 7, disc.DiscQuadratureConfig().max_order])
    @pytest.mark.parametrize("R", [0.5, 0.999])
    def test_matches_point_evaluator(self, order, R):
        # undamped coefficients, so the top modes carry weight at R = 0.999
        rng = np.random.default_rng(order)
        table = LaurentSeries(coeffs=rng.standard_normal(2 * order + 1)
                              + 1j * rng.standard_normal(2 * order + 1))
        M = disc.DiscQuadratureConfig().angular_nodes
        r = R * np.array([0.25, 0.5, 1.0])
        z = r[:, None] * np.exp(2j * np.pi * np.arange(M) / M)
        dz, dzbar = disc._ring_wirtinger(table, r, M)
        # weighted_norm = sum |n c_n| bounds both derivatives on the closed disc
        scale = table.weighted_norm
        assert np.abs(dz - _wirtinger(table, z, False)).max() <= 1e-13 * scale
        assert np.abs(dzbar - _wirtinger(table, z, True)).max() <= 1e-13 * scale

    def test_ring_sums_equal_their_reference(self):
        M = disc.DiscQuadratureConfig().angular_nodes
        r, psi = np.array([0.2, 0.6, 0.95]), random_table(3, 707)
        xz, xzb = disc._ring_wirtinger(random_table(7, 708), r, M)
        pz, pzb = disc._ring_wirtinger(psi, r, M)
        ref = (np.einsum("kj,kj->k", xz, pzb, optimize=True)
               - np.einsum("kj,kj->k", pz, xzb, optimize=True))
        assert disc._ring_sums(xz, xzb, psi, r, M).tobytes() == ref.tobytes()

    def test_order_zero_grids_are_distinct(self):
        # an empty mode list still gives two zero grids, never one array
        # shared, so a write to one cannot reach the other
        const = LaurentSeries.from_terms({0: 2.5})
        dz, dzbar = disc._ring_wirtinger(const, np.array([0.5, 0.9]), 64)
        assert dz is not dzbar and not np.shares_memory(dz, dzbar)
        assert not dz.any() and not dzbar.any()
        xi = random_table(3, seed=12)
        assert disc_quadrature(xi, const, 0.9) == 0.0
        assert disc_quadrature(const, xi, 0.9) == 0.0


class TestJacobian:
    def test_zero_field(self):
        zero = ssf.LaurentSeries(coeffs=np.zeros(5, dtype=complex))
        psi = random_table(3, seed=2)
        assert jacobian_at(zero, psi, 0.2 + 0.1j) == 0.0

    def test_degree_one_constant(self):
        c = 0.3 - 0.2j
        xi = LaurentSeries.from_terms({1: np.conj(c), -1: c})
        psi = LaurentSeries.from_terms({1: 1.0})
        for z in (0.0, 0.4j, -0.2 + 0.5j):
            assert jacobian_at(xi, psi, z) == pytest.approx(-c)

    def test_finite_difference_oracle(self):
        xi = random_table(6, seed=3)
        psi = random_table(4, seed=4)
        z = 0.3 + 0.2j
        h = 1e-5

        def wirt(table, z0):
            fx = (poisson_extend(table, z0 + h)
                  - poisson_extend(table, z0 - h)) / (2.0 * h)
            fy = (poisson_extend(table, z0 + 1j * h)
                  - poisson_extend(table, z0 - 1j * h)) / (2.0 * h)
            return (fx - 1j * fy) / 2.0, (fx + 1j * fy) / 2.0

        xz, xzb = wirt(xi, z)
        pz, pzb = wirt(psi, z)
        expected = xz * pzb - pz * xzb
        assert jacobian_at(xi, psi, z) == pytest.approx(expected, abs=1e-7)

    def test_outside_disc(self):
        with pytest.raises(OutsideOpenDiscError):
            jacobian_at(random_table(2, seed=5), random_table(2, seed=6), 1.0)


class TestDiscIntegral:
    def test_zero_shift(self):
        zero = ssf.LaurentSeries(coeffs=np.zeros(5, dtype=complex))
        psi = random_table(2, seed=7)
        assert disc_quadrature(zero, psi, 0.7) == 0.0

    def test_scalar_golden_value(self):
        s = ssf.ssf_from_moments(ssf.moments(scalar_pair(0.5, 0.25), 16))
        psi = LaurentSeries.from_terms({1: 1.0})
        quad = disc_quadrature(s, psi, 0.8)
        closed = disc.disc_integral_closed_form(s, psi, 0.8)
        assert closed == pytest.approx(0.16, abs=1e-12)
        assert quad == pytest.approx(closed, abs=1e-8)

    def test_degree_mismatch_vanishes(self):
        xi = LaurentSeries.from_terms({2: 0.3, -2: 0.3})
        psi = LaurentSeries.from_terms({1: 1.0})
        for R in (0.3, 0.6, 0.9):
            assert abs(disc_quadrature(xi, psi, R)) <= 1e-12
            assert disc.disc_integral_closed_form(xi, psi, R) == 0.0

    def test_angular_orthogonality(self):
        # monomial fields: d(xi)/dz = z^(n-1), d(psi)/dzbar = zbar^(m-1)
        R = 0.85
        for n in range(1, 9):
            for m in range(1, 9):
                xi = LaurentSeries.from_terms({n: 1.0 / n})
                psi = LaurentSeries.from_terms({-m: 1.0 / m})
                val = disc_quadrature(xi, psi, R)
                expected = (-4j * np.pi * R ** (n + m) / (n + m)
                            if n == m else 0.0)
                assert val == pytest.approx(expected, abs=1e-12)

    def test_random_tables_match_closed_form(self):
        xi = random_table(10, seed=8)
        psi = random_table(7, seed=9)
        quad = disc_quadrature(xi, psi, 0.9)
        closed = disc.disc_integral_closed_form(xi, psi, 0.9)
        assert quad == pytest.approx(closed, abs=1e-8)

    def test_independent_of_closed_form(self, monkeypatch):
        # the quadrature is the route that checks the coefficient pairing,
        # so it must not reach for it
        xi = random_table(10, seed=8)
        psi = random_table(7, seed=9)
        expected = disc_quadrature(xi, psi, 0.9)

        def forbidden(*args, **kwargs):
            raise AssertionError("quadrature used the closed-form route")

        monkeypatch.setattr(disc, "disc_integral_closed_form", forbidden)
        monkeypatch.setattr(disc, "_paired_modes", forbidden)
        assert disc_quadrature(xi, psi, 0.9) == expected

    @pytest.mark.parametrize("xi_order, psi_order", [(12, 5), (3, 9), (0, 4), (6, 0)])
    def test_closed_forms_equal_the_per_mode_loop(self, xi_order, psi_order):
        # the array sums against a per-mode loop, on the shift function of a
        # pair: the two differ in summation order only
        pair = random_pairs(1, seed=612, dims=(6,))[0]
        xi = (ssf.ssf_from_moments(ssf.moments(pair, xi_order)) if xi_order
              else LaurentSeries.from_terms({}))
        psi = random_table(psi_order, seed=613)
        for R in (0.5, 0.9, 0.999, 1.0):
            total, tail = 0j, 0.0
            for k in range(1, min(xi_order, psi_order) + 1):
                for n in (k, -k):
                    term = n * psi.coeff(n) * xi.coeff(-n)
                    total += term * R ** (2 * k)
                    tail += abs(term) * (1.0 - R ** (2 * k))
            closed, bound = 2j * np.pi * total, 2.0 * np.pi * tail
            value = disc.disc_integral_closed_form(xi, psi, R)
            assert abs(value - closed) <= 1e-16 * (1.0 + abs(closed))
            assert abs(disc.disc_tail_bound(xi, psi, R) - bound) <= 1e-16 * (1.0 + bound)

    def test_invalid_radius(self):
        # the quadrature's radii come from the config, which keeps them inside (0, 1)
        for schedule in ((0.5, 1.0), (0.5, float("nan"), 0.9)):
            with pytest.raises(ValueError):
                disc.DiscQuadratureConfig(radius_schedule=schedule)
        t = random_table(2, seed=10)
        with pytest.raises(InvalidRadiusError):
            disc.disc_integral_closed_form(t, t, 1.2)

    def test_monotone_radius_convergence(self):
        s = ssf.ssf_from_moments(ssf.moments(random_strict_pair(4, 0.8, 0.5, 42), 32))
        psi = random_table(4, seed=11)
        limit = disc.disc_integral_closed_form(s, psi, 1.0)
        gaps = [abs(disc.disc_integral_closed_form(s, psi, R) - limit)
                for R in (0.5, 0.7, 0.9, 0.99)]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))


class TestVerifyDiscFormula:
    def test_equal_pair(self):
        psi = LaurentSeries.from_terms({-1: 0.5, 2: 1.0})
        pair = scalar_pair(0.4, 0.4)
        xi = ssf.ssf_from_moments(ssf.moments(pair, 8))
        rep, = disc.verify_disc_trace_formula(pair, xi, [psi], checks.DISC_CONFIG)
        assert rep.lhs_trace == 0.0
        for _, quad, closed in rep.per_radius:
            assert abs(quad) <= 1e-12
            assert closed == 0.0

    def test_scalar_pair_curve(self):
        psi = LaurentSeries.from_terms({1: 1.0})
        pair = scalar_pair(0.5, 0.25)
        xi = ssf.ssf_from_moments(ssf.moments(pair, 16))
        rep, = disc.verify_disc_trace_formula(pair, xi, [psi], checks.DISC_CONFIG)
        assert rep.lhs_trace == pytest.approx(0.25, abs=1e-14)
        for R, _, closed in rep.per_radius:
            assert closed == pytest.approx(0.25 * R ** 2, abs=1e-12)
        assert rep.final_gap() <= rep.tail_bound + 1e-9

    def test_table_beyond_shift_order(self):
        pair = scalar_pair(0.5, 0.25)
        xi = ssf.ssf_from_moments(ssf.moments(pair, 1))
        with pytest.raises(InsufficientCoefficientsError):
            disc.verify_disc_trace_formula(pair, xi, [LaurentSeries.from_terms({2: 1.0})],
                                           checks.DISC_CONFIG)

    def test_real_symmetric_table(self):
        terms = {1: 0.4 - 0.1j, 3: 0.2j}
        terms.update({-n: np.conj(v) for n, v in terms.items()})
        psi = LaurentSeries.from_terms(terms)
        pair = random_pairs(1, seed=613, dims=(5,))[0]
        xi = ssf.ssf_from_moments(ssf.moments(pair, 48))
        rep, = disc.verify_disc_trace_formula(pair, xi, [psi], checks.DISC_CONFIG)
        assert abs(rep.lhs_trace.imag) <= 1e-10
        for _, quad, closed in rep.per_radius:
            assert abs(quad.imag) <= 1e-10
            assert abs(closed.imag) <= 1e-10

    def test_one_sided_matches_circle_formula(self):
        terms = {1: 0.6, 2: -0.3, 4: 0.1j}
        pair = random_pairs(1, seed=614, dims=(6,))[0]
        psi = LaurentSeries.from_terms(terms)
        lhs_disc = calculus.laurent_difference_trace(pair, psi)
        lhs_circle = calculus.trace_lhs_circle(pair, psi)
        assert abs(lhs_disc - lhs_circle) <= 1e-10


class TestSharedQuadrature:
    def test_matches_single_calls(self, monkeypatch):
        xi = random_table(64, seed=20)
        psis = [random_table(order, seed=21 + order) for order in (1, 3, 12)]
        cfg = disc.DiscQuadratureConfig()
        reports = disc.verify_disc_trace_formula(scalar_pair(0.5, 0.25), xi, psis, cfg)
        shared = [[q for _, q, _ in rep.per_radius] for rep in reports]
        for psi, values in zip(psis, shared):
            for R, q in zip(cfg.radius_schedule, values):
                single = disc_quadrature(xi, psi, R, cfg)
                assert abs(q - single) <= 1e-14 * (1.0 + abs(q))

        def forbidden(*args, **kwargs):
            raise AssertionError("quadrature used the closed-form route")

        monkeypatch.setattr(disc, "disc_integral_closed_form", forbidden)
        monkeypatch.setattr(disc, "_paired_modes", forbidden)
        rows = disc._quadratures(xi, psis, cfg.radius_schedule, cfg)
        assert [list(values) for values in zip(*rows)] == shared

    def test_suite_evaluates_each_ring_grid_once(self, monkeypatch):
        pair = linops.random_pair(8, 0.25, 0.1, seed=1)
        xi = ssf.ssf_from_moments(ssf.moments(pair, 64))
        calls = collections.Counter()
        ring_wirtinger = disc._ring_wirtinger

        def counted(table, r, M):
            calls[table.coeffs.tobytes()] += 1
            return ring_wirtinger(table, r, M)

        monkeypatch.setattr(disc, "_ring_wirtinger", counted)
        checks.disc_checks(pair, xi)
        radii = len(checks.DISC_CONFIG.radius_schedule)
        tables = [ssf.LaurentSeries.from_terms(t) for t in checks.DISC_TABLES.values()]
        assert calls == {t.coeffs.tobytes(): radii for t in [xi, *tables]}

    def test_suite_memory_at_d32(self):
        # below seven (radial x angular) complex grids: xi's two, one table's two,
        # the FFT's work arrays and small change
        pair = linops.random_pair(32, 0.25, 0.1, seed=1)
        xi = ssf.ssf_from_moments(ssf.moments(pair, 64))
        M = checks.DISC_CONFIG.angular_nodes
        tracemalloc.start()
        try:
            results = checks.disc_checks(pair, xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(c.passed for c in results)
        grids = 7 * disc.radial_nodes(checks.DISC_MAX_ORDER) * M * 16
        assert peak < grids


def quadrature_misses(xi, psi, radii):
    """Largest miss of the quadrature against the closed form over ``radii``,
    relative to 1 + |closed|."""
    quads = disc._quadratures(xi, [psi], radii, checks.DISC_CONFIG)
    closed = [disc.disc_integral_closed_form(xi, psi, R) for R in radii]
    return max(abs(q - c) / (1.0 + abs(c)) for (q,), c in zip(quads, closed))


class TestRadialRule:
    """r times a ring sum against tables of order <= K is a polynomial of degree
    2K - 1 in r, so K Gauss-Legendre nodes are exact and K - 1 are not.  The
    tables decay slowly, so their top modes carry weight at every radius."""

    RADII = checks.DISC_CONFIG.radius_schedule

    @pytest.mark.parametrize("order", [1, 2, 3, 12, 100])
    def test_exact_at_table_order(self, order):
        xi = random_table(max(64, order), seed=30, decay=0.9)
        psi = random_table(order, seed=31 + order, decay=0.9)
        assert disc.radial_nodes(order) == order
        assert quadrature_misses(xi, psi, self.RADII) <= 1e-13

    @pytest.mark.parametrize("order", [2, 3])
    def test_one_node_fewer_misses(self, order, monkeypatch):
        # measured: 0.24 at order 2 and 0.037 at order 3
        xi = random_table(64, seed=30, decay=0.9)
        psi = random_table(order, seed=31 + order, decay=0.9)
        monkeypatch.setattr(disc, "legendre_rule", lambda n: legendre_rule(n - 1))
        assert quadrature_misses(xi, psi, self.RADII) > 1e-3

    def test_suite_tables_match_64_nodes(self, monkeypatch):
        pair = linops.random_pair(8, 0.25, 0.1, seed=1)
        xi = ssf.ssf_from_moments(ssf.moments(pair, 64))
        psis = [ssf.LaurentSeries.from_terms(t) for t in checks.DISC_TABLES.values()]
        sized = disc._quadratures(xi, psis, self.RADII, checks.DISC_CONFIG)
        monkeypatch.setattr(disc, "legendre_rule", lambda n: legendre_rule(64))
        wide = disc._quadratures(xi, psis, self.RADII, checks.DISC_CONFIG)
        for row, wide_row in zip(sized, wide):
            for q, q64 in zip(row, wide_row):
                assert abs(q - q64) <= 1e-14 * (1.0 + abs(q))
