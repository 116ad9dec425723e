"""Harmonic extension, Jacobian pairing and the disc trace formula."""

import collections
import tracemalloc

import numpy as np
import pytest

from oracles import (OutsideOpenDiscError, _wirtinger, disc_quadrature, evaluate_ssf_grid,
                     jacobian_at, kernel_expansion_check, poisson_extend)
from pairs import (norm_one_pairs, pair_powers, pair_stack, random_pairs, random_strict_pair,
                   report_pairs, scalar_pair)
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
        M = disc.angular_nodes(order)
        r = R * np.array([0.25, 0.5, 1.0])
        z = r[:, None] * np.exp(2j * np.pi * np.arange(M) / M)
        dz, dzbar = disc._ring_wirtinger(table.coeffs, r, M)
        # weighted_norm = sum |n c_n| bounds both derivatives on the closed disc
        scale = table.weighted_norm
        assert np.abs(dz - _wirtinger(table, z, False)).max() <= 1e-13 * scale
        assert np.abs(dzbar - _wirtinger(table, z, True)).max() <= 1e-13 * scale

    def test_ring_sums_equal_their_reference(self):
        # the stacked tables' ring sums against one table at a time, by einsum
        M = disc.angular_nodes(7)
        r, psis = np.array([0.2, 0.6, 0.95]), [random_table(3, 707), random_table(3, 709)]
        xi_grids = disc._ring_wirtinger(random_table(7, 708).coeffs, r, M)
        stacked = np.stack([psi.coeffs for psi in psis])
        sums = disc._ring_sums(xi_grids, disc._ring_wirtinger(stacked, r, M))
        xz, xzb = xi_grids
        for psi, row in zip(psis, sums):
            pz, pzb = disc._ring_wirtinger(psi.coeffs, r, M)
            ref = (np.einsum("kj,kj->k", xz, pzb, optimize=True)
                   - np.einsum("kj,kj->k", pz, xzb, optimize=True))
            assert row.tobytes() == ref.tobytes()

    def test_order_zero_grids_are_distinct(self):
        # an empty mode list still gives two zero grids, never one array
        # shared, so a write to one cannot reach the other
        const = LaurentSeries.from_terms({0: 2.5})
        dz, dzbar = disc._ring_wirtinger(const.coeffs, np.array([0.5, 0.9]), 64)
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


@pytest.fixture(scope="module")
def report_xis():
    """xi to order 64, as ``verify`` builds it, on each of ``report_pairs``."""
    return {pair_id: ssf.ssf_from_moments(ssf.moments(pair, 64))
            for pair_id, pair in report_pairs().items()}


@pytest.mark.parametrize("terms", [*checks.CIRCLE_SERIES.values(), *checks.DISC_TABLES.values()],
                         ids=[*checks.CIRCLE_SERIES, *checks.DISC_TABLES])
def test_closed_form_within_tail_bound(report_xis, terms):
    # |closed(R) - closed(1)| <= disc_tail_bound(xi, psi, R), term by term: at R =
    # sqrt(ABEL_RADIUS) from the circle quadrature's Abel mean to the pairing, and
    # at each schedule radius along the disc limit gap
    psi = LaurentSeries.from_terms(terms)
    radii = (np.sqrt(checks.ABEL_RADIUS), *checks.DISC_CONFIG.radius_schedule)
    for pair_id, xi in report_xis.items():
        *closed, limit = disc.disc_integral_closed_form(xi, psi, (*radii, 1.0)).tolist()
        for R, value in zip(radii, closed):
            assert abs(value - limit) <= disc.disc_tail_bound(xi, psi, R), (pair_id, R)


def disc_routes(pair, xi, psi):
    """The three routes of the disc formula on ``pair`` over the suite's radius schedule:
    (R, quadrature, closed form) per radius, and the trace of the two-sided difference."""
    radii = checks.DISC_CONFIG.radius_schedule
    quads, = disc.quadrature(xi, [psi], radii)
    closed = disc.disc_integral_closed_form(xi, psi, radii)
    return (list(zip(radii, quads.tolist(), closed.tolist())),
            calculus.laurent_difference_trace(pair_stack(pair), psi))


class TestVerifyDiscFormula:
    def test_equal_pair(self):
        psi = LaurentSeries.from_terms({-1: 0.5, 2: 1.0})
        pair = scalar_pair(0.4, 0.4)
        xi = ssf.ssf_from_moments(ssf.moments(pair, 8))
        per_radius, lhs = disc_routes(pair, xi, psi)
        assert lhs == 0.0
        for _, quad, closed in per_radius:
            assert abs(quad) <= 1e-12
            assert closed == 0.0

    def test_scalar_pair_curve(self):
        psi = LaurentSeries.from_terms({1: 1.0})
        pair = scalar_pair(0.5, 0.25)
        xi = ssf.ssf_from_moments(ssf.moments(pair, 16))
        per_radius, lhs = disc_routes(pair, xi, psi)
        assert lhs == pytest.approx(0.25, abs=1e-14)
        for R, _, closed in per_radius:
            assert closed == pytest.approx(0.25 * R ** 2, abs=1e-12)
        # the limit gap at the last radius, within the disc tail there
        R_last, _, closed = per_radius[-1]
        assert abs(closed - lhs) <= disc.disc_tail_bound(xi, psi, R_last) + 1e-9

    def test_table_beyond_shift_order(self):
        pair = scalar_pair(0.5, 0.25)
        xi = ssf.ssf_from_moments(ssf.moments(pair, 1))
        with pytest.raises(InsufficientCoefficientsError):
            disc.quadrature(xi, [LaurentSeries.from_terms({2: 1.0})],
                            checks.DISC_CONFIG.radius_schedule)

    def test_real_symmetric_table(self):
        terms = {1: 0.4 - 0.1j, 3: 0.2j}
        terms.update({-n: np.conj(v) for n, v in terms.items()})
        psi = LaurentSeries.from_terms(terms)
        pair = random_pairs(1, seed=613, dims=(5,))[0]
        xi = ssf.ssf_from_moments(ssf.moments(pair, 48))
        per_radius, lhs = disc_routes(pair, xi, psi)
        assert abs(lhs.imag) <= 1e-10
        for _, quad, closed in per_radius:
            assert abs(quad.imag) <= 1e-10
            assert abs(closed.imag) <= 1e-10

    def test_one_sided_matches_circle_formula(self):
        terms = {1: 0.6, 2: -0.3, 4: 0.1j}
        pair = random_pairs(1, seed=614, dims=(6,))[0]
        psi = LaurentSeries.from_terms(terms)
        lhs_disc = calculus.laurent_difference_trace(pair_stack(pair), psi)
        lhs_circle = calculus.trace_lhs_circle(pair_powers(pair), psi)
        assert abs(lhs_disc - lhs_circle) <= 1e-10


class TestSharedQuadrature:
    def test_matches_single_calls(self, monkeypatch):
        xi = random_table(64, seed=20)
        psis = [random_table(order, seed=21 + order) for order in (1, 3, 12)]
        cfg = disc.DiscQuadratureConfig()
        shared = disc.quadrature(xi, psis, cfg.radius_schedule).tolist()
        for psi, values in zip(psis, shared):
            for R, q in zip(cfg.radius_schedule, values):
                single = disc_quadrature(xi, psi, R)
                assert abs(q - single) <= 1e-14 * (1.0 + abs(q))

        def forbidden(*args, **kwargs):
            raise AssertionError("quadrature used the closed-form route")

        monkeypatch.setattr(disc, "disc_integral_closed_form", forbidden)
        monkeypatch.setattr(disc, "_paired_modes", forbidden)
        assert disc.quadrature(xi, psis, cfg.radius_schedule).tolist() == shared

    def test_suite_evaluates_each_ring_grid_once(self, monkeypatch):
        # one transform pair for xi and one for the stacked tables, every radius of the
        # schedule on the batch axis
        pair = linops.random_pair(8, 0.25, 0.1, seed=1)
        xi = ssf.ssf_from_moments(ssf.moments(pair, 64))
        calls = collections.Counter()
        ring_wirtinger = disc._ring_wirtinger

        def counted(coeffs, r, M):
            calls[coeffs.tobytes()] += 1
            return ring_wirtinger(coeffs, r, M)

        monkeypatch.setattr(disc, "_ring_wirtinger", counted)
        checks.disc_checks(pair_stack(pair), xi)
        # the tables padded with zero modes to the largest order, stacked, and xi cut
        # to that order
        K = checks.DISC_MAX_ORDER
        stacked = np.stack([LaurentSeries.from_terms({K: 0.0, -K: 0.0, **terms}).coeffs
                            for terms in checks.DISC_TABLES.values()])
        cut = xi.coeffs[xi.order - K: xi.order + K + 1]
        assert calls == {cut.tobytes(): 1, stacked.tobytes(): 1}

    def test_suite_memory_at_d32(self):
        # below seven (radial x 1024) complex grids, the ceiling from when one radius of
        # xi and one table took 1024 angular nodes: xi's two, one table's two, the FFT's
        # work arrays and small change
        pair = linops.random_pair(32, 0.25, 0.1, seed=1)
        xi = ssf.ssf_from_moments(ssf.moments(pair, 64))
        tracemalloc.start()
        try:
            results = checks.disc_checks(pair_stack(pair), xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(c.passed for c in results)
        grids = 7 * disc.radial_nodes(checks.DISC_MAX_ORDER) * 1024 * 16
        assert peak < grids


class TestOneXi:
    """The circle and disc suites of one verify run read one shift-function table."""

    def test_run_builds_one_table(self, monkeypatch):
        calls = collections.Counter()
        ssf_from_moments = ssf.ssf_from_moments

        def counted(m):
            calls[len(m)] += 1
            return ssf_from_moments(m)

        monkeypatch.setattr(ssf, "ssf_from_moments", counted)
        checks.run(linops.random_pair(8, 0.25, 0.1, seed=1), checks.SUITES)
        assert calls == {checks.CIRCLE_ORDER: 1}

    @pytest.mark.parametrize("pair", [linops.random_pair(8, 0.25, 0.1, seed=1),
                                      linops.random_pair(32, 0.25, 0.1, seed=2),
                                      *norm_one_pairs()])
    def test_disc_rows_do_not_see_the_longer_table(self, pair):
        # the tables pair only xi's modes up to their own order, so one table for
        # both suites moves no disc row
        m = ssf.moments(pair, 64)
        rows = [[(c.name, c.passed, c.measured.hex(), c.threshold.hex())
                 for c in checks.disc_checks(pair_stack(pair), ssf.ssf_from_moments(m[:order]))]
                for order in (checks.DISC_MAX_ORDER, 64)]
        assert rows[0] == rows[1]


class TestChunks:
    """The batch is walked in chunks of radii of at most CHUNK_POINTS grid points per
    transform, so the grids of a long radius schedule never coexist."""

    RADII = np.linspace(0.3, 0.995, 50)

    def test_memory_does_not_grow_with_radii(self):
        # an order-127 table fills a chunk with one radius, as disc-report --psi allows;
        # 50 radii may add per-ring bookkeeping, a few (radii x nodes) arrays (measured:
        # 80 kB), never a grid
        xi, psi = random_table(127, seed=40), random_table(127, seed=41)
        peaks = []
        for radii in (self.RADII[-1:], self.RADII):
            tracemalloc.start()
            try:
                disc.quadrature(xi, [psi], radii)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        bookkeeping = 4 * len(self.RADII) * disc.radial_nodes(127) * 16
        grid = disc.radial_nodes(127) * disc.angular_nodes(127) * 16
        assert bookkeeping < grid / 4
        assert peaks[1] <= peaks[0] + bookkeeping

    def test_chunked_matches_one_chunk(self, monkeypatch):
        # the 50 radii take three chunks of 13 and one of 11, fifty of one, or one chunk
        xi, psis = random_table(64, seed=42), [random_table(24, seed=43), random_table(5, 44)]
        per_radius = len(psis) * disc.radial_nodes(24) * disc.angular_nodes(24)
        assert disc.CHUNK_POINTS // per_radius == 13
        chunked = disc.quadrature(xi, psis, self.RADII)
        for points in (1, len(self.RADII) * per_radius):
            monkeypatch.setattr(disc, "CHUNK_POINTS", points)
            other = disc.quadrature(xi, psis, self.RADII)
            assert np.abs(other - chunked).max() <= 1e-15 * np.abs(chunked).max()


def quadrature_misses(xi, psi, radii):
    """Largest miss of the quadrature against the closed form over ``radii``,
    relative to 1 + |closed|."""
    quads = disc.quadrature(xi, [psi], radii)[0]
    closed = disc.disc_integral_closed_form(xi, psi, radii)
    return float(np.max(np.abs(quads - closed) / (1.0 + np.abs(closed))))


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
        sized = disc.quadrature(xi, psis, self.RADII)
        monkeypatch.setattr(disc, "legendre_rule", lambda n: legendre_rule(64))
        wide = disc.quadrature(xi, psis, self.RADII)
        assert np.all(np.abs(sized - wide) <= 1e-14 * (1.0 + np.abs(sized)))


class TestAngularRule:
    """A ring's Jacobian, K the largest order of the tables and xi cut to order K, holds
    modes up to K - 1 in magnitude, so a rule of K or more nodes sums it exactly;
    angular_nodes(K) = 4 (2K + 1) keeps a margin of four table lengths.  K - 1 nodes
    alias mode K - 1 onto mode 0."""

    RADII = checks.DISC_CONFIG.radius_schedule

    @pytest.mark.parametrize("order", [1, 2, 3, 12, 100])
    def test_exact_at_table_order(self, order, monkeypatch):
        # xi undamped and of order >= 64, so its high modes would alias with full
        # weight at angular_nodes(order) nodes had they not been cut
        xi = random_table(max(64, order), seed=30, decay=1.0)
        psi = random_table(order, seed=31 + order, decay=0.9)
        rules = []
        ring_wirtinger = disc._ring_wirtinger

        def recorded(coeffs, r, M):
            rules.append(M)
            return ring_wirtinger(coeffs, r, M)

        monkeypatch.setattr(disc, "_ring_wirtinger", recorded)
        assert quadrature_misses(xi, psi, self.RADII) <= 1e-13
        assert set(rules) == {disc.angular_nodes(psi.order)} == {4 * (2 * order + 1)}

    @pytest.mark.parametrize("order", [2, 3, 12, 24])
    def test_one_node_short_misses(self, order, monkeypatch):
        # K nodes are exact; K - 1 miss, measured 0.36, 1.05, 6.2e-2 and 1.5e-2
        xi = random_table(64, seed=30, decay=0.9)
        psi = random_table(order, seed=31 + order, decay=0.9)
        monkeypatch.setattr(disc, "angular_nodes", lambda order: order)
        assert quadrature_misses(xi, psi, self.RADII) <= 1e-13
        monkeypatch.setattr(disc, "angular_nodes", lambda order: order - 1)
        assert quadrature_misses(xi, psi, self.RADII) > 1e-2

    def test_suite_tables_match_1024_nodes(self, monkeypatch):
        pair = linops.random_pair(8, 0.25, 0.1, seed=1)
        xi = ssf.ssf_from_moments(ssf.moments(pair, checks.DISC_MAX_ORDER))
        psis = [ssf.LaurentSeries.from_terms(t) for t in checks.DISC_TABLES.values()]
        sized = disc.quadrature(xi, psis, self.RADII)
        assert disc.angular_nodes(checks.DISC_MAX_ORDER) == 28
        monkeypatch.setattr(disc, "angular_nodes", lambda order: 1024)
        wide = disc.quadrature(xi, psis, self.RADII)
        assert np.all(np.abs(sized - wide) <= 1e-14 * np.abs(sized))
