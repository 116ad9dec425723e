"""Functional calculus tables and both sides of the circle trace formula."""

import math

import numpy as np
import pytest

from pairs import random_pairs, scalar_pair
from ssftrace import calculus, checks, ssf
from ssftrace.calculus import CoefficientSeries, LaurentSeries
from ssftrace.errors import InsufficientCoefficientsError, NonRealResultError

EXP_SERIES = CoefficientSeries.from_terms(
    {k: 1.0 / math.factorial(k) for k in range(21)})


class TestApplySeries:
    def test_constant(self):
        phi = CoefficientSeries.from_terms({0: 1.0})
        np.testing.assert_allclose(calculus.apply_series(phi, np.zeros((3, 3))),
                                   np.eye(3))

    def test_identity_symbol(self):
        phi = CoefficientSeries.from_terms({1: 1.0})
        T = np.array([[0.2, 0.1], [0.0, 0.3]])
        np.testing.assert_allclose(calculus.apply_series(phi, T), T)

    def test_exponential_oracle(self):
        T = np.diag([0.5, -0.3])
        out = calculus.apply_series(EXP_SERIES, T)
        np.testing.assert_allclose(out, np.diag([np.exp(0.5), np.exp(-0.3)]),
                                   atol=1e-12)


class TestApplyLaurent:
    def test_constant(self):
        psi = LaurentSeries.from_terms({0: 2.5})
        np.testing.assert_allclose(calculus.apply_laurent(psi, np.zeros((2, 2))),
                                   2.5 * np.eye(2))

    def test_adjoint_mode(self):
        psi = LaurentSeries.from_terms({-1: 1.0})
        T = np.array([[0.1, 0.4], [0.0, 0.2]])
        np.testing.assert_allclose(calculus.apply_laurent(psi, T), T.conj().T)

    def test_symmetric_pair_of_modes(self):
        psi = LaurentSeries.from_terms({1: 1.0, -1: 1.0})
        T = np.array([[0, 1], [0, 0]], dtype=complex)
        np.testing.assert_allclose(calculus.apply_laurent(psi, T),
                                   np.array([[0, 1], [1, 0]]))


class TestCircleLhs:
    def test_equal_pair(self):
        phi = CoefficientSeries.from_terms({2: 1.0, 5: 0.3})
        assert calculus.trace_lhs_circle(scalar_pair(0.4, 0.4), phi) == 0.0

    def test_linear_symbol_is_first_moment(self):
        pair = random_pairs(1, seed=600, dims=(5,))[0]
        phi = CoefficientSeries.from_terms({1: 1.0})
        m = ssf.moments(pair, 1)
        assert calculus.trace_lhs_circle(pair, phi) == pytest.approx(
            m.moments[0], abs=1e-13)

    def test_scalar_square(self):
        phi = CoefficientSeries.from_terms({2: 1.0})
        assert calculus.trace_lhs_circle(scalar_pair(0.5, 0.25), phi) \
            == pytest.approx(0.1875)

    def test_telescoping_trace_norm_bound(self):
        for pair in random_pairs(6, seed=601):
            for phi in (EXP_SERIES, CoefficientSeries.from_terms({3: 1.0, 7: -2.0})):
                lhs, rhs = calculus.series_difference_bound(pair, phi)
                assert lhs <= rhs + 1e-10


class TestCircleRhs:
    def test_constant_symbol(self):
        pair = random_pairs(1, seed=602, dims=(4,))[0]
        s = ssf.ssf_from_moments(ssf.moments(pair, 8))
        phi = CoefficientSeries.from_terms({0: 3.0})
        assert calculus.trace_rhs_circle(s, phi) == 0.0

    def test_linear_symbol(self):
        pair = random_pairs(1, seed=603, dims=(4,))[0]
        m = ssf.moments(pair, 8)
        s = ssf.ssf_from_moments(m)
        phi = CoefficientSeries.from_terms({1: 1.0})
        assert calculus.trace_rhs_circle(s, phi) == pytest.approx(m.moments[0],
                                                                  abs=1e-14)

    def test_formula_two_routes(self):
        phi = CoefficientSeries.from_terms({k: 0.7 ** k / k for k in range(1, 31)})
        for pair in random_pairs(5, seed=604, dims=(8,)):
            s = ssf.ssf_from_moments(ssf.moments(pair, 64))
            lhs = calculus.trace_lhs_circle(pair, phi)
            rhs = calculus.trace_rhs_circle(s, phi)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + phi.weighted_norm)

    def test_quadrature_cross_check(self):
        phi = CoefficientSeries.from_terms({k: 0.7 ** k / k for k in range(1, 31)})
        pair = random_pairs(1, seed=605, dims=(8,))[0]
        s = ssf.ssf_from_moments(ssf.moments(pair, 64))
        r = 0.999
        rhs = calculus.trace_rhs_circle(s, phi)
        quad = calculus.trace_rhs_circle_quadrature(s, phi, abel_radius=r)
        tail = 2.0 * np.pi * sum(
            k * abs(phi.coeffs[k]) * abs(s.coeff(-k)) * (1.0 - r ** k)
            for k in range(1, phi.degree + 1))
        assert abs(quad - rhs) <= 10.0 * (tail + 1e-12)

    def test_quadrature_independent_of_pairing(self, monkeypatch):
        # the quadrature is the route that checks the coefficient pairing,
        # so it must not reach for it
        phi = CoefficientSeries.from_terms({k: 0.7 ** k / k for k in range(1, 31)})
        pair = random_pairs(1, seed=605, dims=(8,))[0]
        s = ssf.ssf_from_moments(ssf.moments(pair, 64))
        expected = calculus.trace_rhs_circle_quadrature(s, phi, checks.ABEL_RADIUS)

        def forbidden(*args, **kwargs):
            raise AssertionError("quadrature used the coefficient pairing")

        monkeypatch.setattr(calculus, "trace_rhs_circle", forbidden)
        assert calculus.trace_rhs_circle_quadrature(s, phi, checks.ABEL_RADIUS) == expected

    def test_quadrature_rejects_non_real_shift(self):
        s = LaurentSeries.from_terms({-2: 0.5, 1: 0.1})  # no conjugate partners
        phi = CoefficientSeries.from_terms({1: 1.0, 2: 0.5})
        with pytest.raises(NonRealResultError):
            calculus.trace_rhs_circle_quadrature(s, phi, checks.ABEL_RADIUS)

    def test_additive_constant_independence(self):
        pair = random_pairs(1, seed=606, dims=(4,))[0]
        s = ssf.ssf_from_moments(ssf.moments(pair, 16))
        phi = CoefficientSeries.from_terms({2: 1.0, 4: -0.5})
        assert calculus.trace_rhs_circle(s.with_constant(9.0), phi) \
            == calculus.trace_rhs_circle(s, phi)

    def test_insufficient_coefficients(self):
        pair = random_pairs(1, seed=607, dims=(4,))[0]
        s = ssf.ssf_from_moments(ssf.moments(pair, 4))
        phi = CoefficientSeries.from_terms({6: 1.0})
        with pytest.raises(InsufficientCoefficientsError):
            calculus.trace_rhs_circle(s, phi)
        with pytest.raises(InsufficientCoefficientsError):
            calculus.trace_rhs_circle_quadrature(s, phi, checks.ABEL_RADIUS)


class TestLaurentTrace:
    def test_constant_cancels(self):
        psi = LaurentSeries.from_terms({0: 5.0})
        pair = random_pairs(1, seed=608, dims=(4,))[0]
        assert calculus.laurent_difference_trace(pair, psi) == 0.0

    def test_positive_mode_is_moment(self):
        pair = random_pairs(1, seed=609, dims=(5,))[0]
        psi = LaurentSeries.from_terms({1: 1.0})
        m = ssf.moments(pair, 1)
        assert calculus.laurent_difference_trace(pair, psi) == pytest.approx(
            m.moments[0], abs=1e-13)

    def test_negative_mode_scalar(self):
        psi = LaurentSeries.from_terms({-1: 1.0})
        assert calculus.laurent_difference_trace(scalar_pair(0.5, 0.25), psi) \
            == pytest.approx(0.25)

    def test_matches_moment_pairing(self):
        psi = LaurentSeries.from_terms({-2: 0.3 + 0.1j, -1: 0.5, 1: 0.2j, 3: -0.4})
        for pair in random_pairs(5, seed=610):
            m = ssf.moments(pair, 8)
            direct = calculus.laurent_difference_trace(pair, psi)
            paired = calculus.laurent_trace_from_moments(m, psi)
            assert abs(direct - paired) <= 1e-11

    def test_trace_norm_inequality(self):
        psi = LaurentSeries.from_terms({-3: 0.2, -1: 1.0, 2: 0.7j})
        for pair in random_pairs(5, seed=611):
            lhs, rhs = calculus.laurent_difference_bound(pair, psi)
            assert lhs <= rhs + 1e-10

    def test_real_boundary_symbol_gives_real_trace(self):
        terms = {1: 0.4 - 0.3j, 2: 0.1j}
        terms.update({-n: np.conj(v) for n, v in terms.items()})
        psi = LaurentSeries.from_terms(terms)
        for pair in random_pairs(5, seed=612):
            val = calculus.laurent_difference_trace(pair, psi)
            assert abs(val.imag) <= 1e-10
