"""Best-M order-statistics algebra.

Oracles: exact rational convolution for the power coefficients, direct
order-statistics limits (M=1 and M=N), and the binomial feedback count.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfsched.channel import LinkProfile, sinr_cdf
from cdfsched.errors import DomainError
from cdfsched.feedback import (
    BestMPoly,
    bestm_cdf,
    feedback_count_pmf,
    feedback_count_pmf_exact,
    xi1,
    xi1_exact,
    xi1_vector,
    xi2,
    xi2_convolution,
    xi2_vector,
)

P = LinkProfile.noise_limited(2.0)


class TestXi1:
    def test_reference_values_n16_m2(self):
        assert xi1_exact(16, 2, 0) == Fraction(-7)
        assert xi1_exact(16, 2, 1) == Fraction(8)

    def test_full_feedback_is_identity(self):
        # M = N: the fed-back CDF is F itself -> single coefficient 1 at F^N?
        # No: F_Y = F, i.e. sum_m xi1 F^(N-m) must reduce to F, so the only
        # nonzero coefficient is at m = N-1.
        N = 6
        vec = xi1_vector(N, N)
        assert vec[N - 1] == 1
        assert all(c == 0 for c in vec[: N - 1])

    def test_best_one_is_max_statistic(self):
        # M = 1: F_Y = F^N
        assert xi1_vector(9, 1) == (Fraction(1),)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 24))
    def test_coefficients_sum_to_one(self, N):
        for M in (1, 2, min(5, N), N):
            assert sum(xi1_vector(N, M)) == 1

    def test_range_checks(self):
        with pytest.raises(DomainError):
            xi1(4, 5, 0)
        with pytest.raises(DomainError):
            xi1(4, 2, 2)


class TestXi2:
    def test_reference_square_n16_m2(self):
        assert xi2_vector(16, 2, 2) == (Fraction(49), Fraction(-112),
                                        Fraction(64))

    def test_tau0_one_reduces_to_xi1(self):
        assert xi2_vector(12, 3, 1) == xi1_vector(12, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 20), st.integers(1, 6), st.integers(1, 4))
    def test_recursion_matches_convolution(self, N, M, tau0):
        M = min(M, N)
        assert xi2_vector(N, M, tau0) == xi2_convolution(N, M, tau0)

    def test_coefficients_sum_to_one(self):
        assert sum(xi2_vector(16, 4, 3)) == 1

    def test_scalar_accessor(self):
        assert xi2(16, 2, 2, 0) == 49.0
        with pytest.raises(DomainError):
            xi2(16, 2, 2, 3)


class TestPolyEvaluation:
    def test_bestm_poly_endpoints(self):
        poly = BestMPoly.build(16, 4)
        assert poly.eval_in_f(0.0) == 0.0
        assert poly.eval_in_f(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_bestm_poly_monotone(self):
        poly = BestMPoly.build(16, 5)
        u = np.linspace(0, 1, 200)
        v = poly.eval_in_f(u)
        assert np.all(np.diff(v) >= -1e-12)

    def test_derivative_matches_finite_difference(self):
        poly = BestMPoly.build(10, 4)
        for u in (0.2, 0.6, 0.9):
            h = 1e-7
            num = (poly.eval_in_f(u + h) - poly.eval_in_f(u - h)) / (2 * h)
            assert poly.derivative_in_f(u) == pytest.approx(num, rel=1e-5)


class TestBestMCdf:
    def test_full_feedback_equals_sinr_cdf(self):
        for x in (0.3, 1.5, 6.0):
            assert bestm_cdf(P, 8, 8, x) == pytest.approx(
                float(sinr_cdf(P, x)), rel=1e-12)

    def test_best_one_is_nth_power(self):
        for x in (0.3, 1.5, 6.0):
            assert bestm_cdf(P, 8, 1, x) == pytest.approx(
                float(sinr_cdf(P, x)) ** 8, rel=1e-10)


class TestFeedbackCount:
    def test_matches_binomial(self):
        # success probability M/N per user per resource block
        assert feedback_count_pmf_exact(4, 1, 4, 0) == Fraction(81, 256)
        assert feedback_count_pmf(10, 16, 16, 10) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 30), st.integers(2, 16))
    def test_pmf_sums_to_one(self, K, N):
        for M in (1, N // 2 or 1, N):
            total = sum(
                feedback_count_pmf_exact(K, M, N, t) for t in range(K + 1)
            )
            assert total == 1

    def test_range_check(self):
        with pytest.raises(DomainError):
            feedback_count_pmf(5, 2, 4, 6)
