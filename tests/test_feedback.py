"""Best-M order-statistics algebra.

Oracles: exact rational convolution for the power coefficients, the exact
xi1 polynomial summed in mpmath for the floating-point best-M layer,
direct order-statistics limits (M=1 and M=N), and the binomial feedback
count.
"""

from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfsched.channel import LinkProfile, sinr_cdf
from cdfsched.errors import DomainError
from cdfsched.exact_rate import _bestm_kernel
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


#: u from 1e-3 to 1 - 1e-6, dense at both ends
U_GRID = np.concatenate([np.geomspace(1e-3, 0.5, 25),
                         1.0 - np.geomspace(0.5, 1e-6, 25)[1:]])


def _exact_layer(N, M, u):
    """(F_Y, dF_Y/dF, 1 - F_Y) at the float u from the exact xi1 rationals,
    summed at 120 digits, far beyond the cancellation of the alternating
    coefficients (max |xi1| is 5.7e40 at N = 100, M = 50)."""
    with mp.workdps(120):
        u = mp.mpf(u)
        c = [mp.mpf(x.numerator) / x.denominator for x in xi1_vector(N, M)]
        F = mp.fsum(cm * u ** (N - m) for m, cm in enumerate(c))
        dF = mp.fsum(cm * (N - m) * u ** (N - m - 1) for m, cm in enumerate(c))
        return F, dF, 1 - F


def _rel(got, ref):
    with mp.workdps(120):
        return float(abs(mp.mpf(float(got)) - ref) / abs(ref))


class TestPolyEvaluation:
    @pytest.mark.parametrize("N,M", [(16, 4), (100, 1), (100, 50),
                                     (100, 100)])
    def test_bestm_poly_endpoints(self, N, M):
        poly = BestMPoly.build(N, M)
        assert poly.eval_in_f(0.0) == 0.0
        assert poly.eval_in_f(1.0) == 1.0

    @pytest.mark.parametrize("N,M", [(1030, 515), (1100, 550)])
    def test_overflowing_weights_raise_domain_error(self, N, M):
        # C(N, i) outgrows a float above about N = 1030
        with pytest.raises(DomainError, match=f"N={N}, M={M}"):
            BestMPoly.build(N, M)

    def test_wide_carrier_below_overflow(self):
        poly = BestMPoly.build(1100, 100)
        assert poly.eval_in_f(1.0) == 1.0
        # the survival sums C(N, i) up to i = N, which overflows here
        with pytest.raises(DomainError, match="N=1100, M=100"):
            poly.sf_in_s(0.5)

    @pytest.mark.parametrize("N,M", [(32, 8), (64, 32), (100, 8), (100, 50),
                                     (100, 99)])
    def test_matches_exact_rationals(self, N, M):
        poly = BestMPoly.build(N, M)
        for u in U_GRID:
            F, dF, _ = _exact_layer(N, M, u)
            assert _rel(poly.eval_in_f(u), F) < 1e-13
            assert _rel(poly.derivative_in_f(u), dF) < 1e-13
            # the exact form: F_Y to the reference's digits, the log-slope
            # rounded once
            num, den, slope = poly.exact_in_f(float(u))
            with mp.workdps(120):
                assert abs(mp.mpf(num) / den - F) <= F * mp.mpf(10) ** -60
                assert slope == float(u * dF / F)
            # the survival at the float s, whose 1 - s is exact at 120 digits
            s = 1.0 - u
            with mp.workdps(120):
                _, _, S = _exact_layer(N, M, 1 - mp.mpf(s))
            assert _rel(poly.sf_in_s(s), S) < 1e-13

    def test_survival_keeps_the_deep_tail(self):
        # 1 - F_Y ~ (N/M) s as s -> 0, far below where 1 - eval_in_f is 0
        poly = BestMPoly.build(100, 50)
        assert poly.sf_in_s(1e-30) == pytest.approx(2e-30, rel=1e-12)
        assert poly.sf_in_s(0.0) == 0.0
        assert poly.sf_in_s(1.0) == pytest.approx(1.0, rel=1e-15)

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


def _exact_columns(N, u):
    """(F_Y, dF_Y/dF) for every M = 1..N at the float u, from the exact xi1
    rationals summed at 120 digits, as in `_exact_layer`."""
    with mp.workdps(120):
        u = mp.mpf(u)
        pw = [u**k for k in range(N + 1)]
        out = []
        for M in range(1, N + 1):
            c = [mp.mpf(x.numerator) / x.denominator
                 for x in xi1_vector(N, M)]
            out.append((mp.fsum(cm * pw[N - m] for m, cm in enumerate(c)),
                        mp.fsum(cm * (N - m) * pw[N - m - 1]
                                for m, cm in enumerate(c))))
        return out


ALL_M = {N: tuple(range(1, N + 1)) for N in (16, 25, 50, 100)}


class TestBestMColumns:
    """Every best-M layer at once, from the rate integrand's kernel: one
    table of binomial terms times the stacked BestMPoly weights."""

    @pytest.mark.parametrize("N", [16, 25, 50, 100])
    def test_matches_exact_rationals(self, N):
        cdf, pdf = _bestm_kernel(N, ALL_M[N], U_GRID)
        assert cdf.shape == pdf.shape == (len(U_GRID), N)
        for k in range(0, len(U_GRID), 2):  # keeps both ends of the grid
            for M, (F, dF) in enumerate(_exact_columns(N, U_GRID[k]), start=1):
                assert _rel(cdf[k, M - 1], F) < 1e-14
                assert _rel(pdf[k, M - 1], dF) < 1e-14

    @pytest.mark.parametrize("N", [16, 25, 50, 100])
    def test_columns_match_bestm_poly(self, N):
        cdf, pdf = _bestm_kernel(N, ALL_M[N], U_GRID)
        for M in range(1, N + 1):
            poly = BestMPoly.build(N, M)
            np.testing.assert_allclose(cdf[:, M - 1], poly.eval_in_f(U_GRID),
                                       rtol=1e-14, atol=0)
            np.testing.assert_allclose(pdf[:, M - 1],
                                       poly.derivative_in_f(U_GRID),
                                       rtol=1e-14, atol=0)

    def test_any_budgets_match_their_all_m_columns(self):
        # a rate at one M takes a one-column kernel, zero-padded to its own M
        cdf, pdf = _bestm_kernel(50, ALL_M[50], U_GRID)
        for Ms in [(1,), (4,), (50,), (7, 3, 50)]:
            got_cdf, got_pdf = _bestm_kernel(50, Ms, U_GRID)
            cols = [M - 1 for M in Ms]
            np.testing.assert_allclose(got_cdf, cdf[:, cols], rtol=1e-14,
                                       atol=0)
            np.testing.assert_allclose(got_pdf, pdf[:, cols], rtol=1e-14,
                                       atol=0)

    def test_endpoints(self):
        cdf, pdf = _bestm_kernel(16, ALL_M[16], np.array([0.0, 1.0]))
        assert np.all(cdf[0] == 0.0) and np.all(cdf[1] == 1.0)
        # at u = 1 only the j = 0 term survives: dF_Y/du = N/M
        np.testing.assert_allclose(pdf[1], 16 / np.arange(1, 17), rtol=1e-15)

    def test_overflowing_weights_raise_domain_error(self):
        with pytest.raises(DomainError, match="N=1100"):
            _bestm_kernel(1100, (1, 550), np.array([0.5]))


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
