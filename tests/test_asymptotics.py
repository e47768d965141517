"""Extreme-value rate approximation and tail diagnostics.

Oracles: the generic quantile-based constants cross-checked against the
closed forms, and hand-derivable special points of the quantile map.
"""

import math

import mpmath as mp
import pytest

from cdfsched.asymptotics import (
    FRECHET,
    GUMBEL,
    NormalizingConstants,
    bestm_cdf_inv,
    normalizing_constants,
    normalizing_constants_closed,
    sum_rate_asymptotic,
    tail_convergence_diagnostic,
    user_rate_asymptotic,
)
from cdfsched.channel import LinkProfile, sinr_cdf_inv
from cdfsched.errors import DomainError, PreconditionError
from cdfsched.feedback import bestm_cdf, xi1_vector

NL = LinkProfile.noise_limited(2.0)
IL = LinkProfile.interference_limited(4.0, 1.0)
G2 = LinkProfile.general(5.0, (1.0, 0.3))


class TestBestMQuantile:
    @pytest.mark.parametrize("p", [NL, IL, G2])
    @pytest.mark.parametrize("N,M", [(16, 1), (16, 4), (16, 16), (8, 3)])
    def test_roundtrip(self, p, N, M):
        for q in (0.1, 0.6, 0.99, 0.99999):
            x = bestm_cdf_inv(p, N, M, q)
            assert bestm_cdf(p, N, M, x) == pytest.approx(q, rel=1e-8)

    def test_full_feedback_matches_base_quantile(self):
        assert bestm_cdf_inv(NL, 16, 16, 0.7) == pytest.approx(
            sinr_cdf_inv(NL, 0.7), rel=1e-12)

    def test_best_one_matches_root_quantile(self):
        assert bestm_cdf_inv(NL, 8, 1, 0.7) == pytest.approx(
            sinr_cdf_inv(NL, 0.7 ** (1 / 8)), rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            bestm_cdf_inv(NL, 16, 4, 1.0)


class TestNormalizingConstants:
    def test_noise_limited_special_point(self):
        # M=N, rho0=1, K=e: a = log2(1 + ln e) = 1
        nc = normalizing_constants_closed("noise_limited", 1.0, math.e, 16, 16)
        assert nc.a == pytest.approx(1.0, rel=1e-12)

    def test_interference_limited_special_point(self):
        # M=N, rho0/rho1=1, K=2: a = log2(1 + (K-1)) = 1
        nc = normalizing_constants_closed("interference_limited", (3.0, 3.0),
                                          2.0, 16, 16)
        assert nc.a == pytest.approx(1.0, rel=1e-12)
        # b = log2((1 + (2e-1)) / 2) = log2(e)
        assert nc.b == pytest.approx(math.log2(math.e), rel=1e-12)

    @pytest.mark.parametrize("K", [64.0, 256.0, 1024.0])
    @pytest.mark.parametrize("M,N", [(16, 16), (1, 16)])
    def test_closed_forms_match_generic_noise_limited(self, K, M, N):
        p = LinkProfile.noise_limited(2.0)
        generic = normalizing_constants(p, K, N, M)
        closed = normalizing_constants_closed("noise_limited", 2.0, K, N, M)
        assert closed.a == pytest.approx(generic.a, rel=1e-10)
        assert closed.b == pytest.approx(generic.b, rel=1e-10)

    @pytest.mark.parametrize("K", [64.0, 256.0, 1024.0])
    @pytest.mark.parametrize("M,N", [(16, 16), (1, 16)])
    def test_closed_forms_match_generic_interference_limited(self, K, M, N):
        p = LinkProfile.interference_limited(4.0, 1.0)
        generic = normalizing_constants(p, K, N, M)
        closed = normalizing_constants_closed("interference_limited",
                                              (4.0, 1.0), K, N, M)
        assert closed.a == pytest.approx(generic.a, rel=1e-10)
        assert closed.b == pytest.approx(generic.b, rel=1e-10)

    @pytest.mark.parametrize("p", [NL, IL, G2])
    def test_scale_positive_location_growing(self, p):
        prev = None
        for K in (4, 16, 64, 256):
            nc = normalizing_constants(p, K, 16, 8)
            assert nc.b > 0
            if prev is not None:
                assert nc.a > prev
            prev = nc.a

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            normalizing_constants(NL, 2.0, 16, 4)  # K*M/N <= 1
        with pytest.raises(PreconditionError):
            normalizing_constants_closed("noise_limited", 1.0, 1.0, 16, 16)
        with pytest.raises(PreconditionError):
            normalizing_constants_closed("noise_limited", 1.0, 10.0, 16, 1)
        with pytest.raises(DomainError):
            normalizing_constants_closed("general", 1.0, 50.0, 16, 16)
        with pytest.raises(DomainError):
            normalizing_constants_closed("noise_limited", 1.0, 50.0, 16, 4)


class TestAsymptoticRates:
    def test_user_rate_formula(self):
        K0, N, M = 20, 16, 4
        nc = normalizing_constants(NL, K0, N, M)
        expect = (1 - (1 - M / N) ** K0) * (nc.a + 0.5772156649015329 * nc.b) \
            / K0
        assert user_rate_asymptotic(NL, K0, N, M) == pytest.approx(
            expect, rel=1e-12)

    def test_sum_rate_adds_user_terms(self):
        profiles = [NL, IL, G2, NL]
        total = sum_rate_asymptotic(profiles, 16, 8)
        per = sum(user_rate_asymptotic(p, len(profiles), 16, 8)
                  for p in profiles)
        assert total == pytest.approx(per, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            sum_rate_asymptotic([], 16, 4)


class TestTailDiagnostics:
    def test_noise_limited_is_gumbel(self):
        rep = tail_convergence_diagnostic(NL, 16, 4)
        assert rep.family == GUMBEL
        # derivative of the inverse hazard must die out in the tail
        assert abs(rep.limit_estimate) < 1e-3
        assert rep.trend_decreasing

    def test_general_is_gumbel(self):
        rep = tail_convergence_diagnostic(G2, 16, 1)
        assert rep.family == GUMBEL
        assert abs(rep.limit_estimate) < 1e-2
        assert rep.trend_decreasing

    def test_interference_limited_full_feedback_limit(self):
        # x f_Y / (1 - F_Y) -> tail index 1 for full feedback
        rep = tail_convergence_diagnostic(IL, 16, 16)
        assert rep.family == FRECHET
        assert rep.limit_estimate == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("M", [1, 4])
    def test_interference_limited_partial_feedback_settles(self, M):
        rep = tail_convergence_diagnostic(IL, 16, M)
        assert rep.family == FRECHET
        assert rep.trend_decreasing
        assert rep.limit_estimate > 0

    def test_wide_carrier_noise_limited_is_gumbel(self):
        rep = tail_convergence_diagnostic(NL, 100, 50)
        assert rep.family == GUMBEL
        assert rep.trend_decreasing
        assert abs(rep.limit_estimate) < 1e-3

    def test_wide_carrier_interference_limited_limit(self):
        # 1 - F_Y ~ (N/M) s in the tail, so the tail index stays 1
        rep = tail_convergence_diagnostic(IL, 100, 50)
        assert rep.family == FRECHET
        assert rep.trend_decreasing
        assert rep.limit_estimate == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("N,M", [(100, 8), (100, 50)])
    def test_frechet_functional_matches_exact_rationals(self, N, M):
        # x f_Y / (1 - F_Y) from the exact xi1 polynomial at 120 digits
        rep = tail_convergence_diagnostic(IL, N, M)
        with mp.workdps(120):
            c = [mp.mpf(v.numerator) / v.denominator for v in xi1_vector(N, M)]
            rho0, rho1 = (mp.mpf(r) for r in (IL.rho0, IL.rho_int[0]))
            for x, got in zip(rep.x_grid, rep.values):
                x = mp.mpf(x)
                F = rho1 * x / (rho1 * x + rho0)
                f = rho0 * rho1 / (rho1 * x + rho0) ** 2
                FY = mp.fsum(cm * F ** (N - m) for m, cm in enumerate(c))
                dFY = mp.fsum(cm * (N - m) * F ** (N - m - 1)
                              for m, cm in enumerate(c))
                ref = x * dFY * f / (1 - FY)
                assert abs(got - ref) <= 1e-10 * ref

    def test_domain(self):
        with pytest.raises(DomainError):
            tail_convergence_diagnostic(NL, 16, 0)


def test_constants_container():
    nc = NormalizingConstants(a=1.5, b=0.2)
    assert (nc.a, nc.b) == (1.5, 0.2)
