"""Extreme-value rate approximation and tail diagnostics.

Oracles: the generic quantile-based constants cross-checked against the
closed forms, and hand-derivable special points of the quantile map.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from cdfsched import asymptotics
from cdfsched.asymptotics import (
    FRECHET,
    GUMBEL,
    NormalizingConstants,
    bestm_cdf_inv,
    competitor_count,
    normalizing_constants,
    normalizing_constants_closed,
    sum_rate_asymptotic,
    tail_convergence_diagnostic,
    user_rate_asymptotic,
)
from cdfsched.channel import LinkProfile, sinr_cdf_inv
from cdfsched.errors import ConvergenceError, DomainError, PreconditionError
from cdfsched.feedback import (bestm_cdf, feedback_count_pmf_exact,
                               xi1_vector)
from mp_reference import pdf_mp, sf_mp
from test_acceptance import N_RB, het_profiles

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

    def test_roots_within_four_ulp_of_mpmath(self):
        # each float root against the 50-digit root of the binomial tail
        # F_Y(u) = sum_{i<M} (M-i)/M C(N,i) u^(N-i) (1-u)^i, refined from
        # it by mpmath and confirmed by its residual; at (100, 99,
        # 1 - 1e-10) the float Horner sums alone land 96 ulp off
        quantile = asymptotics._bestm_poly_quantile.__wrapped__
        worst = 0.0
        with mp.workdps(50):
            for N, Ms in ((4, (2, 3)), (16, (2, 4, 8, 15)),
                          (100, (2, 10, 50, 99))):
                for M in Ms:
                    def cdf(u, N=N, M=M):
                        return mp.fsum(mp.mpf(M - i) / M * math.comb(N, i)
                                       * u ** (N - i) * (1 - u) ** i
                                       for i in range(M))

                    qs = [1e-12, 0.1, 0.5, 0.9, 1 - 1e-10]
                    qs += [1 - N / (K * M * e) for K in (5, 50, 1000)
                           for e in (1.0, math.e) if K * M > N]
                    for q in qs:
                        u = quantile(N, M, q)
                        root = mp.findroot(lambda v: cdf(v) - q, mp.mpf(u))
                        assert abs(cdf(root) - q) < mp.mpf(10) ** -45
                        worst = max(worst, float(abs(root - u))
                                    / math.ulp(float(root)))
        assert worst <= 4.0

    def test_step_cap_raises_convergence_error(self, monkeypatch):
        monkeypatch.setattr(asymptotics, "_QUANTILE_MAX_STEPS", 1)
        with pytest.raises(ConvergenceError):
            asymptotics._bestm_poly_quantile.__wrapped__(100, 50, 0.3)


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
        for N, M in ((16, True), (16.0, 16), (16, 17)):
            with pytest.raises(DomainError):
                normalizing_constants_closed("noise_limited", 1.0, 50.0, N, M)


class TestAsymptoticRates:
    def test_user_rate_formula(self):
        # the constants of a fed-back block, at E[tau | tau >= 1] = K M/N
        # competitors for tau ~ Binomial(K0, M/N)
        K0, N, M = 20, 16, 4
        nc = normalizing_constants(NL, K0 / (1 - (1 - M / N) ** K0), N, M)
        expect = (1 - (1 - M / N) ** K0) * (nc.a + 0.5772156649015329 * nc.b) \
            / K0
        assert user_rate_asymptotic(NL, K0, N, M) == pytest.approx(
            expect, rel=1e-12)

    @pytest.mark.parametrize("K0", [1, 5, 20, 50])
    def test_competitor_count_is_the_fed_back_mean(self, K0):
        # K M/N = E[tau | tau >= 1] for tau ~ Binomial(K0, M/N), in exact
        # fractions; K0 itself where K0 M/N <= 1
        N = 16
        counts = competitor_count(K0, N, range(1, N + 1))
        for M, got in enumerate(counts, start=1):
            assert competitor_count(K0, N, M) == got
            if K0 * M <= N:
                assert got == K0
                continue
            pmf = [feedback_count_pmf_exact(K0, M, N, t)
                   for t in range(K0 + 1)]
            mean = sum(t * q for t, q in enumerate(pmf)) / (1 - pmf[0])
            assert got * M / N == pytest.approx(float(mean), rel=1e-14)

    def test_sum_rate_adds_user_terms(self):
        profiles = [NL, IL, G2, NL]
        total = sum_rate_asymptotic(profiles, 16, 8)
        per = sum(user_rate_asymptotic(p, len(profiles), 16, 8)
                  for p in profiles)
        assert total == pytest.approx(per, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            sum_rate_asymptotic([], 16, 4)
        with pytest.raises(DomainError):
            sum_rate_asymptotic([], 16, range(1, 17))


# criterion 05's cells (K copies of one simplified profile) and criterion
# 09's heterogeneous cells
C05_C09_CELLS = [
    *[[p] * K for p in (LinkProfile.noise_limited(10.0),
                        LinkProfile.interference_limited(10.0, 1.0))
      for K in (20, 30, 40, 50)],
    *[het_profiles(K0) for K0 in (1, 5, 10, 20, 30, 40, 50)],
]


class TestAllBudgets:
    """Every user and budget of a cell from one call."""

    @pytest.mark.parametrize("cell", C05_C09_CELLS,
                             ids=lambda c: f"K{len(c)}-{c[0].kind}")
    def test_sums_match_one_budget_at_a_time(self, cell):
        # NaN exactly where the one-budget call raises, and otherwise the
        # same float: each user's rate, and the users' rates added in
        # profile order
        K0, Ms = len(cell), range(1, N_RB + 1)
        sums = sum_rate_asymptotic(cell, N_RB, Ms)
        rates = user_rate_asymptotic(cell, K0, N_RB, Ms)
        assert sums.shape == (N_RB,) and rates.shape == (K0, N_RB)
        for M, got in enumerate(sums.tolist(), start=1):
            try:
                one = sum_rate_asymptotic(cell, N_RB, M)
            except PreconditionError:
                assert math.isnan(got) and np.isnan(rates[:, M - 1]).all()
                continue
            per_user = [user_rate_asymptotic(p, K0, N_RB, M) for p in cell]
            assert rates[:, M - 1].tolist() == per_user
            assert got == one == sum(per_user)

    def test_constants_table_is_the_scalar_definition(self):
        # a = log2(1 + x1), b = log2((1 + x2)/(1 + x1)) with numpy's log2
        # and the best-M quantiles x1, x2 at 1 - N/(KM) and 1 - N/(KMe),
        # NaN where K*M/N <= 1, float for float; at K = 20 math.log2 misses
        # numpy's last bit for one of a, b of each of these profiles (at
        # M = 4, 4, 6)
        edges = [LinkProfile.general(25.5, (1.9,)),
                 LinkProfile.general(0.9, (0.66,)),
                 LinkProfile.general(0.2, (0.16,))]
        Ms = range(1, N_RB + 1)
        for cell, K in ((het_profiles(5), 5), (het_profiles(50), 50),
                        (edges, 20)):
            table = normalizing_constants(cell, K, N_RB, Ms)
            assert table.a.shape == table.b.shape == (len(cell), len(Ms))
            for k, p in enumerate(cell):
                for j, M in enumerate(Ms):
                    got = [table.a[k, j].hex(), table.b[k, j].hex()]
                    if K * M <= N_RB:
                        assert got == [math.nan.hex()] * 2
                        continue
                    x1 = bestm_cdf_inv(p, N_RB, M, 1.0 - N_RB / (K * M))
                    x2 = bestm_cdf_inv(p, N_RB, M,
                                       1.0 - N_RB / (K * M * math.e))
                    assert got == [np.log2(1.0 + x1).hex(),
                                   np.log2((1.0 + x2) / (1.0 + x1)).hex()]
                    one = normalizing_constants(p, K, N_RB, M)
                    assert got == [one.a.hex(), one.b.hex()]
            row = normalizing_constants(cell[-1], K, N_RB, Ms)
            np.testing.assert_array_equal(row.a, table.a[-1])
            column = normalizing_constants(cell, K, N_RB, 7)
            np.testing.assert_array_equal(column.b, table.b[:, 6])
            # one K per budget: each column is the one-K table's
            counts = competitor_count(K, N_RB, Ms)
            fed = normalizing_constants(cell, counts, N_RB, Ms)
            for j, k in enumerate(counts):
                one = normalizing_constants(cell, k, N_RB, Ms)
                np.testing.assert_array_equal(fed.a[:, j], one.a[:, j])
                np.testing.assert_array_equal(fed.b[:, j], one.b[:, j])

    def test_preconditions_and_domain(self):
        with pytest.raises(PreconditionError):
            normalizing_constants([NL, G2], 2.0, 16, 4)
        with pytest.raises(DomainError):
            normalizing_constants([NL, G2], 20.0, 16, (1, 17))
        for K in (-5.0, math.inf, math.nan, True, "20"):
            with pytest.raises(DomainError, match="got K="):
                normalizing_constants([NL, G2], K, 16, 4)
            with pytest.raises(DomainError, match="got K="):
                normalizing_constants([NL, G2], [20.0, K], 16, (4, 8))
        for K in ([20.0, 30.0], [[20.0, 30.0, 40.0]] * 3):
            with pytest.raises(DomainError, match="one K per budget"):
                normalizing_constants([NL, G2], K, 16, range(1, 4))
        with pytest.raises(PreconditionError):
            sum_rate_asymptotic([NL], 16, 16)
        assert np.isnan(sum_rate_asymptotic([NL], 16, (16,))).all()


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

    @pytest.mark.parametrize("p", [NL, G2], ids=["NL", "G2"])
    @pytest.mark.parametrize("N,M", [(16, 4), (100, 50)])
    def test_gumbel_functional_matches_mpmath(self, p, N, M):
        # d/dx[(1 - F_Y)/f_Y] by 50-digit differentiation of the exact
        # binomial sums; the report takes it in closed form
        rep = tail_convergence_diagnostic(p, N, M)

        def inverse_hazard(x):
            s = sf_mp(p, x)
            u = 1 - s
            sf_y = mp.fsum(mp.mpf(min(i, M)) / M * math.comb(N, i)
                           * u ** (N - i) * s ** i for i in range(1, N + 1))
            d_fy = mp.mpf(N) / M * mp.fsum(
                math.comb(N - 1, j) * u ** (N - 1 - j) * s ** j
                for j in range(M))
            return sf_y / (d_fy * pdf_mp(p, x))

        with mp.workdps(50):
            ref = [mp.diff(inverse_hazard, mp.mpf(x)) for x in rep.x_grid]
        scale = float(max(abs(r) for r in ref))
        for got, want in zip(rep.values, ref):
            assert abs(got - float(want)) <= 1e-12 * scale

    @pytest.mark.parametrize("N", [16, 100])
    def test_full_feedback_noise_limited_is_at_its_limit(self, N):
        # (1 - F_Y)/f_Y is the constant rho0, so every value is 0 but for
        # rounding, and no trend is read from it
        rep = tail_convergence_diagnostic(NL, N, N)
        assert rep.at_limit
        assert not rep.trend_decreasing
        assert max(map(abs, rep.values)) <= 64 * np.finfo(float).eps

    def test_converging_tails_are_not_at_their_limit(self):
        for p, N, M in ((NL, 16, 4), (G2, 16, 16), (IL, 16, 4)):
            assert not tail_convergence_diagnostic(p, N, M).at_limit

    def test_domain(self):
        with pytest.raises(DomainError):
            tail_convergence_diagnostic(NL, 16, 0)


def test_constants_container():
    nc = NormalizingConstants(a=1.5, b=0.2)
    assert (nc.a, nc.b) == (1.5, 0.2)
