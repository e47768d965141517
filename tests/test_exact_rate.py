"""Closed-form scheduled-rate machinery.

Oracles: pointwise partial-fraction identities for the residue
coefficients of the mpmath closed-form engine, mpmath incomplete-gamma
forms and mpmath quadrature for its half-line and level integrals, and
direct adaptive quadrature for every rate quantity.
"""

import dataclasses
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from cdfsched import exact_rate
from cdfsched.asymptotics import (
    bestm_cdf_inv,
    normalizing_constants,
    sum_rate_asymptotic,
    user_rate_asymptotic,
)
from cdfsched.channel import LinkProfile
from cdfsched.cli import load_scenario, scenario_profiles
from cdfsched.errors import CancellationError, ConvergenceError, DomainError
from cdfsched.feedback import BestMPoly, xi1_vector
from cdfsched.exact_rate import (
    RateBreakdown,
    g_k,
    g_k_quadrature,
    sum_rate_exact,
    user_rate_exact,
)
from cdfsched.exact_rate import (
    _ClosedFormEngine,
    _i2_mp,
    _collapsed_rates,
    _psi_table,
    _series_budget,
)
from cdfsched.simulator import SimConfig, simulate_profiles
from cdfsched.specfun import QuadratureConfig
from mp_reference import pdf_mp, sf_mp
from test_acceptance import het_profiles

NL = LinkProfile.noise_limited(2.0)
IL = LinkProfile.interference_limited(4.0, 1.0)
G1 = LinkProfile.general(5.0, (1.0,))
G2 = LinkProfile.general(5.0, (1.0, 0.3))
G3 = LinkProfile.general(3.0, (2.0, 0.7, 0.2))
G4 = LinkProfile.general(3.0, (1.0, 0.7, 0.4, 0.1))
# near-tied interferers, whose partial fractions cancel
GT = LinkProfile.general(5.0, (1.0, 1.0 - 1e-3))
# rho_int == rho0 puts the interferer pole on the noise pole (beta = 1)
GM = LinkProfile.general(2.0, (2.0,))


def _betas(p):
    return [p.rho0 / r for r in p.rho_int]


class TestPsiCoefficients:
    def test_single_interferer_trivial(self):
        # J = 1: the expansion is already a single pole, psi_j = 1
        for j in (1, 2, 5):
            assert _psi_table(_betas(G1), (j,), 0)[j] == pytest.approx(1.0)

    def test_two_interferer_binomial_form(self):
        # J = 2 closed form:
        #   psi_i^(b) = (-1)^(j_b - i) C(l - i, j_b - i)
        #               * (beta_other - beta_b)^(-(l + 1 - i))
        betas = _betas(G2)
        for j1, j2 in ((2, 1), (1, 3), (3, 2)):
            ell = j1 + j2 - 1
            jv = (j1, j2)
            for b, (jb, other) in enumerate(((j1, betas[1]), (j2, betas[0]))):
                for i in range(1, jb + 1):
                    expect = (-1.0) ** (jb - i) \
                        * math.comb(ell - i, jb - i) \
                        * (other - betas[b]) ** (-(ell + 1 - i))
                    got = _psi_table(betas, jv, b)[i]
                    assert got == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("betas,jv", [
        (_betas(G2), (2, 3)), (_betas(G3), (1, 2, 1)), (_betas(G3), (2, 1, 3)),
        (_betas(G3), (4, 4, 4)), (_betas(G4), (3, 3, 3, 3)),
        # a level's own shape: the noise pole 1 of order 1 joins the rest
        (_betas(G2) + [1.0], (1, 1, 1)), (_betas(G2) + [1.0], (4, 4, 1)),
        (_betas(G2) + [1.0], (8, 8, 1)),
    ])
    def test_pointwise_partial_fraction_identity(self, betas, jv):
        # prod_b (beta_b + x)^(-j_b) == sum_b sum_i psi_i^(b) (beta_b+x)^(-i);
        # a level T(ell) expands orders (ell + 1, ..., ell + 1, 1)
        for x in (0.13, 1.7, 9.0):
            lhs = 1.0
            for beta, j in zip(betas, jv):
                lhs *= (beta + x) ** (-j)
            rhs = 0.0
            for b, j in enumerate(jv):
                psi = _psi_table(betas, jv, b)
                for i in range(1, j + 1):
                    rhs += psi[i] / (betas[b] + x) ** i
            assert rhs == pytest.approx(lhs, rel=1e-10)


def _i2_oracle(alpha, beta, gamma):
    # int_0^inf e^(-a x) (b + x)^(-g) dx = a^(g-1) e^(ab) Gamma(1-g, ab)
    with mp.workdps(60):
        return mp.power(alpha, gamma - 1) * mp.exp(alpha * beta) \
            * mp.gammainc(1 - gamma, alpha * beta)


class TestI2Recursion:
    @pytest.mark.parametrize("alpha,beta,gamma", [
        (0.5, 1.0, 1), (0.5, 1.0, 4), (2.0, 0.3, 3), (0.05, 5.0, 7),
        (1.0, 1.0, 12), (50.0, 0.1, 10),
    ])
    def test_table_against_incomplete_gamma(self, alpha, beta, gamma):
        with mp.workdps(30):
            vals, losses = _i2_mp(mp.mpf(alpha), mp.mpf(beta), gamma)
        assert len(vals) == len(losses) == gamma
        for g, v in enumerate(vals, start=1):
            assert float(v) == pytest.approx(
                float(_i2_oracle(alpha, beta, g)), rel=1e-12)


def _level_oracle(p, ell):
    # T(ell) = int_0^inf (1 - F(x))^(ell+1) / (1 + x) dx, taken in
    # y = x / rho0 so that the breakpoints sit on the SINR's own scale
    with mp.workdps(30):
        rho0 = mp.mpf(p.rho0)
        return mp.quad(
            lambda y: rho0 * sf_mp(p, rho0 * y) ** (ell + 1) / (1 + rho0 * y),
            [0, 1, 10, mp.inf])


#: G(2; 2/(1 + g)) and IL(2, 2/(1 + g)): an interferer pole next to the
#: noise pole at beta = 1, but not on it
NEAR_UNIT = [kind(2.0, 2.0 / (1.0 + g))
             for g in (1e-7, 5e-7, 9e-7)
             for kind in (lambda r0, r1: LinkProfile.general(r0, (r1,)),
                          LinkProfile.interference_limited)]


def _near_unit_id(p):
    return f"{p.kind}-{p.rho0 / p.rho_int[0] - 1:.0e}"


class TestLevelIntegral:
    """The engine's level integrals T(ell), one formula for every kind: the
    partial fractions of prod_b (x + beta_b)^-(ell+1) * (x + 1)^-1, pole by
    pole, against the half-line integrals I2, with e^(-x/rho0) in I2 for
    the noise-limited and general kinds."""

    @pytest.mark.parametrize("p", [NL, IL, G1, G2, G3, GM],
                             ids=["NL", "IL", "G1", "G2", "G3", "merged"])
    @pytest.mark.parametrize("ell", [0, 1, 3, 7])
    def test_against_quadrature(self, p, ell):
        val, _ = _ClosedFormEngine(p).t(ell, 30)
        assert float(val) == pytest.approx(float(_level_oracle(p, ell)),
                                           rel=1e-12)

    @pytest.mark.parametrize("rho0", [1e3, 10.0, 1.0, 0.1, 0.0125, 2e-4])
    def test_noise_limited_exponential_integral(self, rho0):
        # T(0) = e^a E1(a) with a = 1/rho0 from 1e-3 to 5000, where e^a
        # alone overflows a float; a single term loses at most a digit
        p = LinkProfile.noise_limited(rho0)
        val, lost = _ClosedFormEngine(p).t(0, 30)
        assert lost < 1
        assert float(val) == pytest.approx(float(_level_oracle(p, 0)),
                                           rel=1e-12)

    @pytest.mark.parametrize("ratio", [11.0, 3.0, 1.6, 1.3, 1.0, 0.7, 0.3,
                                       0.05])
    @pytest.mark.parametrize("ell", [0, 1, 8, 38])
    def test_interference_limited_levels(self, ratio, ell):
        # rho0/rho1 from 0.05 to 11 and ell up to 38, where the partial
        # fractions of IL(1.3, 1) cancel by 26 digits: the level holds its
        # 14 digits, and at a fixed 30 digits the reported loss covers the
        # error
        p = LinkProfile.interference_limited(ratio, 1.0)
        ref = _level_oracle(p, ell)
        val, _ = _ClosedFormEngine(p).level(ell, 14)
        assert float(val) == pytest.approx(float(ref), rel=1e-12)
        val, lost = _ClosedFormEngine(p).t(ell, 30)
        with mp.workdps(30):
            assert abs(val - ref) <= 10 ** (lost - 29) * abs(ref)

    @pytest.mark.parametrize("p", [G2, G3], ids=["G2", "G3"])
    @pytest.mark.parametrize("ell", [7, 12])
    def test_lost_digits_bound_the_error(self, p, ell):
        # at 15 digits the partial-fraction sum visibly cancels; the
        # reported loss, which drives the level's precision, must cover it
        val, lost = _ClosedFormEngine(p).t(ell, 15)
        ref = _level_oracle(p, ell)
        with mp.workdps(30):
            rel_err = abs(val - ref) / abs(ref)
            assert rel_err > 0
            actual = 15 + float(mp.log10(rel_err))
        assert lost >= actual

    @pytest.mark.parametrize("p", [G4, GT], ids=["G4", "near_tied"])
    @pytest.mark.parametrize("ell", [0, 1, 3, 7, 15])
    def test_level_holds_its_digits(self, p, ell):
        # at 30 digits these sums cancel by up to 49 digits; the level
        # escalates precision until it holds the 14 digits asked for
        val, acc = _ClosedFormEngine(p).level(ell, 14)
        assert acc >= 14
        ref = _level_oracle(p, ell)
        with mp.workdps(30):
            assert abs(val - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("p", NEAR_UNIT, ids=_near_unit_id)
    @pytest.mark.parametrize("ell", [0, 3, 15])
    def test_near_unit_pole(self, p, ell):
        # the interferer and noise poles, 1e-7 to 9e-7 apart, cancel by
        # about 7 digits per order of the interferer pole; the level
        # escalates until it holds 14
        val, acc = _ClosedFormEngine(p).level(ell, 14)
        assert acc >= 14
        assert float(val) == pytest.approx(float(_level_oracle(p, ell)),
                                           rel=1e-12)


class TestGk:
    @pytest.mark.parametrize("p", [NL, IL, G1, G2, G3])
    @pytest.mark.parametrize("eps", [1, 2, 8])
    def test_closed_form_matches_quadrature(self, p, eps):
        assert g_k(p, eps) == pytest.approx(g_k_quadrature(p, eps), rel=1e-8)

    @pytest.mark.parametrize("p", [NL, IL, G2])
    def test_large_exponent(self, p):
        assert g_k(p, 32) == pytest.approx(g_k_quadrature(p, 32), rel=1e-8)

    def test_monotone_in_eps(self):
        # larger selection exponent -> stochastically larger rate
        vals = [g_k(NL, e) for e in (1, 2, 4, 8, 16)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


#: every entry that takes a best-M budget, as (name, call with N, M and,
#: for the per-user rates, the user count K0)
_BUDGETED = [
    ("user_rate_exact",
     lambda N=16, M=4, K0=2: user_rate_exact(NL, K0, N, M)),
    ("sum_rate_exact", lambda N=16, M=4: sum_rate_exact([NL] * 2, N, M)),
    ("user_rate_asymptotic",
     lambda N=16, M=4, K0=20: user_rate_asymptotic(NL, K0, N, M)),
    ("sum_rate_asymptotic",
     lambda N=16, M=4: sum_rate_asymptotic([NL] * 20, N, M)),
    ("normalizing_constants",
     lambda N=16, M=4: normalizing_constants(NL, 20.0, N, M)),
    ("bestm_cdf_inv", lambda N=16, M=4: bestm_cdf_inv(NL, N, M, 0.5)),
    ("BestMPoly.build", lambda N=16, M=4: BestMPoly.build(N, M)),
    ("simulate_profiles", lambda N=16, M=4: simulate_profiles(
        [NL] * 2, N, SimConfig(num_drops=1, slots_per_drop=10,
                               policy="cdf", M=M, master_seed=0))),
]


class TestUserRate:
    def test_single_user_full_feedback_is_mean_rate(self):
        # one user, full feedback: the scheduler just serves the user's own
        # channel, so the rate is E[log2(1 + X)] = G(1)
        for p in (NL, IL, G2):
            assert user_rate_exact(p, 1, 16, 16) == pytest.approx(
                g_k(p, 1), rel=1e-9)

    def test_single_user_best_one(self):
        # one user, M=1: the block is used with probability 1/N and then
        # carries the best-of-N statistic
        N = 8
        assert user_rate_exact(NL, 1, N, 1) == pytest.approx(
            g_k(NL, N) / N, rel=1e-9)

    @pytest.mark.parametrize("p", [NL, IL, G1, G2])
    @pytest.mark.parametrize("K0,M", [(2, 4), (3, 1), (3, 16)])
    def test_series_matches_collapsed_quadrature(self, p, K0, M):
        N = 16
        series = user_rate_exact(p, K0, N, M)
        quad = _collapsed_rates((p,), K0, N, (M,))[0, 0]
        assert series == pytest.approx(quad, rel=1e-8)

    @pytest.mark.parametrize("rho0,expect,rel", [
        (1e-8, 4.089343984132659e-9, 1e-8),
        (1e8, 2.6468039167782623, 1e-12),
    ])
    def test_rho0_extremes(self, rho0, expect, rel):
        # N * K0 = 160 takes the collapsed quadrature; references from
        # mpmath quadrature of the same integral at 30 digits
        got = user_rate_exact(LinkProfile.noise_limited(rho0), 10, 16, 4)
        assert got == pytest.approx(expect, rel=rel)

    def test_domain(self):
        for eps in (0, 2.5, 2.0, True, "2"):
            for g in (g_k, g_k_quadrature):
                with pytest.raises(DomainError, match="eps"):
                    g(NL, eps)
        with pytest.raises(DomainError):
            user_rate_exact(NL, 0, 16, 4)
        with pytest.raises(DomainError):
            user_rate_exact(NL, 2, 16, 17)
        # every entry that takes a budget refuses a bad one the same way
        bad = [dict(M=2.5), dict(M=True), dict(M=0), dict(M=17),
               dict(M=()), dict(N=16.0)]
        for name, rate in _BUDGETED:
            takes_k0 = name in ("user_rate_exact", "user_rate_asymptotic")
            for case in bad + ([dict(K0=0), dict(K0=2.5)] if takes_k0 else []):
                with pytest.raises(DomainError):
                    rate(**case)

    @pytest.mark.parametrize("K0", [20.5, 2.5, True])
    def test_non_integer_k0_refused(self, K0):
        # 20.5 takes the quadrature, 2.5 the series
        with pytest.raises(DomainError, match="K0 must be an integer"):
            user_rate_exact(NL, K0, 16, 4)

    @pytest.mark.parametrize("M", [2.5, True])
    @pytest.mark.parametrize("rate", [rate for _, rate in _BUDGETED],
                             ids=[name for name, _ in _BUDGETED])
    def test_non_integer_m_refused(self, rate, M):
        with pytest.raises(DomainError, match="M must be an integer"):
            rate(M=M)

    def test_numpy_integer_m_is_its_int(self):
        # numpy's int64 weights C(100, i) would overflow; the int's do not
        out = sum_rate_exact([NL] * 3, 100, np.int64(50))
        assert out == sum_rate_exact([NL] * 3, 100, 50)
        assert BestMPoly.build(np.int64(100), np.int64(50)) \
            == BestMPoly.build(100, 50)
        cell = het_profiles(16)
        np.testing.assert_array_equal(
            sum_rate_asymptotic(cell, 16, np.arange(1, 17)),
            sum_rate_asymptotic(cell, 16, range(1, 17)))


def _collapsed_reference(rho0, K0, N, M):
    """The collapsed rate integral of a noise-limited user, taken in
    u = F(x), x = -rho0 log(1 - u), by mpmath quadrature at 25 digits; at
    each node F_Y is summed from the exact xi1 rationals at enough digits
    to absorb their cancellation."""
    coeffs = xi1_vector(N, M)
    dps = 40 + int(math.log10(float(max(abs(v) for v in coeffs))))
    with mp.workdps(dps):
        c = [mp.mpf(v.numerator) / v.denominator for v in coeffs]

    def integrand(u):
        with mp.workdps(dps):
            FY = mp.fsum(cm * u ** (N - m) for m, cm in enumerate(c))
            dFY = mp.fsum(cm * (N - m) * u ** (N - m - 1)
                          for m, cm in enumerate(c))
            mix = (1 - mp.mpf(M) / N * (1 - FY)) ** (K0 - 1)
            val = dFY * mix * mp.log(1 - rho0 * mp.log1p(-u))
        return +val  # rounded to the quadrature's precision

    with mp.workdps(25):
        val = mp.quad(integrand, [0, 0.5, 0.9, 0.99, 1])
        return float(mp.mpf(M) / N * val / mp.log(2))


class TestWideCarrier:
    """Carriers of 25 to 100 blocks, where the float xi1 polynomial loses
    every digit and its quadrature used to stall."""

    @pytest.mark.parametrize("N,M", [(25, 12), (32, 8), (32, 16), (50, 8),
                                     (64, 8), (100, 8), (100, 50)])
    def test_rate_matches_exact_rational_reference(self, N, M):
        got = user_rate_exact(NL, 10, N, M)
        assert math.isfinite(got)
        assert got == pytest.approx(_collapsed_reference(2.0, 10, N, M),
                                    rel=1e-8)

    @pytest.mark.parametrize("N", [25, 50, 100])
    def test_every_m(self, N):
        rates = [user_rate_exact(NL, 10, N, M) for M in range(1, N + 1)]
        assert all(math.isfinite(r) and r > 0 for r in rates)
        # more feedback never lowers the rate of identical users
        assert all(b >= a * (1 - 1e-12) for a, b in zip(rates, rates[1:]))
        # at M = N the scheduler sees the plain SINR, whatever N is
        assert rates[-1] == pytest.approx(user_rate_exact(NL, 10, 16, 16),
                                          rel=1e-10)


def _product_form_rate_reference(p, K0, N, M):
    """The collapsed rate integral built from the product-form SINR law and
    the exact binomial-tail F_Y, by mpmath quadrature at 30 digits."""
    with mp.workdps(30):
        prob = mp.mpf(M) / N
        cdf_w = [mp.mpf(M - i) / M * math.comb(N, i) for i in range(M)]
        pdf_w = [mp.mpf(N) / M * math.comb(N - 1, j) for j in range(M)]

        def integrand(x):
            s = sf_mp(p, x)
            u = 1 - s
            FY = mp.fsum(w * u ** (N - i) * s**i for i, w in enumerate(cdf_w))
            dFY = mp.fsum(w * u ** (N - 1 - j) * s**j
                          for j, w in enumerate(pdf_w))
            mix = (1 - prob * (1 - FY)) ** (K0 - 1)
            return dFY * pdf_mp(p, x) * mix * mp.log1p(x)

        rho0 = mp.mpf(p.rho0)
        val = mp.quad(integrand, [0, rho0 / 10, rho0, 10 * rho0, 100 * rho0,
                                  mp.inf])
        return float(prob * val / mp.log(2))


class TestTiedInterferers:
    """Interferer scales 1 and 1 - gap.  The partial fractions of the
    closed form have a pole at the tie; the product-form law has none, so
    the rate stays smooth through it."""

    @pytest.mark.parametrize("gap", [0.0, 1e-12, 2e-9, 1e-7, 1e-5])
    @pytest.mark.parametrize("K0", [1, 2, 10])
    def test_rate_matches_reference(self, gap, K0):
        p = LinkProfile.general(5.0, (1.0, 1.0 - gap))
        got = user_rate_exact(p, K0, 16, 4)
        assert math.isfinite(got)
        assert got == pytest.approx(_product_form_rate_reference(p, K0, 16, 4),
                                    rel=1e-10)

    def test_closed_form_refuses_a_tie(self):
        with pytest.raises(CancellationError):
            g_k(LinkProfile.general(5.0, (1.0, 1.0)), 4)


class TestNearUnitPole:
    """An interferer scale within 1e-6 of rho0, but not equal to it, puts
    its pole next to the noise pole: the series refuses it, as it refuses
    near-tied interferers, and the rate is the quadrature's."""

    @pytest.mark.parametrize("p", NEAR_UNIT, ids=_near_unit_id)
    def test_series_refused(self, p):
        assert _series_budget(p) == 0
        with pytest.raises(CancellationError):
            g_k(p, 4)

    @pytest.mark.parametrize("p", NEAR_UNIT, ids=_near_unit_id)
    def test_rate_matches_reference(self, p):
        assert user_rate_exact(p, 4, 16, 4) == pytest.approx(
            _product_form_rate_reference(p, 4, 16, 4), rel=1e-10)

    def test_pole_on_one_is_merged(self):
        # rho_int == rho0 merges the poles exactly: the series still runs
        assert _series_budget(GM) == exact_rate.CLOSED_FORM_MAX_EPS
        assert _series_budget(LinkProfile.interference_limited(1.0, 1.0)) \
            == exact_rate.CLOSED_FORM_MAX_EPS


def test_series_beyond_working_precision_takes_the_quadrature():
    # a far interferer, beta = 2e9: the series needs more than 600 digits
    # and raises, but the rate is the collapsed quadrature's
    p = LinkProfile.general(2.0, (1e-9,))
    assert 16 * 4 <= _series_budget(p)
    exact_rate._engine.cache_clear()
    with pytest.raises(CancellationError):
        g_k(p, 64)
    assert user_rate_exact(p, 4, 16, 4) == pytest.approx(
        _collapsed_rates((p,), 4, 16, (4,))[0, 0], rel=1e-12)
    # level 1 loses 9.9 digits, about 620 at level 63 by extrapolation:
    # both series are refused before any further level is computed
    assert sorted(exact_rate._engine(p)._t_cache) == [0, 1]


def test_each_level_integral_is_computed_at_most_twice(monkeypatch):
    # the benchmark's small-cell grid on its unjittered profiles: every
    # request on a profile reads one level table, and a level is computed
    # again only when a later request needs more of its digits
    computed = []
    compute = _ClosedFormEngine._compute_t

    def counted(self, ell):
        computed.append((self.p, ell))
        return compute(self, ell)

    monkeypatch.setattr(_ClosedFormEngine, "_compute_t", counted)
    exact_rate._engine.cache_clear()
    for p, k0s in ((NL, (1, 2, 4)), (IL, (1, 2, 4)), (G1, (1, 2, 4)),
                   (G2, (1, 2))):
        for K0 in k0s:
            for M in (1, 2, 4, 8, 16):
                user_rate_exact(p, K0, 16, M)
    exact_rate._engine.cache_clear()
    assert len(set(computed)) == 64 * 3 + 32
    assert max(Counter(computed).values()) <= 2


@pytest.mark.parametrize("p,K0,N,M", [
    # criterion 04's profiles; G(2; 1e-6) loses about 6.4 digits per level
    (LinkProfile.general(2.0, (1e-6,)), 4, 16, 4),
    (LinkProfile.noise_limited(2.0), 4, 16, 4),
    (LinkProfile.general(2e6, (1e6,)), 4, 16, 4),
    (LinkProfile.interference_limited(2e6, 1e6), 4, 16, 4),
    # near-tied interferers, whose partial fractions cancel
    *[(LinkProfile.general(5.0, (1.0, 1.0 - gap)), K0, 16, 4)
      for gap in (1e-5, 1e-3) for K0 in (1, 2)],
    *[(p, 2, 8, M) for p in het_profiles(2) for M in range(1, 9)],
])
def test_series_rate_matches_collapsed_quadrature(p, K0, N, M):
    assert N * K0 <= _series_budget(p)  # the premise: a series rate
    assert user_rate_exact(p, K0, N, M) == pytest.approx(
        _collapsed_rates((p,), K0, N, (M,))[0, 0], rel=1e-10)


#: kinds and scales far apart in one cell: rho0 = 1e-8 and 1e8, a golden
#: J = 4 user, a pole on the noise pole and tied interferers
MIXED = [LinkProfile.noise_limited(1e-8), LinkProfile.noise_limited(1e8),
         LinkProfile.general(9e4, (3e4, 2e3, 500.0, 90.0)),
         LinkProfile.interference_limited(1.0, 1.0),
         LinkProfile.general(5.0, (1.0, 1.0))]


def _jittered_golden(K0, seed=7):
    """K0 distinct users cycling through the golden scenario's profiles,
    every scale jittered by +-5 %."""
    rng = np.random.default_rng(seed)
    golden, cell = _golden_profiles(), []
    for k in range(K0):
        p = golden[k % len(golden)]
        s = rng.uniform(0.95, 1.05, 1 + p.num_interferers)
        cell.append(dataclasses.replace(
            p, rho0=p.rho0 * s[0],
            rho_int=tuple(sorted(r * f for r, f in zip(p.rho_int, s[1:]))
                          [::-1])))
    return cell


class TestCellQuadrature:
    """A cell's collapsed rates come from quadratures on meshes shared by
    its users; each user's rate is the one its own quadrature gives."""

    def test_mixed_kinds_and_extreme_scales(self):
        Ms = (4, 16)
        rates = sum_rate_exact(MIXED, 16, Ms).per_user
        for row, p in zip(rates, MIXED):
            np.testing.assert_allclose(
                row, _collapsed_rates((p,), 5, 16, Ms)[0], rtol=1e-12, atol=0)
            assert row[0] == pytest.approx(
                _product_form_rate_reference(p, 5, 16, Ms[0]), rel=1e-10)

    def test_one_m_on_the_mixed_cell(self):
        rates = sum_rate_exact(MIXED, 16, 4).per_user
        for rate, p in zip(rates, MIXED):
            assert rate == pytest.approx(
                _collapsed_rates((p,), 5, 16, (4,))[0, 0], rel=1e-12)

    def test_series_cell_is_the_single_rates(self):
        # N * K0 = 32: every profile but the tied one takes the series;
        # a sequence gives each profile's own rate, bit for bit
        cell = [NL, IL, G1, G2, LinkProfile.general(5.0, (1.0, 1.0))]
        assert [32 <= _series_budget(p) for p in cell] == [True] * 4 + [False]
        rates = user_rate_exact(cell, 2, 16, 4)
        assert rates.tolist() == [user_rate_exact(p, 2, 16, 4) for p in cell]

    def test_one_m_is_one_user_rate_exact_call(self, monkeypatch):
        # the cell's rates at one M come from one user_rate_exact call,
        # the span the benchmark times as a rate
        calls = []
        single = exact_rate.user_rate_exact

        def counted(p, *args):
            calls.append(p)
            return single(p, *args)

        monkeypatch.setattr(exact_rate, "user_rate_exact", counted)
        cell = _jittered_golden(12)
        out = sum_rate_exact(cell, 16, 4)
        assert calls == [tuple(cell)]
        assert out.per_user == tuple(single(cell, 12, 16, 4).tolist())

    def test_cache_entries_are_read_only(self):
        rates = sum_rate_exact([NL, G1], 16, (2, 4)).per_user
        assert rates is _collapsed_rates((NL, G1), 2, 16, (2, 4))
        with pytest.raises(ValueError):
            rates[0, 0] = 0.0

    def test_wide_cell_takes_capped_quadratures(self, monkeypatch):
        # 40 users at all 16 M: as many quadratures as the cap on users
        # times the largest M asks for, each user's rate as its own
        cell = _jittered_golden(40)
        quads, _ = _counting(monkeypatch)
        _collapsed_rates.cache_clear()
        rates = sum_rate_exact(cell, 16, range(1, 17)).per_user
        assert len(quads) == math.ceil(40 / (exact_rate._MAX_COLUMNS // 16))
        for row, p in zip(rates[::7], cell[::7]):
            np.testing.assert_allclose(
                row, _collapsed_rates((p,), 40, 16, tuple(range(1, 17)))[0],
                rtol=1e-12, atol=0)

    @pytest.mark.parametrize("K0,N,M", [(1000, 16, 4), (500, 16, None),
                                        (100, 100, None)])
    def test_memory_is_bounded(self, K0, N, M):
        # one uncached sum rate of a large cell allocates at most 10 MB
        cell = _jittered_golden(K0)
        _collapsed_rates.cache_clear()
        tracemalloc.start()
        try:
            out = sum_rate_exact(cell, N, range(1, N + 1) if M is None else M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _collapsed_rates.cache_clear()
        assert np.all(np.isfinite(out.sum_rate))
        assert peak <= 10e6


class TestSumRate:
    def test_sum_is_total_of_per_user(self):
        profiles = [NL, IL, G2]
        out = sum_rate_exact(profiles, 16, 4)
        assert isinstance(out, RateBreakdown)
        assert out.sum_rate == pytest.approx(sum(out.per_user), rel=1e-14)
        assert len(out.per_user) == 3

    def test_identical_users_share_equally(self):
        out = sum_rate_exact([NL, NL, NL, NL], 16, 2)
        assert np.ptp(out.per_user) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            sum_rate_exact([], 16, 4)

    @pytest.mark.parametrize("profiles,N,M", [([NL, IL, G2], 16, 4),
                                              ([NL, G1], 8, 3)])
    def test_one_m_is_the_single_rates(self, profiles, N, M):
        # one M: a tuple of user_rate_exact floats, series or quadrature,
        # and their float sum
        out = sum_rate_exact(profiles, N, M)
        assert out.per_user == tuple(user_rate_exact(p, len(profiles), N, M)
                                     for p in profiles)
        assert type(out.sum_rate) is float
        assert out.sum_rate == sum(out.per_user)


def _golden_profiles():
    golden = Path(__file__).resolve().parents[1] / "examples_scenarios" \
        / "hetnet_two_macro_four_pico.json"
    scenario, raw = load_scenario(str(golden))
    return scenario_profiles(scenario, raw["seed"])


def _counting(monkeypatch):
    """Count the calls of the quadrature exact_rate imports, and the
    integrand calls each makes: (quadratures, integrand calls), a list
    per quadrature and one list of all, of the abscissae of each call."""
    quads, calls = [], []
    quad = exact_rate.adaptive_quad_halfline

    def counting(f, *args, **kwargs):
        mine = []

        def counted(xs):
            mine.append(len(xs))
            calls.append(len(xs))
            return f(xs)
        quads.append(mine)
        return quad(counted, *args, **kwargs)

    monkeypatch.setattr(exact_rate, "adaptive_quad_halfline", counting)
    return quads, calls


def test_quadrature_calls_per_rate_on_a_large_cell(monkeypatch):
    """Patterson 31 panels on a starting mesh graded toward t = 1, each
    column on its own map scale: at K0 = 50 with the golden scenario's
    users, a collapsed-quadrature rate costs one call of its integrand,
    whatever M.  Each rate is exactly one call of exact_rate's half-line
    quadrature, the span the benchmark's tracer times."""
    profiles = _golden_profiles()
    quads, calls = _counting(monkeypatch)
    for p in profiles:
        for M in range(1, 17):
            _collapsed_rates.cache_clear()  # so that every rate is computed
            user_rate_exact(p, 50, 16, M)
    assert len(quads) == 16 * len(profiles)
    assert len(calls) == 16 * len(profiles)


@pytest.mark.parametrize("Ms", [4, range(1, 17)], ids=["M4", "all_M"])
@pytest.mark.parametrize("cell", [_jittered_golden(50), het_profiles(20)],
                         ids=["golden_K0_50", "hetnet_K0_20"])
def test_integrand_calls_per_quadrature(monkeypatch, cell, Ms):
    # the starting call takes every column's tail out to t = 1 - 4^-8,
    # and its |P31 - K15| estimates settle each quadrature there
    quads, _ = _counting(monkeypatch)
    _collapsed_rates.cache_clear()
    sum_rate_exact(cell, 16, Ms)
    assert quads and max(map(len, quads)) == 1


#: profile -> integrand calls of its all-M surface at K0 = 1 and at 50
#: under the Gauss-Kronrod 15 / Gauss 7 panel rule, which no panel rule
#: should exceed: the refinement follows a singular end of [0, 1] one
#: quarter-cut a round (t = 1 for IL's log-singular tail, t = 0 as well at
#: the extreme scales)
SLOW_TAILS = {
    LinkProfile.interference_limited(4.0, 1.0): (9, 10),
    LinkProfile.interference_limited(1e-8, 1.0): (15, 13),
    LinkProfile.noise_limited(1e8): (11, 2),
}


@pytest.mark.parametrize("p", SLOW_TAILS,
                         ids=lambda p: f"{p.kind}-{p.rho0:g}-{p.rho_int}")
def test_slow_tails_take_no_more_rounds(monkeypatch, p):
    quads, _ = _counting(monkeypatch)
    for K0, before in zip((1, 50), SLOW_TAILS[p]):
        quads.clear()
        _collapsed_rates.cache_clear()
        _surface(p, K0, 16)
        assert len(quads) == 1 and len(quads[0]) <= before


def test_abscissae_of_a_large_cell_at_one_m(monkeypatch):
    # a K0 = 50 golden cell at M = 4 is one quadrature of at most 600
    # integrand abscissae (840 with every column on y = x / rho0)
    cell = _jittered_golden(50)
    quads, calls = _counting(monkeypatch)
    _collapsed_rates.cache_clear()
    sum_rate_exact(cell, 16, 4)
    assert len(quads) == 1
    assert sum(calls) <= 600


#: the interference-limited scale grid, 1e-8 to 1e8
SCALE_GRID = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6, 1e8)


class TestScaleRange:
    """Rates over the model's whole scale range, rho from 1e-8 to 1e8."""

    @pytest.mark.parametrize("rho0", SCALE_GRID)
    def test_interference_limited_rate_is_its_ratios(self, rho0):
        # IL(rho0, rho1) has the law of IL(rho0 / rho1, 1): their rates
        # agree at one M and at every M of the scan, down to ratio 1e-16
        for rho1 in SCALE_GRID:
            p = LinkProfile.interference_limited(rho0, rho1)
            ref = LinkProfile.interference_limited(rho0 / rho1, 1.0)
            assert user_rate_exact(p, 5, 16, 4) == pytest.approx(
                user_rate_exact(ref, 5, 16, 4), rel=1e-12, abs=0)
            np.testing.assert_allclose(_surface(p, 5, 16), _surface(ref, 5, 16),
                                       rtol=1e-12, atol=0)

    def test_random_cells(self):
        """300 random cells: N <= 100, K0 <= 60, up to three distinct
        profiles of every kind with J <= 5, a third of the general ones
        with interferers tied within 1e-9, every scale log-uniform on
        [1e-8, 1e8].  Every rate of the all-M scan is finite, positive and
        nondecreasing in M."""
        rng = np.random.default_rng(2301)

        def scale():
            return float(10.0 ** rng.uniform(-8.0, 8.0))

        def profile():
            kind = rng.integers(3)
            if kind == 0:
                return LinkProfile.noise_limited(scale())
            if kind == 1:
                return LinkProfile.interference_limited(scale(), scale())
            rho = [scale() for _ in range(rng.integers(1, 6))]
            if rng.random() < 1 / 3:
                rho = [rho[0] * (1.0 - 1e-9 * b) for b in range(len(rho))]
            return LinkProfile.general(scale(), rho)

        for _ in range(300):
            N, K0 = int(rng.integers(1, 101)), int(rng.integers(1, 61))
            pool = [profile() for _ in range(rng.integers(1, 4))]
            cell = [pool[k % len(pool)] for k in range(K0)]
            rates = sum_rate_exact(cell, N, range(1, N + 1)).per_user
            assert np.all(np.isfinite(rates)) and np.all(rates > 0), cell
            assert np.all(np.diff(rates, axis=1) >= -1e-9 * rates[:, 1:]), cell


#: the criterion-02 profiles, the golden-scale J = 4 profile, a tie and the
#: extreme serving scales
SURFACE_PROFILES = [
    LinkProfile.noise_limited(0.5), LinkProfile.noise_limited(2.0),
    LinkProfile.noise_limited(20.0),
    LinkProfile.interference_limited(1.0, 1.0), IL,
    LinkProfile.interference_limited(30.0, 1.5),
    LinkProfile.general(4.0, (1.0,)), LinkProfile.general(10.0, (0.2,)), G2,
    LinkProfile.general(8.0, (2.0, 0.5)),
    LinkProfile.general(9e4, (3e4, 2e3, 500.0, 90.0)),
    LinkProfile.general(5.0, (1.0, 1.0)),
    LinkProfile.noise_limited(1e-8), LinkProfile.noise_limited(1e8),
]


def _surface(p, K0, N):
    """p's rate at every M = 1..N, from a cell of K0 copies of p: one
    quadrature through the cache."""
    return sum_rate_exact([p] * K0, N, range(1, N + 1)).per_user[0]


class TestRateSurface:
    """sum_rate_exact over a sequence of Ms: every M of the collapsed
    quadrature on one mesh."""

    @pytest.mark.parametrize("p", SURFACE_PROFILES,
                             ids=lambda p: f"{p.kind}-{p.rho0:g}-{p.rho_int}")
    @pytest.mark.parametrize("K0", [1, 5, 20, 50])
    def test_every_m_matches_the_single_rate(self, p, K0):
        # one integrand on two meshes: the shared mesh holds every column
        # to the tolerance its own mesh would
        rates = _surface(p, K0, 16)
        assert len(rates) == 16
        for M in range(1, 17):
            assert rates[M - 1] == pytest.approx(
                _collapsed_rates((p,), K0, 16, (M,))[0, 0], rel=1e-10)

    @pytest.mark.parametrize("p", [SURFACE_PROFILES[1], SURFACE_PROFILES[5],
                                   SURFACE_PROFILES[9], SURFACE_PROFILES[12]],
                             ids=lambda p: f"{p.kind}-{p.rho0:g}-{p.rho_int}")
    @pytest.mark.parametrize("K0", [1, 50])
    def test_matches_the_mpmath_reference(self, p, K0):
        rates = _surface(p, K0, 16)
        for M in (1, 8, 16):
            assert rates[M - 1] == pytest.approx(
                _product_form_rate_reference(p, K0, 16, M), rel=1e-10)

    @pytest.mark.parametrize("p", SURFACE_PROFILES,
                             ids=lambda p: f"{p.kind}-{p.rho0:g}-{p.rho_int}")
    @pytest.mark.parametrize("N", [50, 100])
    def test_wide_carriers(self, p, N):
        rates = _surface(p, 10, N)
        for M in (1, 8, N // 2, N):
            assert rates[M - 1] == pytest.approx(
                _collapsed_rates((p,), 10, N, (M,))[0, 0], rel=1e-10)

    def test_integrand_calls_on_a_large_cell(self, monkeypatch):
        """All 16 M of a K0 = 50 golden-cell user take one quadrature and
        as few integrand calls as one single rate (one)."""
        profiles = _golden_profiles()
        quads, calls = _counting(monkeypatch)
        for p in profiles:
            _collapsed_rates.cache_clear()  # so that every surface is computed
            _surface(p, 50, 16)
        assert len(quads) == len(profiles)
        assert len(calls) == len(profiles)

    def test_exhausted_budget_raises(self, monkeypatch):
        # IL's log-singular tail at t = 1 takes rounds past the first call,
        # which a budget of four subdivisions does not allow
        quad = exact_rate.adaptive_quad_halfline
        monkeypatch.setattr(
            exact_rate, "adaptive_quad_halfline",
            lambda f, config, vectorized: quad(f, QuadratureConfig(
                abs_tol=config.abs_tol, rel_tol=config.rel_tol,
                max_subdivisions=4), vectorized))
        _collapsed_rates.cache_clear()
        with pytest.raises(ConvergenceError) as info:
            _surface(IL, 50, 16)
        assert math.isfinite(info.value.achieved_error)
        assert info.value.achieved_error > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            sum_rate_exact([], 16, range(1, 17))
        with pytest.raises(DomainError):
            _surface(NL, 2, 0)
        for Ms in ((), (0,), (17,), (3, 17), (2.5,)):
            with pytest.raises(DomainError):
                sum_rate_exact([NL, NL], 16, Ms)

    @pytest.mark.parametrize("Ms", [(7, 3, 16), (16, 1), (5,)])
    def test_columns_in_any_order_are_the_cached_rates(self, Ms):
        # per_user is the cell's own cache entry, bit for bit, each row
        # within 1e-12 of its profile's one-profile quadrature, and
        # sum_rate its column sums
        profiles = [NL, G1, G3]
        out = sum_rate_exact(profiles, 16, np.array(Ms))
        assert out.per_user.shape == (3, len(Ms))
        assert np.array_equal(out.per_user,
                              _collapsed_rates(tuple(profiles), 3, 16, Ms))
        for row, p in zip(out.per_user, profiles):
            np.testing.assert_allclose(
                row, _collapsed_rates((p,), 3, 16, Ms)[0], rtol=1e-12, atol=0)
        assert np.array_equal(out.sum_rate, out.per_user.sum(axis=0))

    def test_sequence_bypasses_the_single_rate(self, monkeypatch):
        # a sequence of Ms never enters user_rate_exact, whose spans mean
        # single rates, nor the series, even where N * K0 is small
        def refuse(*args):
            raise AssertionError("called")

        monkeypatch.setattr(exact_rate, "user_rate_exact", refuse)
        monkeypatch.setattr(exact_rate, "_engine", refuse)
        rates = sum_rate_exact([NL, G1], 4, range(1, 5)).per_user
        assert rates.shape == (2, 4)
