"""Closed-form scheduled-rate machinery.

Oracles: mpmath incomplete-gamma forms for the half-line integrals,
pointwise partial-fraction identities for the residue coefficients, and
direct adaptive quadrature for every rate quantity.
"""

import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from cdfsched import exact_rate
from cdfsched.channel import LinkProfile
from cdfsched.cli import load_scenario, scenario_profiles
from cdfsched.errors import DomainError
from cdfsched.exact_rate import (
    RateBreakdown,
    expansion_terms,
    g_k,
    g_k_quadrature,
    integral_I1,
    integral_I2,
    psi_coefficients,
    selected_rate_conditional,
    sum_rate_exact,
    user_rate_exact,
)
from cdfsched.exact_rate import _rate_quadrature

NL = LinkProfile.noise_limited(2.0)
IL = LinkProfile.interference_limited(4.0, 1.0)
G1 = LinkProfile.general(5.0, (1.0,))
G2 = LinkProfile.general(5.0, (1.0, 0.3))
G3 = LinkProfile.general(3.0, (2.0, 0.7, 0.2))


def _i2_oracle(alpha, beta, gamma):
    # int_0^inf e^(-a x) (b + x)^(-g) dx = a^(g-1) e^(ab) Gamma(1-g, ab)
    with mp.workdps(60):
        val = mp.power(alpha, gamma - 1) * mp.exp(alpha * beta) \
            * mp.gammainc(1 - gamma, alpha * beta)
        return float(val)


class TestIntegralI2:
    @pytest.mark.parametrize("alpha,beta,gamma", [
        (0.5, 1.0, 1), (0.5, 1.0, 4), (2.0, 0.3, 3), (0.05, 5.0, 7),
        (1.0, 1.0, 12),
    ])
    def test_against_incomplete_gamma(self, alpha, beta, gamma):
        assert integral_I2(alpha, beta, gamma) == pytest.approx(
            _i2_oracle(alpha, beta, gamma), rel=1e-9)

    def test_cancellation_fallback(self):
        # the upward recursion loses everything here; the quadrature
        # fallback must still deliver the oracle value
        assert integral_I2(50.0, 0.1, 10) == pytest.approx(
            _i2_oracle(50.0, 0.1, 10), rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            integral_I2(-1.0, 1.0, 1)
        with pytest.raises(DomainError):
            integral_I2(1.0, 1.0, 0)


class TestIntegralI1:
    def _oracle(self, alpha, beta, gamma):
        with mp.workdps(50):
            return float(mp.quad(
                lambda x: mp.exp(-alpha * x) / ((1 + x) * (beta + x) ** gamma),
                [0, 1, 10, mp.inf]))

    @pytest.mark.parametrize("alpha,beta,gamma", [
        (0.5, 2.0, 1), (0.5, 2.0, 5), (1.5, 0.4, 3), (0.2, 8.0, 2),
    ])
    def test_partial_fraction_path(self, alpha, beta, gamma):
        assert integral_I1(alpha, beta, gamma) == pytest.approx(
            self._oracle(alpha, beta, gamma), rel=1e-9)

    def test_gamma_zero_collapses(self):
        assert integral_I1(0.7, 3.0, 0) == pytest.approx(
            integral_I2(0.7, 1.0, 1), rel=1e-14)

    def test_merged_pole_branch(self):
        # beta == 1 merges the two poles: I1 = I2(alpha, 1, gamma+1)
        assert integral_I1(0.9, 1.0 + 1e-9, 4) == pytest.approx(
            integral_I2(0.9, 1.0, 5), rel=1e-6)


class TestPsiCoefficients:
    def test_single_interferer_trivial(self):
        # J = 1: the expansion is already a single pole, psi_j = 1
        for j in (1, 2, 5):
            assert psi_coefficients(G1, (j,), 1, j) == pytest.approx(1.0)

    def test_two_interferer_binomial_form(self):
        # J = 2 closed form:
        #   psi_i^(b) = (-1)^(j_b - i) C(l - i, j_b - i)
        #               * (beta_other - beta_b)^(-(l + 1 - i))
        betas = [G2.rho0 / r for r in G2.rho_int]
        for j1, j2 in ((2, 1), (1, 3), (3, 2)):
            ell = j1 + j2 - 1
            jv = (j1, j2)
            for b, (jb, other) in enumerate(((j1, betas[1]), (j2, betas[0]))):
                for i in range(1, jb + 1):
                    expect = (-1.0) ** (jb - i) \
                        * math.comb(ell - i, jb - i) \
                        * (other - betas[b]) ** (-(ell + 1 - i))
                    got = psi_coefficients(G2, jv, b + 1, i)
                    assert got == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("p,jv", [
        (G2, (2, 3)), (G3, (1, 2, 1)), (G3, (2, 1, 3)),
    ])
    def test_pointwise_partial_fraction_identity(self, p, jv):
        # prod_b (beta_b + x)^(-j_b) == sum_b sum_i psi_i^(b) (beta_b+x)^(-i)
        betas = [p.rho0 / r for r in p.rho_int]
        for x in (0.13, 1.7, 9.0):
            lhs = 1.0
            for beta, j in zip(betas, jv):
                lhs *= (beta + x) ** (-j)
            rhs = 0.0
            for b, j in enumerate(jv):
                for i in range(1, j + 1):
                    rhs += psi_coefficients(p, jv, b + 1, i) \
                        / (betas[b] + x) ** i
            assert rhs == pytest.approx(lhs, rel=1e-10)

    def test_expansion_terms_enumeration(self):
        terms = list(expansion_terms(G2, 2))
        assert all(sum(t.j_vector) == 3 for t in terms)
        assert all(t.i >= 1 for t in terms)

    def test_domain(self):
        with pytest.raises(DomainError):
            psi_coefficients(G2, (1,), 1, 1)
        with pytest.raises(DomainError):
            psi_coefficients(G2, (1, 1), 3, 1)


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
        quad = _rate_quadrature(p, K0, N, M)
        assert series == pytest.approx(quad, rel=1e-8)

    def test_conditional_rate_power_relation(self):
        # E[log2(1+X) | tau0] with tau0=1 equals the best-M marginal rate
        N, M = 16, 4
        direct = selected_rate_conditional(NL, N, M, 1)
        # oracle through the xi1 expansion with closed-form G
        from cdfsched.feedback import xi1_vector
        expect = sum(float(c) * g_k(NL, N - m)
                     for m, c in enumerate(xi1_vector(N, M)) if c != 0)
        assert direct == pytest.approx(expect, rel=1e-8)

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
        with pytest.raises(DomainError):
            user_rate_exact(NL, 0, 16, 4)
        with pytest.raises(DomainError):
            user_rate_exact(NL, 2, 16, 17)


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


def test_quadrature_calls_per_rate_on_a_large_cell(monkeypatch):
    """Round-batched refinement on the rho0-scaled map: at K0 = 50 with the
    golden scenario's users, a collapsed-quadrature rate costs only a few
    calls of its integrand, whatever M."""
    golden = Path(__file__).resolve().parents[1] / "examples_scenarios" \
        / "hetnet_two_macro_four_pico.json"
    scenario, raw = load_scenario(str(golden))
    profiles = scenario_profiles(scenario, raw["seed"])
    calls = []
    quad = exact_rate.adaptive_quad_halfline

    def counting(f, config=None, vectorized=False):
        def counted(xs):
            calls.append(len(xs))
            return f(xs)
        return quad(counted, config, vectorized)

    monkeypatch.setattr(exact_rate, "adaptive_quad_halfline", counting)
    for p in profiles:
        for M in range(1, 17):
            # uncached, so that every rate is computed here
            _rate_quadrature.__wrapped__(p, 50, 16, M)
    assert len(calls) / (16 * len(profiles)) <= 8
