"""Minimum-feedback budget planning.

Oracles: brute-force evaluation of the sum-rate ratio over every M, and
the limiting targets eta -> 0+ and eta = 1.
"""

import pytest

from cdfsched.asymptotics import sum_rate_asymptotic
from cdfsched.channel import LinkProfile
from cdfsched.errors import DomainError, PreconditionError
from cdfsched.exact_rate import sum_rate_exact
from cdfsched.planner import (
    PlanResult,
    min_feedback_exact,
    min_feedback_asymptotic,
    plan_feedback,
)

NL = LinkProfile.noise_limited(2.0)
PROFILES = [LinkProfile.noise_limited(r) for r in (1.0, 2.0, 4.0, 8.0)] * 3


class TestExactPlanner:
    def test_tiny_target_needs_one_block(self):
        assert min_feedback_exact(PROFILES, 8, 1e-6) == 1

    def test_unit_target_needs_full_feedback(self):
        # the ratio only reaches exactly 1 at M = N (strictly below before)
        assert min_feedback_exact(PROFILES, 8, 1.0) == 8

    def test_matches_brute_force(self):
        N, eta = 8, 0.95
        full = sum_rate_exact(PROFILES, N, N).sum_rate
        expect = min(
            M for M in range(1, N + 1)
            if sum_rate_exact(PROFILES, N, M).sum_rate / full >= eta
        )
        assert min_feedback_exact(PROFILES, N, eta) == expect

    def test_eta_domain(self):
        with pytest.raises(DomainError):
            min_feedback_exact(PROFILES, 8, 0.0)
        with pytest.raises(DomainError):
            min_feedback_exact(PROFILES, 8, 1.5)


class TestAsymptoticPlanner:
    def test_matches_exact_within_one_block(self):
        for eta in (0.9, 0.99):
            m_ex = min_feedback_exact(PROFILES, 8, eta)
            m_as = min_feedback_asymptotic(PROFILES, 8, eta)
            assert abs(m_as - m_ex) <= 1

    def test_single_user_infeasible(self):
        # K0 = 1 never reaches the extreme-value regime K0*M/N > 1... except
        # M = N exactly at the boundary, which is also excluded
        with pytest.raises(PreconditionError):
            min_feedback_asymptotic([NL], 8, 0.9)


class TestPlanFeedback:
    def test_reports_both_solutions(self):
        out = plan_feedback(PROFILES, 8, 0.95)
        assert isinstance(out, PlanResult)
        assert out.m_exact == min_feedback_exact(PROFILES, 8, 0.95)
        assert out.m_asymptotic == min_feedback_asymptotic(PROFILES, 8, 0.95)
        assert out.ratio_at_m >= 0.95
        assert out.evaluations > 0

    def test_asymptotic_budget_meets_target(self):
        out = plan_feedback(PROFILES, 8, 0.9)
        M = out.m_asymptotic
        assert M is not None
        assert (sum_rate_asymptotic(PROFILES, 8, M)
                / sum_rate_asymptotic(PROFILES, 8, 8)) >= 0.9

    def test_single_user_has_no_asymptotic_budget(self):
        # K0 = 1 never reaches the extreme-value regime; the exact solver
        # still answers
        out = plan_feedback([NL], 8, 0.9)
        assert out.m_asymptotic is None
        assert out.m_exact == min_feedback_exact([NL], 8, 0.9)
        assert out.evaluations == 9
