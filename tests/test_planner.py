"""Minimum-feedback budget planning.

Oracles: brute-force evaluation of the sum-rate ratio over every M, and
the limiting targets eta -> 0+ and eta = 1.
"""

import logging
import math

import numpy as np
import pytest

from cdfsched import exact_rate, planner
from cdfsched.asymptotics import sum_rate_asymptotic
from cdfsched.channel import LinkProfile
from cdfsched.errors import DomainError, PreconditionError
from cdfsched.exact_rate import (
    CLOSED_FORM_MAX_EPS,
    RateBreakdown,
    _collapsed_rates,
    _series_budget,
    sum_rate_exact,
)
from cdfsched.planner import (
    PlanResult,
    min_feedback_exact,
    min_feedback_asymptotic,
    plan_feedback,
)
from test_acceptance import N_RB, het_profiles
from test_exact_rate import _counting, _jittered_golden

NL = LinkProfile.noise_limited(2.0)
PROFILES = [LinkProfile.noise_limited(r) for r in (1.0, 2.0, 4.0, 8.0)] * 3
# small cells whose every rate sum_rate_exact takes from the xi2 series at
# one M, while over M = 1..N, the planner's scan, it is a quadrature
SERIES_CELLS = [([NL], 8), (PROFILES, 4), (het_profiles(1), N_RB),
                (het_profiles(2), 8)]


def _brute_force(profiles, N, eta):
    """Smallest M whose sum_rate_exact ratio meets eta, one M at a time."""
    full = sum_rate_exact(profiles, N, N).sum_rate
    return next(M for M in range(1, N + 1)
                if sum_rate_exact(profiles, N, M).sum_rate / full >= eta)


class TestExactPlanner:
    def test_tiny_target_needs_one_block(self):
        assert min_feedback_exact(PROFILES, 8, 1e-6) == 1

    def test_unit_target_needs_full_feedback(self):
        # the ratio only reaches exactly 1 at M = N (strictly below before)
        assert min_feedback_exact(PROFILES, 8, 1.0) == 8

    def test_matches_brute_force(self):
        # twelve users at N = 8 take the quadrature; one user at N = 8 and
        # twelve at N = 4 take the series in sum_rate_exact
        eta = 0.95
        for profiles, N in ((PROFILES, 8), ([NL], 8), (PROFILES, 4)):
            assert min_feedback_exact(profiles, N, eta) == \
                _brute_force(profiles, N, eta)

    @pytest.mark.parametrize("K0,N,eta", [(20, N_RB, 0.9), (20, N_RB, 0.99),
                                          (50, N_RB, 0.9), (50, N_RB, 0.99),
                                          (10, 100, 0.9), (1, N_RB, 0.9),
                                          (2, 8, 0.9), (2, 8, 0.99)])
    def test_matches_brute_force_on_heterogeneous_cells(self, K0, N, eta):
        # the criterion-09 cells, a 100-block carrier, and two small cells
        # (K0 = 1, 2) whose rates sum_rate_exact takes from the series
        profiles = het_profiles(K0)
        assert min_feedback_exact(profiles, N, eta) == \
            _brute_force(profiles, N, eta)

    def test_small_cells_take_the_series(self):
        # the premise of the series cases above: the surface and
        # sum_rate_exact are different evaluators there
        for profiles, N in SERIES_CELLS:
            assert all(N * len(profiles)
                       <= min(CLOSED_FORM_MAX_EPS, _series_budget(p))
                       for p in profiles)

    def test_non_monotone_ratio_is_logged(self, monkeypatch, caplog):
        # a surface whose rate dips at M = 3 still gives the first M that
        # meets the target, and the dip is logged
        surface = np.array([0.5, 0.8, 0.7, 0.9, 1.0])
        monkeypatch.setattr(planner, "sum_rate_exact",
                            lambda profiles, N, M: RateBreakdown(
                                per_user=surface[None, :], sum_rate=surface))
        with caplog.at_level(logging.WARNING, logger="cdfsched.planner"):
            assert min_feedback_exact([NL, NL], 5, 0.75) == 2
        assert [r.getMessage() for r in caplog.records] == [
            "sum-rate ratio not monotone in M: ratio(3)=0.7 < ratio(2)=0.8"]

    def test_empty_cell_rejected(self):
        with pytest.raises(DomainError):
            min_feedback_exact([], 8, 0.9)

    def test_no_blocks_rejected(self):
        with pytest.raises(DomainError):
            min_feedback_exact(PROFILES, 0, 0.9)

    def test_eta_domain(self):
        with pytest.raises(DomainError):
            min_feedback_exact(PROFILES, 8, 0.0)
        with pytest.raises(DomainError):
            min_feedback_exact(PROFILES, 8, 1.5)
        # eta is a real number: True is not 1, nor "0.9" 0.9
        for eta in (True, "0.9", math.nan):
            with pytest.raises(DomainError, match="eta"):
                plan_feedback(PROFILES, 8, eta)


class TestAsymptoticPlanner:
    def test_matches_exact_within_one_block(self):
        for eta in (0.9, 0.99):
            m_ex = min_feedback_exact(PROFILES, 8, eta)
            m_as = min_feedback_asymptotic(PROFILES, 8, eta)
            assert abs(m_as - m_ex) <= 1

    def test_single_user_infeasible(self):
        # K0 = 1 never reaches the extreme-value regime K0*M/N > 1... except
        # M = N exactly at the boundary, which is also excluded
        with pytest.raises(PreconditionError, match=(
                r"^full-feedback asymptotic rate unavailable: quantile "
                r"argument 1 - N/\(K\*M\) = 0 is not in \(0, 1\)")):
            min_feedback_asymptotic([NL], 8, 0.9)

    def test_scan_is_one_call_over_every_budget(self, monkeypatch):
        calls = []

        def counted(profiles, N, M):
            calls.append(list(M))
            return sum_rate_asymptotic(profiles, N, M)

        monkeypatch.setattr(planner, "sum_rate_asymptotic", counted)
        for eta in (0.5, 0.9, 0.99):
            calls.clear()
            assert min_feedback_asymptotic(PROFILES, 8, eta) == next(
                M for M in range(1, 9)
                if sum_rate_asymptotic(PROFILES, 8, M)
                / sum_rate_asymptotic(PROFILES, 8, 8) >= eta)
            assert calls == [list(range(1, 9))]


class TestPlanFeedback:
    def test_reports_both_solutions(self):
        out = plan_feedback(PROFILES, 8, 0.95)
        assert isinstance(out, PlanResult)
        assert out.m_exact == min_feedback_exact(PROFILES, 8, 0.95)
        assert out.m_asymptotic == min_feedback_asymptotic(PROFILES, 8, 0.95)
        assert out.ratio_at_m >= 0.95
        assert out.evaluations > 0

    @pytest.mark.parametrize("profiles,N", [
        (het_profiles(20), N_RB), (het_profiles(2), 8)],
        ids=["quadrature", "series"])
    def test_ratio_at_m_matches_the_surface(self, profiles, N):
        # ratio_at_m is read from the exact solver's own sums, on the
        # series cell too
        out = plan_feedback(profiles, N, 0.9)
        sums = sum_rate_exact(profiles, N, range(1, N + 1)).sum_rate
        assert out.ratio_at_m == sums[out.m_exact - 1] / sums[-1]

    def test_quadratures_per_plan(self, monkeypatch):
        # a K0 = 50 golden cell, every user distinct: the exact scan
        # integrates the cell in as few quadratures as the column cap
        # allows, and the reported ratio reuses them
        quads, _ = _counting(monkeypatch)
        _collapsed_rates.cache_clear()
        plan_feedback(_jittered_golden(50), N_RB, 0.9)
        users_per_quad = exact_rate._MAX_COLUMNS // N_RB
        assert len(quads) == math.ceil(50 / users_per_quad) < 50

    def test_series_cell_takes_no_series(self, monkeypatch):
        # on a cell whose single rates take the xi2 series, the plan is
        # still all quadrature
        def refuse(p):
            raise AssertionError("series engine called")

        monkeypatch.setattr(exact_rate, "_engine", refuse)
        profiles, N = SERIES_CELLS[3]
        out = plan_feedback(profiles, N, 0.9)
        assert out.m_exact == min_feedback_exact(profiles, N, 0.9)

    def test_no_blocks_rejected(self):
        with pytest.raises(DomainError):
            plan_feedback(PROFILES, 0, 0.9)

    def test_counts_three_sum_rate_calls(self, monkeypatch):
        # the exact scan, the asymptotic scan and the reported ratio: each
        # one evaluator call over M = 1..N
        calls = []
        for name in ("sum_rate_exact", "sum_rate_asymptotic"):
            def counted(profiles, N, M, f=getattr(planner, name), name=name):
                calls.append((name, list(M)))
                return f(profiles, N, M)
            monkeypatch.setattr(planner, name, counted)
        plan_feedback(PROFILES, 8, 0.9)
        assert sorted(calls) == [("sum_rate_asymptotic", list(range(1, 9)))] \
            + [("sum_rate_exact", list(range(1, 9)))] * 2

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
