"""Minimum-feedback planner: smallest best-M budget meeting a sum-rate target.

Given a cell's link profiles, find the least M such that the sum rate at
best-M feedback retains at least a fraction eta of the full-feedback sum
rate.  The exact and the extreme-value-approximate rate evaluators give two
solvers; the scan is linear in M and verifies (rather than assumes) that
the rate ratio is nondecreasing in M, logging any violation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .asymptotics import sum_rate_asymptotic
from .errors import DomainError, PreconditionError
from .exact_rate import sum_rate_exact

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PlanResult:
    m_exact: int | None
    m_asymptotic: int | None
    eta: float
    ratio_at_m: float
    evaluations: int


def _check_eta(eta: float):
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"eta must be in (0, 1], got {eta}")


def min_feedback_exact(profiles, N: int, eta: float) -> int:
    """Smallest M with sum_rate_exact(M) / sum_rate_exact(N) >= eta.

    Ascending linear scan; always feasible since the ratio is 1 at M = N.
    """
    _check_eta(eta)
    profiles = list(profiles)
    full = sum_rate_exact(profiles, N, N).sum_rate
    prev_ratio = None
    answer = None
    for M in range(1, N + 1):
        ratio = sum_rate_exact(profiles, N, M).sum_rate / full
        if prev_ratio is not None and ratio < prev_ratio - 1e-9:
            log.warning(
                "sum-rate ratio not monotone in M: ratio(%d)=%.12g < "
                "ratio(%d)=%.12g", M, ratio, M - 1, prev_ratio,
            )
        prev_ratio = ratio
        if answer is None and ratio >= eta:
            answer = M
    return answer


def min_feedback_asymptotic(profiles, N: int, eta: float) -> int:
    """Smallest M with the asymptotic sum-rate ratio >= eta.

    Values of M for which the extreme-value regime fails (K0*M/N <= 1) are
    skipped as infeasible; an error is raised if none remain.
    """
    _check_eta(eta)
    profiles = list(profiles)
    try:
        full = sum_rate_asymptotic(profiles, N, N)
    except PreconditionError as exc:
        raise PreconditionError(
            "full-feedback asymptotic rate unavailable: " + str(exc)
        ) from exc
    prev_ratio = None
    answer = None
    any_feasible = False
    for M in range(1, N + 1):
        try:
            ratio = sum_rate_asymptotic(profiles, N, M) / full
        except PreconditionError:
            continue
        any_feasible = True
        if prev_ratio is not None and ratio < prev_ratio - 1e-9:
            log.warning(
                "asymptotic sum-rate ratio not monotone in M: "
                "ratio(%d)=%.12g < previous %.12g", M, ratio, prev_ratio,
            )
        prev_ratio = ratio
        if answer is None and ratio >= eta:
            answer = M
    if not any_feasible or answer is None:
        raise PreconditionError(
            "no feedback budget M satisfies the extreme-value regime "
            "and the rate-ratio target for this user count"
        )
    return answer


def plan_feedback(profiles, N: int, eta: float) -> PlanResult:
    """Solve both formulations and report the chosen budget.

    ratio_at_m reports the exact-rate ratio at the exact solution;
    m_asymptotic is None where the extreme-value regime fails.
    """
    _check_eta(eta)
    profiles = list(profiles)
    m_exact = min_feedback_exact(profiles, N, eta)
    evaluations = N + 1
    try:
        m_asym = min_feedback_asymptotic(profiles, N, eta)
        evaluations += N + 1
    except PreconditionError:
        m_asym = None
    full = sum_rate_exact(profiles, N, N).sum_rate
    ratio = sum_rate_exact(profiles, N, m_exact).sum_rate / full
    return PlanResult(m_exact=m_exact, m_asymptotic=m_asym, eta=eta,
                      ratio_at_m=ratio, evaluations=evaluations)
