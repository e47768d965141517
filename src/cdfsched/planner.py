"""Minimum-feedback planner: smallest best-M budget meeting a sum-rate target.

Given a cell's link profiles, find the least M such that the sum rate at
best-M feedback retains at least a fraction eta of the full-feedback sum
rate.  The exact and the extreme-value-approximate rate evaluators give two
solvers of one shape: one evaluator call over M = 1..N, `sum_rate_exact`
or `sum_rate_asymptotic`, then a linear scan that verifies (rather than
assumes) that the rate ratio is nondecreasing in M, logging any violation.
The reported ratio at the chosen M is read from the exact solver's sums.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .asymptotics import sum_rate_asymptotic
from .errors import DomainError, PreconditionError, _finite_real
from .exact_rate import sum_rate_exact

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PlanResult:
    """Both solvers' budgets (ints, m_asymptotic None outside the
    extreme-value regime) and the exact-rate ratio at m_exact, a float.

    `evaluations` counts the sum-rate values the solvers compared, N + 1
    for each solver that ran (M = 1..N and the full-feedback reference).
    It counts M values, not evaluator calls: each solver reads all of its
    values from one call.
    """

    m_exact: int | None
    m_asymptotic: int | None
    eta: float
    ratio_at_m: float
    evaluations: int


def _check_eta(eta: float):
    if not 0.0 < _finite_real(eta, "eta", DomainError) <= 1.0:
        raise DomainError(f"eta must be in (0, 1], got {eta}")


def _first_meeting(sums, eta: float, what: str) -> int | None:
    """Smallest M with sums[M-1] / sums[-1] >= eta, or None if none meets it.

    sums holds the sum rate at M = 1..N; a NaN, where that M has no rate,
    never qualifies.  Every dip of the ratio from one M to the next is
    logged, as the ratio is expected to be nondecreasing in M.
    """
    ratios = np.asarray(sums) / sums[-1]
    for M in np.flatnonzero(np.diff(ratios) < -1e-9) + 2:
        log.warning(
            "%s not monotone in M: ratio(%d)=%.12g < ratio(%d)=%.12g",
            what, M, ratios[M - 1], M - 1, ratios[M - 2],
        )
    meets = np.flatnonzero(ratios >= eta)
    return int(meets[0]) + 1 if meets.size else None


def min_feedback_exact(profiles, N: int, eta: float) -> int:
    """Smallest M with sum_rate(M) / sum_rate(N) >= eta.

    One `sum_rate_exact` call gives the sum rate at every M; always
    feasible since the ratio is 1 at M = N.
    """
    _check_eta(eta)
    sums = sum_rate_exact(profiles, N, range(1, N + 1)).sum_rate
    return _first_meeting(sums, eta, "sum-rate ratio")


def min_feedback_asymptotic(profiles, N: int, eta: float) -> int:
    """Smallest M with the asymptotic sum-rate ratio >= eta.

    Values of M for which the extreme-value regime fails (K0*M/N <= 1) are
    skipped as infeasible; an error is raised if none remain.
    """
    _check_eta(eta)
    profiles = list(profiles)
    sums = sum_rate_asymptotic(profiles, N, range(1, N + 1))
    if np.isnan(sums[-1]):
        try:  # the scalar call raises the regime's own error at M = N
            sum_rate_asymptotic(profiles, N, N)
        except PreconditionError as exc:
            raise PreconditionError(
                "full-feedback asymptotic rate unavailable: " + str(exc)
            ) from exc
    answer = _first_meeting(sums, eta, "asymptotic sum-rate ratio")
    if answer is None:
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
    # the solver's own sums again, from the cached per-user quadratures
    sums = sum_rate_exact(profiles, N, range(1, N + 1)).sum_rate
    return PlanResult(m_exact=m_exact, m_asymptotic=m_asym, eta=eta,
                      ratio_at_m=float(sums[m_exact - 1] / sums[-1]),
                      evaluations=evaluations)
