"""Throughput analysis of CDF-based opportunistic scheduling with best-M
partial CQI feedback in heterogeneous multicell OFDMA downlinks.

Public surface: link profiles and SINR distributions (channel), best-M
order-statistics algebra (feedback), exact closed-form rates (exact_rate),
extreme-value approximations (asymptotics), a Monte Carlo simulator
(simulator), a minimum-feedback planner (planner), and a CLI (cli).
"""

__version__ = "0.1.0"

from .asymptotics import (
    NormalizingConstants,
    bestm_cdf,
    bestm_cdf_inv,
    competitor_count,
    normalizing_constants,
    normalizing_constants_closed,
    sum_rate_asymptotic,
    tail_convergence_diagnostic,
    user_rate_asymptotic,
)
from .channel import (
    Cell,
    LinkProfile,
    Scenario,
    build_link_profile,
    sinr_cdf,
    sinr_cdf_inv,
    sinr_pdf,
)
from .errors import (
    CancellationError,
    ConvergenceError,
    DomainError,
    PreconditionError,
    ScenarioError,
)
from .exact_rate import (
    RateBreakdown,
    g_k,
    g_k_quadrature,
    sum_rate_exact,
    user_rate_exact,
)
from .feedback import feedback_count_pmf, xi1, xi2
from .planner import PlanResult, min_feedback_asymptotic, min_feedback_exact, plan_feedback
from .simulator import RateReport, SimConfig, fairness_theta, simulate, simulate_profiles

__all__ = [
    "Cell",
    "LinkProfile",
    "Scenario",
    "NormalizingConstants",
    "PlanResult",
    "RateBreakdown",
    "RateReport",
    "SimConfig",
    "CancellationError",
    "ConvergenceError",
    "DomainError",
    "PreconditionError",
    "ScenarioError",
    "bestm_cdf",
    "bestm_cdf_inv",
    "build_link_profile",
    "competitor_count",
    "fairness_theta",
    "feedback_count_pmf",
    "g_k",
    "g_k_quadrature",
    "min_feedback_asymptotic",
    "min_feedback_exact",
    "normalizing_constants",
    "normalizing_constants_closed",
    "plan_feedback",
    "simulate",
    "simulate_profiles",
    "sinr_cdf",
    "sinr_cdf_inv",
    "sinr_pdf",
    "sum_rate_asymptotic",
    "sum_rate_exact",
    "tail_convergence_diagnostic",
    "user_rate_asymptotic",
    "user_rate_exact",
    "xi1",
    "xi2",
]
