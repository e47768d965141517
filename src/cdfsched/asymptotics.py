"""Extreme-value approximation of scheduled rates.

With K users each feeding back best-M of N blocks, roughly K*M/N CQI values
compete per block, so the scheduled rate behaves like the maximum of K*M/N
draws from the per-user rate distribution.  The location/scale constants of
that limit give a two-moment rate approximation that is far cheaper than the
exact expansion and tightens quickly in K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import (
    INTERFERENCE_LIMITED,
    NOISE_LIMITED,
    LinkProfile,
    sinr_cdf_inv,
    sinr_pdf,
    sinr_sf,
)
from .errors import ConvergenceError, DomainError, PreconditionError
from .feedback import BestMPoly
from .specfun import EULER_GAMMA


@dataclass(frozen=True)
class NormalizingConstants:
    """Location (a) and scale (b) of the limiting rate maximum, bits/s/Hz."""

    a: float
    b: float


def bestm_cdf_inv(p: LinkProfile, N: int, M: int, q: float) -> float:
    """Quantile of the scheduler-side (best-M) CQI distribution.

    Inverts the monotone polynomial in F on [0, 1], then maps through the
    SINR quantile function.
    """
    if not 0.0 < q < 1.0:
        raise DomainError(f"quantile argument must be in (0, 1), got {q}")
    return sinr_cdf_inv(p, _bestm_poly_quantile(N, M, q))


#: Newton steps the best-M quantile may take before it gives up
_QUANTILE_MAX_STEPS = 200


@lru_cache(maxsize=1024)
def _bestm_poly_quantile(N: int, M: int, q: float) -> float:
    """The u in [0, 1] where the best-M polynomial F_Y(u) reaches q; shared
    by every user of a cell, whatever its SINR distribution.

    F_Y is a positive binomial sum with a positive derivative on (0, 1)
    (see `feedback`), so the root is unique; M = 1 and M = N have closed
    forms.  Otherwise Newton runs on ln F_Y against ln u, nearly linear at
    both ends (c u^(N-M+1) near 0, 1 - (N/M)(1 - u) near 1), from
    min(q^(1/N), 1 - (1 - q) M/N), an upper bound on the root.  Each step
    compares F_Y with q exactly and takes the log-slope u F_Y' / F_Y from
    `BestMPoly.exact_in_f`: the float Horner sums drift by up to 1e-14
    near F_Y = 1 at M = 99, a hundred ulps of the root.  Each
    evaluation moves one end of the bracket (lo, hi), first (0, 1), to u; a
    step that leaves it bisects it instead.  The iteration stops when a
    step or the bracket is within about one ulp of u, and raises
    ConvergenceError after _QUANTILE_MAX_STEPS steps.
    """
    if M == 1:
        return q ** (1.0 / N)
    if M == N:
        return q
    poly = BestMPoly.build(N, M)
    q_num, q_den = q.as_integer_ratio()
    lo, hi = 0.0, 1.0
    u = min(q ** (1.0 / N), 1.0 - (1.0 - q) * M / N)
    for _ in range(_QUANTILE_MAX_STEPS):
        f_num, f_den, slope = poly.exact_in_f(u)
        num, den = f_num * q_den, f_den * q_num   # F_Y(u) / q = num / den
        if num == den:
            return u
        if num < den:
            lo = u
        else:
            hi = u
        # ln(F_Y / q): to full precision near the root, finite far from it
        diff = num - den
        log_ratio = (math.log1p(diff / den) if 2 * abs(diff) < den
                     else math.log(num) - math.log(den))
        # Newton step in ln u, over the log-slope; capped where exp overflows
        nxt = u * math.exp(min(700.0, -log_ratio / slope))
        if abs(nxt - u) <= math.ulp(u):
            return nxt
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if hi - lo <= 2.0 * math.ulp(nxt):
            return nxt
        u = nxt
    raise ConvergenceError(
        f"best-M quantile did not converge in {_QUANTILE_MAX_STEPS} steps "
        f"(N={N}, M={M}, q={q!r}); bracket [{lo!r}, {hi!r}]")


def normalizing_constants(p: LinkProfile, K: float, N: int,
                          M: int) -> NormalizingConstants:
    """Location/scale constants for the maximum of the K*M/N effective
    competitors per resource block.  K may be non-integer."""
    if not 1 <= M <= N:
        raise DomainError(f"need 1 <= M <= N, got M={M}, N={N}")
    q1 = 1.0 - N / (K * M)
    if q1 <= 0.0:
        raise PreconditionError(
            f"quantile argument 1 - N/(K*M) = {q1:.4g} is not in (0, 1); "
            "need K*M/N > 1 for the extreme-value regime"
        )
    q2 = 1.0 - N / (K * M * math.e)
    x1 = bestm_cdf_inv(p, N, M, q1)
    x2 = bestm_cdf_inv(p, N, M, q2)
    a = math.log2(1.0 + x1)
    b = math.log2((1.0 + x2) / (1.0 + x1))
    return NormalizingConstants(a=a, b=b)


def normalizing_constants_closed(kind: str, rho_params, K: float, N: int,
                                 M: int) -> NormalizingConstants:
    """Closed-form constants for the simplified SINR kinds at M = N (full
    feedback) and M = 1 (best-1 feedback)."""
    if kind == NOISE_LIMITED:
        rho0 = rho_params if np.isscalar(rho_params) else rho_params[0]
        ratio = None
    elif kind == INTERFERENCE_LIMITED:
        rho0, rho1 = rho_params
        ratio = rho0 / rho1
    else:
        raise DomainError(f"no closed form for kind {kind!r}")
    if rho0 <= 0:
        raise DomainError("rho0 must be positive")

    if M == N:
        if K <= 1:
            raise PreconditionError(f"need K > 1 for full feedback, got K={K}")
        if kind == INTERFERENCE_LIMITED:
            a = math.log2(1.0 + ratio * (K - 1.0))
            b = math.log2((1.0 + ratio * (K * math.e - 1.0))
                          / (1.0 + ratio * (K - 1.0)))
        else:
            a = math.log2(1.0 + rho0 * math.log(K))
            b = math.log2(1.0 + rho0 / (1.0 + rho0 * math.log(K)))
        return NormalizingConstants(a=a, b=b)

    if M == 1:
        if K <= N:
            raise PreconditionError(
                f"best-1 closed form needs K > N, got K={K}, N={N}"
            )
        root = 1.0 / N

        def inv_plus_one(Keff: float) -> float:
            top = (Keff - N) ** root
            gap = Keff**root - top
            if kind == INTERFERENCE_LIMITED:
                return 1.0 + ratio * top / gap
            return 1.0 + rho0 * math.log(Keff**root / gap)

        a = math.log2(inv_plus_one(K))
        b = math.log2(inv_plus_one(K * math.e) / inv_plus_one(K))
        return NormalizingConstants(a=a, b=b)

    raise DomainError(f"closed forms exist only for M in {{1, N}}, got M={M}")


def user_rate_asymptotic(p: LinkProfile, K0: int, N: int, M: int) -> float:
    """Two-moment extreme-value approximation of the individual user rate."""
    nc = normalizing_constants(p, K0, N, M)
    outage_factor = 1.0 - (1.0 - M / N) ** K0
    return outage_factor * (nc.a + EULER_GAMMA * nc.b) / K0


def sum_rate_asymptotic(profiles, N: int, M: int) -> float:
    """Extreme-value approximation of the cell sum rate."""
    profiles = list(profiles)
    if not profiles:
        raise DomainError("need at least one profile")
    return sum(user_rate_asymptotic(p, len(profiles), N, M) for p in profiles)


# ---------------------------------------------------------------------------
# empirical tail diagnostics

GUMBEL = "gumbel"
FRECHET = "frechet"


@dataclass(frozen=True)
class TailDiagnosticReport:
    """Numerical check of which extreme-value family the scheduler-side CQI
    tail approaches.

    For the gumbel family the functional is d/dx[(1-F_Y)/f_Y], which should
    tend to 0; for the frechet family it is x*f_Y/(1-F_Y), which should tend
    to a positive constant.
    """

    family: str
    x_grid: tuple[float, ...]
    values: tuple[float, ...]
    trend_decreasing: bool
    limit_estimate: float


def tail_convergence_diagnostic(p: LinkProfile, N: int,
                                M: int) -> TailDiagnosticReport:
    """Evaluate the domain-of-attraction functional on a geometric grid.

    Interference-limited profiles have a polynomial tail (frechet family);
    noise-limited and general profiles an exponential one (gumbel family).
    """
    if not 1 <= M <= N:
        raise DomainError(f"need 1 <= M <= N, got M={M}, N={N}")
    poly = BestMPoly.build(N, M)

    def hazard_inverse(x: float) -> float:
        # (1 - F_Y) / f_Y, with 1 - F_Y taken in s = 1 - F to keep the tail
        s = sinr_sf(p, x)
        f = float(sinr_pdf(p, x))
        return float(poly.sf_in_s(s) / (poly.derivative_in_f(1.0 - s) * f))

    if p.kind == INTERFERENCE_LIMITED:
        family = FRECHET
        scale = p.rho0 / p.rho_int[0]
        grid = np.geomspace(scale, 1e4 * scale, 33)
        values = tuple(float(x / hazard_inverse(x)) for x in grid)
    else:
        family = GUMBEL
        grid = np.geomspace(p.rho0, 300.0 * p.rho0, 33)
        values = []
        for x in grid:
            # Richardson-extrapolated central difference, relative step 1e-4
            h = 1e-4 * x
            d_h = (hazard_inverse(x + h) - hazard_inverse(x - h)) / (2 * h)
            d_h2 = (hazard_inverse(x + h / 2)
                    - hazard_inverse(x - h / 2)) / h
            values.append(float((4.0 * d_h2 - d_h) / 3.0))
        values = tuple(values)

    # compare the mean distance from the limit (0 for gumbel, the last value
    # for frechet) over the last decade against the one before it
    arr = np.asarray(values)
    gap = np.abs(arr - arr[-1]) if family == FRECHET else np.abs(arr)
    logs = np.log10(grid)
    last = gap[logs > logs[-1] - 1.0]
    prev = gap[(logs > logs[-1] - 2.0) & (logs <= logs[-1] - 1.0)]
    trend = bool(last.mean() < prev.mean())
    return TailDiagnosticReport(
        family=family,
        x_grid=tuple(float(x) for x in grid),
        values=values,
        trend_decreasing=trend,
        limit_estimate=float(values[-1]),
    )
