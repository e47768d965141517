"""Extreme-value approximation of scheduled rates.

With K0 users each feeding back best-M of N blocks, a block is fed back by
tau ~ Binomial(K0, M/N) users.  It goes unused with chance (1 - M/N)^K0;
otherwise its scheduled rate behaves like the maximum of the
E[tau | tau >= 1] = (K0*M/N) / (1 - (1 - M/N)^K0) CQI values that compete
for it, draws from the per-user rate distribution.  The location/scale
constants of that limit give a two-moment rate approximation that is far
cheaper than the exact expansion and tightens quickly in K0.  The constants
and the rate take one profile or a cell and one budget or a sequence,
checked by `feedback.check_budget` as on the exact side.
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
from .errors import (ConvergenceError, DomainError, PreconditionError,
                     _finite_real)
from .feedback import BestMPoly, check_budget
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
    N, (M,), _ = check_budget(N, M)
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
    `BestMPoly.exact_in_f`: a float F_Y loses the sign of F_Y - q within an
    ulp of q, which near q = 1 - 2^-53 spans the u next to the root.  Each
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


def normalizing_constants(p, K, N: int, M) -> NormalizingConstants:
    """Location/scale constants for the maximum of the K*M/N effective
    competitors per resource block.  K may be non-integer, and is one
    count for every budget or a sequence of one count per budget.

    p is one profile or a sequence of them, and M one budget or a
    sequence, for arrays with an axis for each sequence, NaN where
    K*M/N <= 1 (one M raises there).  Users share each M's two best-M
    levels, so one `sinr_cdf_inv` call takes every profile and level.
    """
    one_m = np.ndim(M) == 0
    N, Ms, _ = check_budget(N, M)
    k_dim = np.ndim(K)
    Ks = [K] * len(Ms) if k_dim == 0 else list(K)
    if k_dim > 1 or len(Ks) != len(Ms):
        raise DomainError(f"need one K or one K per budget, got {len(Ks)} "
                          f"for {len(Ms)} budgets")
    for k in Ks:
        if not _finite_real(k, "K", DomainError) > 0:
            raise DomainError(f"K must be positive, got K={k!r}")
    levels, fed = [], []
    for j, (m, k) in enumerate(zip(Ms, Ks)):
        q1 = 1.0 - N / (k * m)
        if q1 > 0.0:
            q2 = 1.0 - N / (k * m * math.e)
            levels += [_bestm_poly_quantile(N, m, q) for q in (q1, q2)]
            fed.append(j)
        elif one_m:
            raise PreconditionError(
                f"quantile argument 1 - N/(K*M) = {q1:.4g} is not in (0, 1); "
                "need K*M/N > 1 for the extreme-value regime"
            )
    x = sinr_cdf_inv(p, np.array(levels))
    a, b = np.full((2,) + x.shape[:-1] + (len(Ms),), np.nan)
    a[..., fed] = np.log2(1.0 + x[..., 0::2])
    b[..., fed] = np.log2((1.0 + x[..., 1::2]) / (1.0 + x[..., 0::2]))
    if one_m:
        a, b = a[..., 0], b[..., 0]
    return NormalizingConstants(*(v if v.ndim else float(v) for v in (a, b)))


def normalizing_constants_closed(kind: str, rho_params, K: float, N: int,
                                 M: int) -> NormalizingConstants:
    """Closed-form constants for the simplified SINR kinds at M = N (full
    feedback) and M = 1 (best-1 feedback)."""
    N, (M,), _ = check_budget(N, M)
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


def competitor_count(K0: int, N: int, M):
    """The K at which `user_rate_asymptotic` takes the constants: the count
    K0 / (1 - (1 - M/N)^K0), whose K*M/N is E[tau | tau >= 1], the mean
    number of users that feed back a block that anyone feeds back, for
    tau ~ Binomial(K0, M/N).  K0 itself where K0*M/N <= 1, so that the
    constants stay NaN (one M raises) exactly where they are at K0.  One M
    gives a float, a sequence of Ms a list."""
    one_m = np.ndim(M) == 0
    N, Ms, K0 = check_budget(N, M, K0)
    counts = [K0 / (1.0 - (1.0 - m / N) ** K0) if K0 * m > N else K0
              for m in Ms]
    return counts[0] if one_m else counts


def user_rate_asymptotic(p, K0: int, N: int, M):
    """Two-moment extreme-value approximation of the individual user rate,
    (1 - (1 - M/N)^K0) (a + gamma b) / K0: the chance that anyone feeds
    the block back, times the mean of the Gumbel limit of the users who
    did, shared by the K0 users.  The first factor has taken out the
    blocks nobody fed back, so a and b are those of a fed-back block,
    taken at `competitor_count`.  p and M take the shapes of
    `normalizing_constants`, and so do the rates, NaN where K0*M/N <= 1
    (one M raises there)."""
    one_m = np.ndim(M) == 0
    N, Ms, K0 = check_budget(N, M, K0)
    budgets = Ms[0] if one_m else Ms
    nc = normalizing_constants(p, competitor_count(K0, N, budgets), N,
                               budgets)
    used = np.array([1.0 - (1.0 - m / N) ** K0 for m in Ms])
    rates = (used[0] if one_m else used) * (nc.a + EULER_GAMMA * nc.b) / K0
    return rates if np.ndim(rates) else float(rates)


def sum_rate_asymptotic(profiles, N: int, M):
    """Extreme-value approximation of the cell sum rate; a sequence of Ms
    gives an array, NaN where K0*M/N <= 1 (one M raises there).  The
    column sums of `user_rate_asymptotic`, in profile order."""
    profiles = tuple(profiles)
    if not profiles:
        raise DomainError("need at least one profile")
    rates = user_rate_asymptotic(profiles, len(profiles), N, M)
    sums = [sum(column) for column in
            rates.reshape(len(profiles), -1).T.tolist()]
    return np.array(sums) if np.ndim(M) else sums[0]


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
    to a positive constant.  at_limit: every value is there to rounding, as
    for noise-limited full feedback; no trend is then claimed.
    """

    family: str
    x_grid: tuple[float, ...]
    values: tuple[float, ...]
    trend_decreasing: bool
    limit_estimate: float
    at_limit: bool


def tail_convergence_diagnostic(p: LinkProfile, N: int,
                                M: int) -> TailDiagnosticReport:
    """Evaluate the domain-of-attraction functional on a geometric grid.

    Interference-limited profiles have a polynomial tail (frechet family);
    noise-limited and general profiles an exponential one (gumbel family).
    With F_Y = P(F), the gumbel functional is -1 - (1-F_Y) f_Y' / f_Y^2,
    f_Y' = P''(F) f^2 + P'(F) f', where P'' is one binomial term and the
    product-form density has f' = S (hazard' - hazard^2).
    """
    poly = BestMPoly.build(N, M)
    if p.kind == INTERFERENCE_LIMITED:
        family = FRECHET
        scale = p.rho0 / p.rho_int[0]
        grid = np.geomspace(scale, 1e4 * scale, 33)
    else:
        family = GUMBEL
        grid = np.geomspace(p.rho0, 300.0 * p.rho0, 33)
    s = sinr_sf(p, grid)
    sf_y, d1 = poly.sf_in_s(s), poly.derivative_in_f(1.0 - s)
    if family == FRECHET:
        values = grid * d1 * sinr_pdf(p, grid) / sf_y
    else:
        terms = [rho_b / (p.rho0 + rho_b * grid) for rho_b in p.rho_int]
        hazard = 1.0 / p.rho0 + sum(terms)
        f, df = s * hazard, s * (-sum(t * t for t in terms) - hazard**2)
        d2 = (N / M) * (N - 1) * (math.comb(N - 2, M - 1) if N > 1 else 0) \
            * s ** (M - 1) * (1.0 - s) ** (N - 1 - M)
        values = -1.0 - sf_y * (d2 * f * f + d1 * df) / (d1 * f) ** 2

    # compare the mean distance from the limit (0 for gumbel, the last value
    # for frechet) over the last decade against the one before it
    gap = np.abs(values - values[-1]) if family == FRECHET else np.abs(values)
    at_limit = bool(np.all(gap <= 64 * np.finfo(float).eps))  # dimensionless
    logs = np.log10(grid)
    last = gap[logs > logs[-1] - 1.0]
    prev = gap[(logs > logs[-1] - 2.0) & (logs <= logs[-1] - 1.0)]
    return TailDiagnosticReport(
        family=family,
        x_grid=tuple(grid.tolist()),
        values=tuple(values.tolist()),
        trend_decreasing=not at_limit and bool(last.mean() < prev.mean()),
        limit_estimate=float(values[-1]),
        at_limit=at_limit,
    )
