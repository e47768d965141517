"""Exact per-user and sum rates for CDF-based scheduling with best-M feedback.

Above a small N * K0 a rate is one positive integral: the Binomial(K0, M/N)
feedback count collapses in closed form, leaving the binomial-tail F_Y of
`feedback`, which `_collapsed_rates` integrates in floating point over the
product-form SINR law of `channel`.  It integrates a whole cell at once:
every (user, M) column is one column of a vector integrand on one shared
mesh, each user in its own y = x / s on its map scale s (`_map_scale`),
the users one stack of the SINR law's numbers (`channel.stacked`), taken
a bounded number of columns at a time.  Each integrand call takes the
law's CDF and density from one pass (`channel._cdf_and_pdf`) and F_Y
from `BestMPoly.columns`, the one float evaluator of F_Y, and finishes
in place in those fresh arrays.  A cell's rates at one M are one
`user_rate_exact` call, and at a sequence of Ms, the planner's scan,
one `_collapsed_rates` call.

Below it the rate is the paper's series, the exact xi2 rationals weighting
G(eps) = int log2(1+x) d(F^eps).  Each G is an alternating binomial sum
of level integrals T(ell) = int S(x)^(ell+1) / (1+x) dx, so the series is
one exact level-weight vector, folded from the xi2 rationals, times a
per-profile table of T(ell).  The closed form of T runs on mpmath and is
one formula for every profile kind: the product-form S^(ell+1) / (1+x)
is e^(-alpha x) times one product of poles, (x + beta_b)^-(ell+1) for
each interferer and (x + 1)^-1, whose partial fractions integrate term
by term to the half-line integrals I2.  Each level is held to the digits
its term needs against the cancellation measured on the weighted sum,
and the public entry points return floats.  The partial fractions live
only here, in the engine, the independent oracle for the product-form
quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np

from .channel import (GENERAL, LinkProfile, _cdf_and_pdf, sinr_cdf, sinr_pdf,
                      stacked)
from .errors import CancellationError, DomainError, _integer
from .feedback import (BestMPoly, check_budget, feedback_count_pmf_exact,
                       xi2_vector)
from .specfun import QuadratureConfig, adaptive_quad_halfline

#: largest eps for which the general-kind closed form is attempted
CLOSED_FORM_MAX_EPS = 64

#: largest interferer count the general-kind closed form takes
CLOSED_FORM_MAX_INTERFERERS = 4

_LN2 = math.log(2.0)

_MAX_DPS = 600

_OUT_OF_DIGITS = (f"closed form needs more than {_MAX_DPS} digits of working "
                  "precision; use the quadrature path")

#: digits each series term is held to against the sum: 14 for the float
#: rate, 3 more for up to 64 terms and term sizes rounded to a bit
_TERM_DIGITS = 17.0

#: relative gap below which two partial-fraction poles count as merged
_MERGED_POLE_TOL = 1e-6


def _psi_table(betas, j_vector, b):
    """Coefficients psi_i, i = 0..j_b, of the partial-fraction expansion of
    prod_c (x + beta_c)^(-j_c) at the pole -beta_b.

    psi_i is the Taylor coefficient a_(j_b - i) of g(t) = prod_{c != b}
    (d_c + t)^(-j_c) about t = 0, with d_c = beta_c - beta_b; psi_0 is
    identically zero.  g solves P g' = Q g for the polynomials
    P = prod_{c != b} (d_c + t) and Q = -sum_c j_c P / (d_c + t), so
    a_0 = prod_c d_c^(-j_c) and (n + 1) p_0 a_(n+1) = sum_k q_k a_(n-k) -
    sum_(k >= 1) p_k (n + 1 - k) a_(n+1-k), O(K) per coefficient for K
    poles (Stanley 1980).  Works for float or mpf inputs.
    """
    zero = betas[b] * 0
    others = [(betas[c] - betas[b], j_vector[c])
              for c in range(len(betas)) if c != b]

    def poly(ds):  # coefficients of prod_d (d + t), lowest degree first
        out = [1 + zero]
        for d in ds:
            out = [d * hi + lo for hi, lo in zip(out + [zero], [zero] + out)]
        return out

    p = poly(d for d, _ in others)
    q = [zero] * (len(p) - 1)
    for c, (_, jc) in enumerate(others):
        rest = poly(d for i, (d, _) in enumerate(others) if i != c)
        q = [qk - jc * rk for qk, rk in zip(q, rest)]
    a = [math.prod((d ** -jc for d, jc in others), start=1 + zero)]
    for n in range(j_vector[b] - 1):
        acc = sum(q[k] * a[n - k] for k in range(min(n + 1, len(q))))
        acc -= sum(p[k] * (n + 1 - k) * a[n + 1 - k]
                   for k in range(1, min(n + 2, len(p))))
        a.append(acc / ((n + 1) * p[0]))
    return [zero] + a[::-1]


# ---------------------------------------------------------------------------
# arbitrary-precision closed-form engine

def _i2_mp(alpha, beta, gamma_max):
    """I2(alpha, beta, gamma) = int_0^inf e^(-alpha x) (x + beta)^(-gamma) dx
    for gamma = 1..gamma_max as (values, lost-digit estimates), via the
    stable-seeded upward recursion in mpf arithmetic.

    At alpha = 0 the divergent I2(0, beta, 1) is seeded with its finite
    part -ln(beta): a partial-fraction sum of total order >= 2 has gamma = 1
    coefficients summing to zero, so the divergent parts cancel, and the
    recursion gives beta^(1 - gamma) / (gamma - 1) unchanged above it."""
    seed = -mp.log(beta) if alpha == 0 else \
        mp.exp(alpha * beta) * mp.e1(alpha * beta)
    ulp = mp.mpf(10) ** (-mp.mp.dps + 1)
    vals, err, losses = [seed], abs(seed) * ulp, [0.0]
    for g in range(2, gamma_max + 1):
        lead = beta ** (1 - g)
        err = (lead * ulp + alpha * err) / (g - 1)
        val = (lead - alpha * vals[-1]) / (g - 1)
        vals.append(val)
        losses.append(float(mp.mp.dps) if val == 0 else max(
            0.0, mp.mp.dps - 1 + 0.30103 * (mp.mag(err) - mp.mag(val))))
    return vals, losses


def _lost_digits(biggest, total) -> float:
    """Decimal digits cancelled between the largest term and the sum."""
    if total == 0:
        return float(mp.mp.dps)
    return 0.30103 * max(0, mp.mag(biggest) - mp.mag(total) + 1)


class _ClosedFormEngine:
    """Per-profile evaluator of the closed-form rate integral in mpf
    arithmetic with cancellation-aware precision escalation."""

    def __init__(self, profile: LinkProfile):
        self.p = profile
        # ell -> (dps, T(ell), lost digits): it holds dps - lost digits
        self._t_cache: dict[int, tuple[int, mp.mpf, float]] = {}

    # -- level integrals --------------------------------------------------

    def t(self, ell: int, dps: int):
        cached = self._t_cache.get(ell)
        if cached is not None and cached[0] >= dps:
            return cached[1], cached[2]
        with mp.workdps(dps):
            val, lost = self._compute_t(ell)
        self._t_cache[ell] = (dps, val, lost)
        return val, lost

    def _compute_t(self, ell: int):
        """T(ell) and its lost digits, one formula for every kind:
        S^(ell+1) / (1 + x) = e^(-alpha x) prod_b beta_b^(ell+1) (x +
        beta_b)^-(ell+1) (x + 1)^-1, with beta_b = rho0 / rho_b and alpha =
        nu (ell + 1) / rho0, nu the noise weight.  Its partial fractions,
        pole by pole, integrate term by term to I2 (Gradshteyn & Ryzhik
        3.353); a pole on 1 (rho_b == rho0) merges with the noise pole
        exactly."""
        rho0 = mp.mpf(self.p.rho0)
        betas = [rho0 / mp.mpf(r) for r in self.p.rho_int]
        alpha = self.p.noise * (ell + 1) / rho0
        orders = {mp.mpf(1): 1}
        for beta in betas:
            orders[beta] = orders.get(beta, 0) + ell + 1
        poles, js = list(orders), list(orders.values())
        terms, lost_i2 = [], 0.0
        for b, beta in enumerate(poles):
            i2, i2_lost = _i2_mp(alpha, beta, js[b])
            terms += [c * v for c, v in zip(_psi_table(poles, js, b)[1:], i2)]
            lost_i2 = max(lost_i2, *i2_lost)
        total = mp.fsum(terms)
        scale = mp.fprod(beta ** (ell + 1) for beta in betas)
        lost = lost_i2 + _lost_digits(max(map(abs, terms)), total)
        return scale * total, lost

    def level(self, ell: int, digits: float):
        """T(ell) and the accurate digits it holds, at least `digits` unless
        that takes more than _MAX_DPS working digits.

        A level short of digits is recomputed at the next power of two
        above digits plus its measured loss (a new level takes its
        neighbour's loss per level), so the table serves every request on
        the profile and each level holds the digits its terms need."""
        prev = self._t_cache.get(ell - 1, (0, None, 0.0))
        dps, val, lost = self._t_cache.get(
            ell, (0, None, prev[2] * (ell + 1) / max(ell, 1)))
        while dps - lost < digits and dps < _MAX_DPS:
            rung = 1 << (math.ceil(digits + lost) - 1).bit_length()
            dps = min(_MAX_DPS, max(32, rung))
            val, lost = self.t(ell, dps)
        return val, dps - lost

    # -- the rate integral -------------------------------------------------

    def weighted_sum(self, d):
        """(1/ln 2) * sum_ell d[ell] * T(ell) for exact rational weights d,
        as an mpf with about 14 accurate digits.

        Level ell is held to _TERM_DIGITS + log10(|d_ell T_ell| / sum), the
        cancellation measured on the dot product itself."""
        if self.p.kind == GENERAL and len(d) > CLOSED_FORM_MAX_EPS:
            raise CancellationError(
                f"closed form limited to eps <= {CLOSED_FORM_MAX_EPS} for "
                f"general profiles (got eps={len(d)}); use the quadrature "
                "path")
        if _series_budget(self.p) == 0:
            raise CancellationError(
                "closed form limited to profiles with at most "
                f"{CLOSED_FORM_MAX_INTERFERERS} interferers, no two tied and "
                f"none tied to rho0 within {_MERGED_POLE_TOL:.0e} unless equal "
                "to it; use the quadrature path")
        # level ell loses about ell times level 1's digits: a top level
        # that would not fit _MAX_DPS refuses after the first two levels
        for ell in range(min(2, len(d))):
            self.level(ell, _TERM_DIGITS)
        if len(d) > 1 and (self._t_cache[1][2] * (len(d) - 1)
                           + _TERM_DIGITS > _MAX_DPS):
            raise CancellationError(_OUT_OF_DIGITS)
        need = [_TERM_DIGITS] * len(d)
        while True:
            tab = [self.level(ell, n) for ell, n in enumerate(need)]
            if any(acc < n for (_, acc), n in zip(tab, need)):
                raise CancellationError(_OUT_OF_DIGITS)
            with mp.workdps(int(max(acc for _, acc in tab)) + 20):
                terms = [mp.mpf(c.numerator) / c.denominator * v
                         for c, (v, _) in zip(d, tab)]
                total = mp.fsum(terms)
                mags = [0.30103 * mp.mag(t) for t in terms]
                # the sum's size, or its error bound where that is larger
                size = max([0.30103 * mp.mag(total) if total > 0 else -mp.inf]
                           + [m - acc for m, (_, acc) in zip(mags, tab)])
                new = [_TERM_DIGITS + m - size for m in mags]
                if total > 0 and all(acc >= n
                                     for (_, acc), n in zip(tab, new)):
                    return total / mp.log(2)
            need = [max(a, b) for a, b in zip(need, new)]


@lru_cache(maxsize=128)
def _engine(p: LinkProfile) -> _ClosedFormEngine:
    return _ClosedFormEngine(p)


def _binomial_levels(coeffs) -> tuple[Fraction, ...]:
    """Level weights d_ell = (-1)^ell * sum_eps c_eps * C(eps, ell + 1) of
    sum_eps c_eps * G(eps), as G(eps) = (1/ln 2) * sum_{ell < eps}
    (-1)^ell * C(eps, ell + 1) * T(ell); summed over one denominator."""
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    nums = [(eps, c.numerator * (den // c.denominator))
            for eps, c in coeffs.items()]
    return tuple(Fraction((-1) ** ell * sum(n * math.comb(eps, ell + 1)
                                            for eps, n in nums), den)
                 for ell in range(max(coeffs)))


def g_k(p: LinkProfile, eps: int) -> float:
    """Closed-form G(eps) = int_0^inf log2(1+x) d(F_Z(x))^eps in bits/s/Hz."""
    eps = _integer(eps, "eps", DomainError, 1)
    return float(_engine(p).weighted_sum(_binomial_levels({eps: 1})))


def g_k_quadrature(p: LinkProfile, eps: int) -> float:
    """Quadrature evaluation of G(eps), the oracle for the closed-form g_k.

    It integrates eps F^(eps-1) f log2(1+x) straight from the public
    `sinr_cdf` and `sinr_pdf`, in y = x / s on the profile's
    `_map_scale` s: it shares the SINR law and the quadrature with the
    rates, but not the collapsed-rate kernel of `_quadrature`.
    """
    eps = _integer(eps, "eps", DomainError, 1)
    scale = float(_map_scale(stacked([p]))[0, 0])

    def integrand(ys):
        xs = scale * ys
        return (scale * sinr_cdf(p, xs) ** (eps - 1) * sinr_pdf(p, xs)
                * np.log1p(xs) / _LN2)

    return eps * adaptive_quad_halfline(integrand, _QUADRATURE,
                                        vectorized=True)


# ---------------------------------------------------------------------------
# rate assembly

@dataclass(frozen=True)
class RateBreakdown:
    """Per-user rates and their sum: floats at one M; at a sequence of Ms,
    per_user is a (K0, len(Ms)) array and sum_rate its column sums."""

    per_user: tuple[float, ...] | np.ndarray
    sum_rate: float | np.ndarray


@lru_cache(maxsize=256)
def _level_weights(K0: int, N: int, M: int, xis) -> tuple[Fraction, ...]:
    """Exact level weights of the series rate, keyed on its xi2 vectors
    xis[tau0 - 1]: the rate is (1/K0) * sum_tau0 P(tau0) * sum_m xi2_m *
    G(N * tau0 - m), folded into one sum over the levels."""
    coeffs: dict[int, Fraction] = {}
    for tau0, xi in enumerate(xis, 1):
        w = feedback_count_pmf_exact(K0, M, N, tau0) / K0
        for m, c in enumerate(xi):
            coeffs[N * tau0 - m] = coeffs.get(N * tau0 - m, 0) + w * c
    return _binomial_levels(coeffs)


def _series_budget(p: LinkProfile) -> int:
    """Largest CDF-power exponent worth running through the closed form.

    The budgets stay as they are until the series path leaves production
    (ROADMAP, item C), because the benchmark's small-cell grid and its
    smoke test are built on them.  Tied interferers get none: the partial
    fractions have a pole there.  Nor does an interferer scale near rho0
    but not on it, whose pole sits next to the noise pole at beta = 1.
    """
    if any(r != p.rho0 and abs(r - p.rho0) < _MERGED_POLE_TOL * max(r, p.rho0)
           for r in p.rho_int):
        return 0
    if p.kind != GENERAL or p.num_interferers <= 1:
        return CLOSED_FORM_MAX_EPS
    r = p.rho_int  # sorted descending
    if any(a - b < _MERGED_POLE_TOL * a for a, b in zip(r, r[1:])):
        return 0
    if p.num_interferers == 2:
        return 32
    if p.num_interferers <= CLOSED_FORM_MAX_INTERFERERS:
        return 16
    return 0


#: users times the largest M that one quadrature takes at most, the width
#: of the best-M term table at each node: it bounds the integrand's arrays
_MAX_COLUMNS = 256

_QUADRATURE = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-11,
                               max_subdivisions=6000)


def _map_scale(rows):
    """(K, 1) map scales s of the stacked rows, each near the top of its
    rate integrand's mass: the SINR scale sigma = rho0 / (nu + sum_b
    rho_b), or, where sigma is smaller, 1, where log1p(x) stops growing
    like x, or rho0 if below 1 when the noise term cuts the law off
    there."""
    sigma = rows.rho0 / (rows.noise + sum(rows.rho_int))
    return np.maximum(sigma, np.where(rows.noise > 0,
                                      np.minimum(1.0, rows.rho0), 1.0))


def _quadrature(profiles, K0: int, N: int, Ms: tuple[int, ...]) -> np.ndarray:
    """(len(profiles), len(Ms)) collapsed-rate integrals on one shared mesh,
    each column in its own y = x / s, s its `_map_scale`.

    The integrand evaluates the SINR law once a call, CDF and density
    from one `_log_sf` pass, and writes only the arrays that call made:
    the F_Y array of `BestMPoly.columns` becomes the mix, its power and
    the products, the density the weight.  The read-only
    `_column_weights` and `_collapsed_rates` results are never written.
    Each step is one IEEE operation per entry, in the order of
    (1 - p + p F_Y)^(K0-1) dF_Y (s f log1p(x) / ln 2), p = M / N;
    tests/test_exact_rate_bits.py freezes the rates' bits."""
    prob = np.array(Ms) / N
    stay = 1.0 - prob
    rows = stacked(profiles)
    scale = _map_scale(rows)

    def integrand(ys):  # node-major rows, the users side by side
        xs = scale * ys
        cdf, weight = _cdf_and_pdf(rows, xs)
        FY, dFY = BestMPoly.columns(N, Ms, cdf.T)
        FY *= prob
        FY += stay
        FY **= K0 - 1  # not np.power: numpy's `**` squares for 2
        FY *= dFY
        weight *= scale
        weight *= np.log1p(xs)
        weight /= _LN2
        FY *= weight.T.reshape(-1, 1)
        return FY.reshape(len(ys), -1)

    vals = adaptive_quad_halfline(integrand, _QUADRATURE, vectorized=True)
    return prob * vals.reshape(len(profiles), len(Ms))


@lru_cache(maxsize=128)
def _collapsed_rates(profiles: tuple[LinkProfile, ...], K0: int, N: int,
                     Ms: tuple[int, ...]) -> np.ndarray:
    """Scheduled-rate integrals of a cell's profiles with the feedback-count
    binomial collapsed, as a read-only (len(profiles), len(Ms)) array.
    Every (user, M) column of one quadrature shares its mesh; a cell
    wider than _MAX_COLUMNS takes a few, and equal profiles are integrated
    once.

    Averaging tau0 * F_Y^(tau0-1) over the Binomial(K0, M/N) feedback count
    telescopes to K0 * (M/N) * (1 - M/N + (M/N) F_Y)^(K0-1), leaving one
    smooth positive integral per (user, K0, N, M).  It is taken in
    y = x / s, s the column's `_map_scale`, so that the half-line map,
    which resolves t = y / (1 + y) finely near 0 and coarsely near 1, has
    each column's mass below y = 1: on y = x / rho0 an
    interference-limited user with rho0 / rho1 = 1e-9 put its mass at
    y ~ 1e9, where the nodes round to t = 1.
    """
    # neighbours in map scale share a mesh with few panels to spare
    unique = list(dict.fromkeys(profiles))
    scales = _map_scale(stacked(unique))[:, 0]
    unique = [unique[k] for k in np.argsort(scales, kind="stable")]
    step = max(1, _MAX_COLUMNS // max(Ms))
    rates = np.concatenate([_quadrature(unique[a:a + step], K0, N, Ms)
                            for a in range(0, len(unique), step)])
    row = {p: k for k, p in enumerate(unique)}
    rates = rates[[row[p] for p in profiles]]
    rates.setflags(write=False)
    return rates


def user_rate_exact(p, K0: int, N: int, M: int,
                    closed_form_max_eps: int = CLOSED_FORM_MAX_EPS):
    """Individual user rate under CDF scheduling with best-M feedback.

    p is one LinkProfile, for a float, or a sequence of the cell's
    profiles, for a float array of their rates.  A profile takes the xi2
    series with the closed-form G when every exponent in the expansion
    stays within its closed-form budget; the others, and any whose series
    needs more than _MAX_DPS working digits, take one collapsed quadrature
    together.
    """
    N, (M,), K0 = check_budget(N, M, K0)
    profiles = (p,) if isinstance(p, LinkProfile) else tuple(p)
    rates, quad = np.empty(len(profiles)), []
    for k, pk in enumerate(profiles):
        if N * K0 <= closed_form_max_eps and N * K0 <= _series_budget(pk):
            xis = tuple(xi2_vector(N, M, tau0) for tau0 in range(1, K0 + 1))
            try:
                rates[k] = float(_engine(pk).weighted_sum(
                    _level_weights(K0, N, M, xis)))
                continue
            except CancellationError:
                pass
        quad.append(k)
    if quad:
        # the 1/K0 scheduling share cancels against the K0 from the
        # collapsed sum
        rates[quad] = _collapsed_rates(tuple(profiles[k] for k in quad),
                                       K0, N, (M,))[:, 0]
    return float(rates[0]) if isinstance(p, LinkProfile) else rates


def sum_rate_exact(profiles, N: int, M) -> RateBreakdown:
    """Cell sum rate: the sum of the individual user rates (the scheduler is
    equiprobable across users, so the per-user rates add).

    One M is one `user_rate_exact` call on the cell.  A sequence of Ms
    is one `_collapsed_rates` call, the cell's collapsed quadrature at
    every M, whatever N * K0, and gives arrays (see `RateBreakdown`).
    """
    profiles = tuple(profiles)
    if not profiles:
        raise DomainError("need at least one profile")
    K0 = len(profiles)
    if np.ndim(M) == 0:
        per_user = tuple(user_rate_exact(profiles, K0, N, M).tolist())
        return RateBreakdown(per_user=per_user, sum_rate=float(sum(per_user)))
    N, Ms, _ = check_budget(N, M)
    per_user = _collapsed_rates(profiles, K0, N, Ms)
    return RateBreakdown(per_user=per_user, sum_rate=per_user.sum(axis=0))
