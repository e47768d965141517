"""Adaptive quadrature for the rate integrals, and the Euler-Mascheroni constant.

Everything here is pure and stateless.  The closed form takes its special
function (E1) from mpmath; this quadrature is its independent oracle.
`adaptive_quad_halfline` is the one entry point: it integrates a scalar or
a column-valued integrand over [0, inf), the columns on one shared mesh as
vector integrands share one in DCUHRE (Berntsen, Espelid & Genz, ACM TOMS
17(4), 1991).  A rate at one M is a one-column integrand, the planner's
all-M rate surface an N-column one.  Its panel rule is Patterson's 31-point
extension of Kronrod 15, with K15 as the embedded error check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, _finite_real, _integer

EULER_GAMMA = 0.5772156649015328606

# Patterson's 31-point rule on [-1, 1] and the Kronrod 15 rule it extends
# (T. N. L. Patterson, Math. Comp. 22(104), 1968; QUADPACK's QNG), given
# at t >= 0 and mirrored.  The 16 added nodes, the zeros of the degree-16
# polynomial orthogonal to every lower degree under the weight P7 * E8 (the
# Legendre and Stieltjes factors of the Kronrod nodes), interlace with the
# Kronrod nodes, which sit at the odd indices.  Every weight is positive;
# P31 is exact to degree 47, K15 to degree 23.
_HALF_NODES = np.array([
    0.0,
    0.1045282738107807134,
    0.2077849550078984676,
    0.3085792479105877789,
    0.4058451513773971669,
    0.4986367865528320043,
    0.5860872354676911303,
    0.6673480981043001754,
    0.7415311855993944399,
    0.8076889391724375091,
    0.8648644233597690728,
    0.9122048827832628784,
    0.9491079123427585245,
    0.9753835882088933697,
    0.9914553711208126392,
    0.9986871096784667298,
])
_HALF_P31_WEIGHTS = np.array([
    0.1047432135648058447,
    0.1040999554726973550,
    0.1022141800057027439,
    0.0991968576674329125,
    0.0951780299318306801,
    0.0902618021465586023,
    0.0844987653012430212,
    0.0778753471152459964,
    0.0703320464104006509,
    0.0618219856454498564,
    0.0523843708209826925,
    0.0421935005845465945,
    0.0315777062170458573,
    0.0210394462587267956,
    0.0113194684446834351,
    0.0036349311950498839,
])
#: at the Kronrod nodes, _HALF_NODES[::2]
_HALF_K15_WEIGHTS = np.array([
    0.2094821410847278280,
    0.2044329400752988924,
    0.1903505780647854099,
    0.1690047266392679028,
    0.1406532597155259187,
    0.1047900103222501838,
    0.0630920926299785533,
    0.0229353220105292250,
])
_NODES = np.concatenate((-_HALF_NODES[:0:-1], _HALF_NODES))
_P31_WEIGHTS = np.concatenate((_HALF_P31_WEIGHTS[:0:-1], _HALF_P31_WEIGHTS))
_K15_WEIGHTS = np.concatenate((_HALF_K15_WEIGHTS[:0:-1], _HALF_K15_WEIGHTS))


#: the largest float below 1, the half-line map's last finite node
_LAST_T = np.nextafter(1.0, 0.0)
#: the nodes of x = 2^52 - 1 and 2^53 - 1, the last two finite ones
_TAIL_T = np.array([np.nextafter(_LAST_T, 0.0), _LAST_T])
#: the starting mesh, graded toward t = 1 (see adaptive_quad_halfline)
_START_EDGES = np.concatenate(([0.0, 0.25, 0.5, 0.75],
                               1.0 - 4.0 ** -np.arange(2, 9), [1.0]))


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol"):
            if not _finite_real(getattr(self, name), name, DomainError) > 0:
                raise DomainError(f"{name} must be positive")
        _integer(self.max_subdivisions, "max_subdivisions", DomainError, 1)


def _nodes(lo, hi):
    """The 31 abscissae of every panel [lo, hi], panel by panel."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    return (mid[:, None] + half[:, None] * _NODES).ravel()


def _p31(fx, lo, hi):
    """P31 values and |P31 - K15| error estimates, (panels, C), on every
    panel [lo, hi], from the values fx, (n, C), of the integrand at
    `_nodes(lo, hi)`."""
    half = 0.5 * (hi - lo)
    fx = fx.reshape(len(lo), len(_NODES), -1)
    p31 = half[:, None] * (_P31_WEIGHTS @ fx)
    k15 = half[:, None] * (_K15_WEIGHTS @ fx[:, 1::2])
    return p31, np.abs(p31 - k15)


def adaptive_quad_halfline(f, config: QuadratureConfig | None = None,
                           vectorized: bool = False):
    """Integrate f over [0, inf) via the substitution x = t / (1 - t).

    Suitable for integrands decaying at least exponentially, or that have
    decayed long before x = 2^53, the map's last finite node: a node that
    rounds to t = 1, x = inf, counts as 0.  With
    vectorized=True, f maps an ndarray of n abscissae to n values, or to an
    (n, C) array whose C columns are integrated on one shared mesh;
    otherwise it is called one float abscissa at a time.

    Globally adaptive refinement in t (QUADPACK's QAG loop), batched by
    rounds.  Each panel takes Patterson's 31-point rule, and its error
    estimate is |P31 - K15|, K15 the Kronrod 15 rule on every other node:
    K15 is accurate enough that the estimate, unlike GK15's |K15 - G7|,
    does not overstate the error by orders of magnitude.  It starts from
    eleven panels graded toward t = 1: [0, 1] cut at 1/4, 1/2, 3/4 and at
    1 - 4^-k for k = 2..8, so that one call of the integrand, at 343
    abscissae, follows a slow tail out to x ~ 6.6e4; that one call
    settles a rate of the golden cells.  Column
    c has tolerance tol_c = max(abs_tol, rel_tol * |value_c|); a panel's
    error counts in units of tol_c, at its worst column.  While some
    column's summed error estimate exceeds its tolerance, a round cuts
    into four the panels with the largest errors, as many as it takes for
    the panels left alone to carry less than an eighth of a tolerance, and
    evaluates all the new panels in one call of the integrand.
    max_subdivisions bounds the panel count: a mesh of P panels counts as
    P - 1 subdivisions, so cutting a panel in four counts as three.  The
    starting panels, ten subdivisions, are always made, and with fewer
    than thirteen no round is.

    Returns the integral value, or the C values of a column-valued f.
    Raises ConvergenceError, carrying the worst column's achieved error
    estimate, when the next round would exceed max_subdivisions; or, with
    the largest estimate of the mass beyond x = 2^53, when that exceeds a
    column's tolerance, or is nonzero and has not fallen from x = 2^52.
    """
    if config is None:
        config = QuadratureConfig()
    if not vectorized:
        g = f
        fv = lambda xs: np.array([g(x) for x in xs])
    else:
        fv = f
    column_valued = False

    def mapped(ts):
        # a node at t = 1 would map to x = inf, and 0 * inf is NaN: f is
        # taken at the last finite node instead, and the node counts as 0
        nonlocal column_valued
        inside = ts < 1.0
        ts = np.minimum(ts, _LAST_T)
        one_minus = 1.0 - ts
        fx = np.asarray(fv(ts / one_minus), dtype=float)
        column_valued = fx.ndim == 2
        fx = fx.reshape(len(ts), -1) / (one_minus**2)[:, None]
        fx[~inside] = 0.0
        return fx

    lo, hi = _START_EDGES[:-1], _START_EDGES[1:]
    # the starting panels' call also takes the last two finite nodes: the
    # last ulp of t, [_LAST_T, 1], where no panel has a node, carries about
    # (1 - _LAST_T) times the mapped value there, x f(x) at x = 2^53 - 1; an
    # x f(x) that has not fallen since x = 2^52 - 1 holds on past 2^53 too
    fx = mapped(np.append(_nodes(lo, hi), _TAIL_T))
    before, beyond = (1.0 - _TAIL_T)[:, None] * np.abs(fx[-2:])
    vals, errs = _p31(fx[:-2], lo, hi)
    budget = config.max_subdivisions - (len(lo) - 1)
    while True:
        total_val, total_err = vals.sum(0), errs.sum(0)
        tol = np.maximum(config.rel_tol * np.abs(total_val), config.abs_tol)
        if (total_err <= tol).all():
            if ((beyond > tol) | ((beyond > 0) & (beyond >= before))).any():
                raise ConvergenceError(
                    "adaptive quadrature misses the mass beyond x = 2^53, "
                    "its last node", achieved_error=float(beyond.max()))
            return total_val if column_valued else float(total_val[0])
        scaled = (errs / tol).max(1)
        order = np.argsort(-scaled)
        # cut until the panels left alone carry under an eighth of a tolerance
        cut_so_far = scaled[order].cumsum()
        count = min(int(cut_so_far.searchsorted(cut_so_far[-1] - 0.125)) + 1,
                    len(order), budget // 3)
        if count <= 0:
            worst = float(total_err[np.argmax(total_err / tol)])
            raise ConvergenceError(
                f"adaptive quadrature stalled at error {worst:.3e}",
                achieved_error=worst,
            )
        budget -= 3 * count
        cut, keep = order[:count], order[count:]
        step = 0.25 * (hi[cut] - lo[cut])
        new_lo = (lo[cut] + step * np.arange(4)[:, None]).ravel()
        new_hi = np.concatenate((new_lo[count:], hi[cut]))
        new_vals, new_errs = _p31(mapped(_nodes(new_lo, new_hi)), new_lo,
                                  new_hi)
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        vals = np.concatenate((vals[keep], new_vals))
        errs = np.concatenate((errs[keep], new_errs))
