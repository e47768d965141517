"""Adaptive quadrature for the rate integrals, and the Euler-Mascheroni constant.

Everything here is pure and stateless.  The closed form takes its special
functions (E1, 2F1) from mpmath; this quadrature is its independent oracle.
`adaptive_quad` integrates one scalar integrand; `adaptive_quad_columns`
integrates a column-valued one over [0, inf) on one shared mesh, as
vector integrands share one in DCUHRE (Berntsen, Espelid & Genz, ACM TOMS
17(4), 1991), for the planner's all-M rate surfaces.  Both run one round
loop, and a scalar integrand is its one-column case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

EULER_GAMMA = 0.5772156649015328606

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1].
_GK_NODES = np.array([
    -0.9914553711208126392,
    -0.9491079123427585245,
    -0.8648644233597690728,
    -0.7415311855993944399,
    -0.5860872354676911303,
    -0.4058451513773971669,
    -0.2077849550078984676,
    0.0,
    0.2077849550078984676,
    0.4058451513773971669,
    0.5860872354676911303,
    0.7415311855993944399,
    0.8648644233597690728,
    0.9491079123427585245,
    0.9914553711208126392,
])
_GK_WEIGHTS = np.array([
    0.0229353220105292250,
    0.0630920926299785533,
    0.1047900103222501838,
    0.1406532597155259187,
    0.1690047266392679028,
    0.1903505780647854099,
    0.2044329400752988924,
    0.2094821410847278280,
    0.2044329400752988924,
    0.1903505780647854099,
    0.1690047266392679028,
    0.1406532597155259187,
    0.1047900103222501838,
    0.0630920926299785533,
    0.0229353220105292250,
])
# Embedded 7-point Gauss rule uses every other Kronrod node.
_G7_WEIGHTS = np.array([
    0.1294849661688696933,
    0.2797053914892766679,
    0.3818300505051189450,
    0.4179591836734693878,
    0.3818300505051189450,
    0.2797053914892766679,
    0.1294849661688696933,
])


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be at least 1")


def _gk15(f, lo, hi):
    """GK15 values and |K15 - G7| error estimates, (panels, C), on every
    panel [lo, hi], with one call of the vectorized integrand for all
    panels.  f maps n abscissae to n values (C = 1) or to an (n, C) array."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    fx = np.asarray(f((mid[:, None] + half[:, None] * _GK_NODES).ravel()),
                    dtype=float).reshape(len(lo), len(_GK_NODES), -1)
    k15 = half[:, None] * (_GK_WEIGHTS @ fx)
    g7 = half[:, None] * (_G7_WEIGHTS @ fx[:, 1::2])
    return k15, np.abs(k15 - g7)


def _adaptive_columns(f, a: float, b: float, config: QuadratureConfig):
    """The round loop behind `adaptive_quad` and `adaptive_quad_columns`.

    Integrates every column of f over [a, b] on one shared mesh and returns
    the (C,) values and error estimates.  Column c has tolerance
    tol_c = max(abs_tol, rel_tol * |value_c|); a panel's error counts in
    units of tol_c, at its worst column, and the loop stops when every
    column's summed error is within its tolerance.
    """
    edges = np.linspace(a, b, 5)
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _gk15(f, lo, hi)
    budget = config.max_subdivisions - 3
    while True:
        total_val, total_err = vals.sum(0), errs.sum(0)
        tol = np.maximum(config.rel_tol * np.abs(total_val), config.abs_tol)
        if (total_err <= tol).all():
            return total_val, total_err
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
        new_vals, new_errs = _gk15(f, new_lo, new_hi)
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        vals = np.concatenate((vals[keep], new_vals))
        errs = np.concatenate((errs[keep], new_errs))


def adaptive_quad(f, a: float, b: float, config: QuadratureConfig | None = None):
    """Adaptive Gauss-Kronrod integration of f over the finite interval [a, b].

    Globally adaptive GK15/G7 refinement (QUADPACK's QAG rule), batched by
    rounds.  It starts from [a, b] cut into four panels.  While the summed
    error estimate exceeds max(abs_tol, rel_tol * |value|), a round cuts
    into four the panels with the largest error estimates, as many as it
    takes for the panels left alone to carry less than an eighth of that
    tolerance, and evaluates all the new panels in one call of the
    integrand.  Cutting a panel in four counts as three subdivisions (the
    panels three bisections make); the starting panels are always made.

    Returns (value, error_estimate).  `f` must accept an ndarray of
    abscissae.  Raises ConvergenceError, carrying the achieved error
    estimate, when the next round would exceed max_subdivisions.
    """
    if config is None:
        config = QuadratureConfig()
    val, err = _adaptive_columns(f, a, b, config)
    return float(val[0]), float(err[0])


def adaptive_quad_halfline(f, config: QuadratureConfig | None = None,
                           vectorized: bool = False):
    """Integrate f over [0, inf) via the substitution x = t / (1 - t).

    Suitable for integrands decaying at least exponentially.  Returns the
    integral value; raises ConvergenceError (carrying the achieved error
    estimate) on failure.
    """
    if config is None:
        config = QuadratureConfig()
    if not vectorized:
        g = f
        fv = lambda xs: np.array([g(x) for x in xs])
    else:
        fv = f

    def mapped(ts):
        ts = np.asarray(ts, dtype=float)
        one_minus = 1.0 - ts
        xs = ts / one_minus
        return fv(xs) / one_minus**2

    val, _ = adaptive_quad(mapped, 0.0, 1.0, config)
    return val


def adaptive_quad_columns(f, config: QuadratureConfig):
    """Integrate every column of f over [0, inf) on one shared mesh.

    `f` maps an ndarray of n abscissae to an (n, C) array.  The loop is
    `adaptive_quad`'s, on `adaptive_quad_halfline`'s map x = t / (1 - t),
    with each column held to its own tolerance (see `_adaptive_columns`).

    Returns the C values.  Raises ConvergenceError, carrying the worst
    column's achieved error estimate, when the next round would exceed
    max_subdivisions.
    """
    def mapped(ts):
        one_minus = 1.0 - ts
        return f(ts / one_minus) / (one_minus**2)[:, None]

    vals, _ = _adaptive_columns(mapped, 0.0, 1.0, config)
    return vals
