"""Special functions and adaptive quadrature for the closed-form rate expressions.

Everything here is pure and stateless.  The three special functions are
implemented only over the parameter ranges the rate formulas need; the
adaptive quadrature doubles as the independent oracle for them.
"""

from __future__ import annotations

import math
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


def exp_integral_e1(x: float) -> float:
    """E1(x) = int_x^inf exp(-t)/t dt for x > 0."""
    return math.exp(-x) * exp_e1(x) if x >= 1.0 else _e1_series(x)


def exp_e1(x: float) -> float:
    """exp(x) * E1(x), stable for large x where E1 alone underflows.

    Continued fraction for x >= 1 (modified Lentz), series below.
    """
    if x <= 0:
        raise DomainError(f"exp_e1 requires x > 0, got {x}")
    if x < 1.0:
        return math.exp(x) * _e1_series(x)
    # E1(x) = e^-x / (x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...)))
    b = x + 1.0
    tiny = 1e-300
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -float(i * i)
        b += 2.0
        d = a * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise ConvergenceError("continued fraction for E1 did not converge")


def _e1_series(x: float) -> float:
    # E1(x) = -gamma - ln x + sum_{n>=1} (-1)^(n+1) x^n / (n * n!)
    if x <= 0:
        raise DomainError(f"E1 requires x > 0, got {x}")
    s = -EULER_GAMMA - math.log(x)
    t = 1.0
    for n in range(1, 60):
        t *= -x / n
        s -= t / n
        if abs(t) < 1e-18 * max(abs(s), 1e-300):
            break
    return s


def beta_fn(x: float, y: float) -> float:
    """Euler Beta function; exact factorial path for integer arguments."""
    if x <= 0 or y <= 0:
        raise DomainError(f"beta_fn requires positive arguments, got ({x}, {y})")
    xi, yi = round(x), round(y)
    if x == xi and y == yi and xi + yi <= 170:
        return (
            math.factorial(xi - 1) * math.factorial(yi - 1)
            / math.factorial(xi + yi - 1)
        )
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def hyp2f1_unit_params(c: int, z: float) -> float:
    """Gauss hypergeometric 2F1(1, 1; c; z) for integer c >= 2 and z < 1.

    Direct series for |z| <= 0.5, otherwise the Euler integral
    (c-1) * int_0^1 (1-t)^(c-2) / (1 - z t) dt.
    """
    if c < 2 or c != int(c):
        raise DomainError(f"hyp2f1_unit_params requires integer c >= 2, got {c}")
    if z >= 1.0:
        raise DomainError(f"hyp2f1_unit_params requires z < 1, got {z}")
    c = int(c)
    if z == 0.0:
        return 1.0
    if abs(z) <= 0.5:
        # term ratio: z * (n+1) / (c+n)
        s = 1.0
        t = 1.0
        for n in range(0, 500):
            t *= z * (n + 1) / (c + n)
            s += t
            if abs(t) < 1e-17 * abs(s):
                return s
        raise ConvergenceError("2F1 series did not converge")
    val, _ = adaptive_quad(
        lambda t: (1.0 - t) ** (c - 2) / (1.0 - z * t),
        0.0,
        1.0,
        QuadratureConfig(abs_tol=1e-14, rel_tol=1e-13, max_subdivisions=2000),
    )
    return (c - 1) * val


def _gk15(f, lo, hi):
    """GK15 values and |K15 - G7| error estimates on every panel [lo, hi],
    with one call of the vectorized integrand for all panels."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    fx = np.asarray(f((mid[:, None] + half[:, None] * _GK_NODES).ravel()),
                    dtype=float).reshape(len(lo), len(_GK_NODES))
    k15 = half * (fx @ _GK_WEIGHTS)
    g7 = half * (fx[:, 1::2] @ _G7_WEIGHTS)
    return k15, np.abs(k15 - g7)


def adaptive_quad(f, a: float, b: float, config: QuadratureConfig | None = None,
                  vectorized: bool = False):
    """Adaptive Gauss-Kronrod integration of f over the finite interval [a, b].

    Globally adaptive GK15/G7 refinement (QUADPACK's QAG rule), batched by
    rounds.  It starts from [a, b] cut into four panels.  While the summed
    error estimate exceeds max(abs_tol, rel_tol * |value|), a round cuts
    into four the panels with the largest error estimates, as many as it
    takes for the panels left alone to carry less than an eighth of that
    tolerance, and evaluates all the new panels in one call of the
    integrand.  Cutting a panel in four counts as three subdivisions (the
    panels three bisections make); the starting panels are always made.

    Returns (value, error_estimate).  `f` must accept an ndarray of abscissae
    when vectorized=True; a scalar function is wrapped otherwise.  Raises
    ConvergenceError, carrying the achieved error estimate, when the next
    round would exceed max_subdivisions.
    """
    if config is None:
        config = QuadratureConfig()
    if not vectorized:
        g = f
        f = lambda xs: np.array([g(x) for x in xs])
    edges = np.linspace(a, b, 5)
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _gk15(f, lo, hi)
    budget = config.max_subdivisions - 3
    while True:
        total_val, total_err = float(vals.sum()), float(errs.sum())
        tol = max(config.abs_tol, config.rel_tol * abs(total_val))
        if total_err <= tol:
            return total_val, total_err
        order = np.argsort(errs)[::-1]
        left_alone = total_err - np.cumsum(errs[order])
        count = min(int(np.searchsorted(-left_alone, -0.125 * tol)) + 1,
                    len(order), budget // 3)
        if count <= 0:
            raise ConvergenceError(
                f"adaptive quadrature stalled at error {total_err:.3e}",
                achieved_error=total_err,
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

    val, _ = adaptive_quad(mapped, 0.0, 1.0, config, vectorized=True)
    return val
