"""Best-M order-statistics algebra.

The scheduler-side CQI CDF under best-M feedback is a polynomial in the
per-block SINR CDF F:

    F_Y(x) = sum_m xi1(N, M, m) * F(x)^(N-m),   m = 0 .. M-1

and its tau0-th power expands with coefficients xi2.  Both coefficient
families are alternating sums that cancel catastrophically in floating
point for larger N, so they are computed once in exact rational arithmetic
and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .channel import LinkProfile, sinr_cdf
from .errors import DomainError


def _check_nm(N: int, M: int):
    if not (1 <= M <= N):
        raise DomainError(f"need 1 <= M <= N, got M={M}, N={N}")


@lru_cache(maxsize=4096)
def xi1_exact(N: int, M: int, m: int) -> Fraction:
    _check_nm(N, M)
    if not 0 <= m <= M - 1:
        raise DomainError(f"need 0 <= m <= M-1, got m={m}, M={M}")
    total = Fraction(0)
    for i in range(m, M):
        total += Fraction(M - i, M) * comb(N, i) * comb(i, m) * (-1) ** (i - m)
    return total


def xi1(N: int, M: int, m: int) -> float:
    """Coefficient of F^(N-m) in the best-M scheduler-side CDF."""
    return float(xi1_exact(N, M, m))


@lru_cache(maxsize=512)
def xi1_vector(N: int, M: int) -> tuple[Fraction, ...]:
    return tuple(xi1_exact(N, M, m) for m in range(M))


@lru_cache(maxsize=512)
def xi2_vector(N: int, M: int, tau0: int) -> tuple[Fraction, ...]:
    """All xi2(N, M, tau0, m) for m = 0 .. tau0*(M-1), via the power-of-
    polynomial recursion; falls back to direct convolution if the leading
    xi1 coefficient vanishes."""
    _check_nm(N, M)
    if tau0 < 1:
        raise DomainError(f"tau0 must be >= 1, got {tau0}")
    if M == 1:
        return (Fraction(1),)
    c = xi1_vector(N, M)
    top = tau0 * (M - 1)
    if c[0] == 0:
        return xi2_convolution(N, M, tau0)
    out = [Fraction(0)] * (top + 1)
    out[0] = c[0] ** tau0
    for m in range(1, top):
        acc = Fraction(0)
        for ell in range(1, min(m, M - 1) + 1):
            acc += ((tau0 + 1) * ell - m) * c[ell] * out[m - ell]
        out[m] = acc / (m * c[0])
    out[top] = c[M - 1] ** tau0
    return tuple(out)


def xi2_convolution(N: int, M: int, tau0: int) -> tuple[Fraction, ...]:
    """Oracle path: repeated polynomial convolution of the xi1 coefficients."""
    _check_nm(N, M)
    if tau0 < 1:
        raise DomainError(f"tau0 must be >= 1, got {tau0}")
    c = xi1_vector(N, M)
    out = [Fraction(1)]
    for _ in range(tau0):
        nxt = [Fraction(0)] * (len(out) + len(c) - 1)
        for i, a in enumerate(out):
            if a == 0:
                continue
            for j, b in enumerate(c):
                nxt[i + j] += a * b
        out = nxt
    return tuple(out)


def xi2(N: int, M: int, tau0: int, m: int) -> float:
    vec = xi2_vector(N, M, tau0)
    if not 0 <= m < len(vec):
        raise DomainError(f"m={m} out of range for tau0*(M-1)={len(vec) - 1}")
    return float(vec[m])


@dataclass(frozen=True)
class BestMPoly:
    """The best-M CDF as a polynomial in the user CDF F."""

    N: int
    M: int
    xi1: tuple[float, ...]

    @classmethod
    def build(cls, N: int, M: int) -> "BestMPoly":
        _check_nm(N, M)
        return cls(N=N, M=M, xi1=tuple(float(c) for c in xi1_vector(N, M)))

    def eval_in_f(self, F):
        """Evaluate sum_m xi1[m] F^(N-m) for F in [0, 1]."""
        F = np.asarray(F, dtype=float)
        inner = np.zeros_like(F)
        for c in self.xi1:  # Horner in F, highest power of the inner poly first
            inner = inner * F + c
        out = inner * F ** (self.N - self.M + 1)
        return np.clip(out, 0.0, 1.0)

    def derivative_in_f(self, F):
        """d/dF of the polynomial (the chain-rule factor for the density)."""
        F = np.asarray(F, dtype=float)
        out = np.zeros_like(F)
        for m, c in enumerate(self.xi1):
            out += c * (self.N - m) * F ** (self.N - m - 1)
        return out


def bestm_cdf(p: LinkProfile, N: int, M: int, x) -> float:
    """CDF of the fed-back CQI seen by the scheduler for this user."""
    poly = BestMPoly.build(N, M)
    return poly.eval_in_f(sinr_cdf(p, x))


def feedback_count_pmf(K: int, M: int, N: int, tau0: int) -> float:
    """P(exactly tau0 of K users fed back a given resource block)."""
    _check_nm(N, M)
    if not 0 <= tau0 <= K:
        raise DomainError(f"need 0 <= tau0 <= K, got tau0={tau0}, K={K}")
    return float(feedback_count_pmf_exact(K, M, N, tau0))


def feedback_count_pmf_exact(K: int, M: int, N: int, tau0: int) -> Fraction:
    p = Fraction(M, N)
    return comb(K, tau0) * p**tau0 * (1 - p) ** (K - tau0)

