"""Best-M order-statistics algebra.

A user feeds back its M best of N blocks and the scheduler sees a uniform
pick among them.  In the per-block SINR CDF u = F(x) that CQI has the
binomial-tail CDF (David & Nagaraja, *Order Statistics*, 3rd ed., 2003)

    F_Y(u) = sum_{i<M} (M-i)/M * C(N, i) * u^(N-i) * (1-u)^i,

a sum of positive terms, which `BestMPoly` evaluates in floating point by
Horner sums for the scalar and bulk callers (tail diagnostics, the
reference scheduler), and exactly, over its integer weight numerators, for
the best-M quantile in `asymptotics`.  Its weights are also the columns of the rate
integrand's best-M kernel in `exact_rate`, which takes one M or all of
them from one table of terms.
The paper's coefficients xi1 (F_Y in powers of u) and xi2 (its tau0-th
power) alternate in sign and cancel in floating point, so they are kept as
exact rationals: the input of the xi2-series rate path and the tests'
exact reference.
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


def _homogeneous_horner(w, u, s):
    """sum_i w[i] * u^(n-1-i) * s^i for n = len(w): Horner in u, carrying the
    powers of s along.  With u, s >= 0 and w > 0 every step adds a
    nonnegative term, so nothing cancels."""
    acc = np.full_like(u, w[0])
    s_pow = np.ones_like(u)
    for c in w[1:]:
        s_pow *= s
        acc *= u
        acc += c * s_pow
    return acc


def _over_m(N: int, M: int, numerators) -> tuple[float, ...]:
    """Integer weights divided by M; C(N, i) outgrows a float above N = 1030."""
    try:
        return tuple(n / M for n in numerators)
    except OverflowError:
        raise DomainError(
            f"best-M weights overflow a float at N={N}, M={M}") from None


@dataclass(frozen=True)
class BestMPoly:
    """The best-M CDF F_Y as a function of the user CDF u = F(x), its
    derivative in u, and its survival function in s = 1 - u, each a
    positive binomial sum (see the module docstring).  The weights of F_Y
    and of its derivative are the integer numerators cdf_n, pdf_n over M,
    and the floats cdf_w, pdf_w."""

    N: int
    M: int
    cdf_w: tuple[float, ...]
    pdf_w: tuple[float, ...]
    cdf_n: tuple[int, ...]
    pdf_n: tuple[int, ...]

    @classmethod
    def build(cls, N: int, M: int) -> "BestMPoly":
        _check_nm(N, M)
        cdf_n = tuple((M - i) * comb(N, i) for i in range(M))
        pdf_n = tuple(N * comb(N - 1, j) for j in range(M))
        return cls(N=N, M=M, cdf_w=_over_m(N, M, cdf_n),
                   pdf_w=_over_m(N, M, pdf_n), cdf_n=cdf_n, pdf_n=pdf_n)

    def exact_in_f(self, F: float) -> tuple[int, int, float]:
        """F_Y(F) = num / den exactly for a float F in (0, 1), returned as
        (num, den, slope) with the log-slope F F_Y'(F) / F_Y(F) rounded
        once.  With F = a / d both sums are taken over the integers a and
        d - a, so nothing rounds before the one division."""
        a, d = F.as_integer_ratio()
        b = d - a
        cdf_sum, pdf_sum, b_pow = self.cdf_n[0], self.pdf_n[0], 1
        for wc, wp in zip(self.cdf_n[1:], self.pdf_n[1:]):
            b_pow *= b
            cdf_sum = cdf_sum * a + wc * b_pow
            pdf_sum = pdf_sum * a + wp * b_pow
        # M d^N F_Y = a^(N-M+1) cdf_sum and M d^N F F_Y' = a^(N-M+1) pdf_sum
        return (a ** (self.N - self.M + 1) * cdf_sum, self.M * d**self.N,
                pdf_sum / cdf_sum)

    def eval_in_f(self, F):
        """F_Y = sum_{i<M} (M-i)/M C(N,i) F^(N-i) (1-F)^i for F in [0, 1]."""
        u = np.asarray(F, dtype=float)
        return (_homogeneous_horner(self.cdf_w, u, 1.0 - u)
                * u ** (self.N - self.M + 1))

    def derivative_in_f(self, F):
        """dF_Y/dF = N/M sum_{j<M} C(N-1,j) F^(N-1-j) (1-F)^j, the
        chain-rule factor for the density."""
        u = np.asarray(F, dtype=float)
        return (_homogeneous_horner(self.pdf_w, u, 1.0 - u)
                * u ** (self.N - self.M))

    def sf_in_s(self, s):
        """1 - F_Y = sum_{i=1..N} min(i,M)/M C(N,i) (1-s)^(N-i) s^i, in the
        base survival s = 1 - F, which keeps its digits deep in the tail."""
        s = np.asarray(s, dtype=float)
        N, M = self.N, self.M
        w = _over_m(N, M, (min(i, M) * comb(N, i) for i in range(1, N + 1)))
        return _homogeneous_horner(w, 1.0 - s, s) * s


def bestm_cdf(p: LinkProfile, N: int, M: int, x) -> float:
    """CDF of the fed-back CQI seen by the scheduler for this user."""
    return BestMPoly.build(N, M).eval_in_f(sinr_cdf(p, x))


def feedback_count_pmf(K: int, M: int, N: int, tau0: int) -> float:
    """P(exactly tau0 of K users fed back a given resource block)."""
    _check_nm(N, M)
    if not 0 <= tau0 <= K:
        raise DomainError(f"need 0 <= tau0 <= K, got tau0={tau0}, K={K}")
    return float(feedback_count_pmf_exact(K, M, N, tau0))


def feedback_count_pmf_exact(K: int, M: int, N: int, tau0: int) -> Fraction:
    p = Fraction(M, N)
    return comb(K, tau0) * p**tau0 * (1 - p) ** (K - tau0)

