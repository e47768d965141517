"""Best-M order-statistics algebra.

A user feeds back its M best of N blocks and the scheduler sees a uniform
pick among them.  In the per-block SINR CDF u = F(x) that CQI has the
binomial-tail CDF (David & Nagaraja, *Order Statistics*, 3rd ed., 2003)

    F_Y(u) = sum_{i<M} (M-i)/M * C(N, i) * u^(N-i) * (1-u)^i,

a sum of positive terms.  `BestMPoly.columns` is its one float evaluator,
one table of terms times the cached weights of any set of M: the rate
integrand in `exact_rate` takes all its columns, and the tail diagnostics
and reference scheduler one.  `BestMPoly` also evaluates F_Y exactly, over
its integer weight numerators, for the best-M quantile in `asymptotics`.
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
from .errors import DomainError, _integer


def check_budget(N, M, K0=1) -> tuple[int, tuple[int, ...], int]:
    """N, the budgets M (one or a nonempty sequence) as a tuple, and the
    user count K0, all ints, with 1 <= M <= N and K0 >= 1: the one check
    of a best-M budget.  A bool or a non-integer raises DomainError.
    Ints, as the weights' C(N, i) overflow a numpy int."""
    Ms = (M,) if np.ndim(M) == 0 else tuple(M)
    K0 = _integer(K0, "K0", DomainError, 1)
    N = _integer(N, "N", DomainError)
    Ms = tuple([_integer(m, "M", DomainError) for m in Ms])
    if not Ms or not all(1 <= m <= N for m in Ms):
        raise DomainError("need 1 <= M <= N, got M="
                          f"{', '.join(map(str, Ms)) or 'none'}, N={N}")
    return N, Ms, K0


@lru_cache(maxsize=4096)
def xi1_exact(N: int, M: int, m: int) -> Fraction:
    N, (M,), _ = check_budget(N, M)
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
    N, (M,), _ = check_budget(N, M)
    return tuple(xi1_exact(N, M, m) for m in range(M))


@lru_cache(maxsize=512)
def xi2_vector(N: int, M: int, tau0: int) -> tuple[Fraction, ...]:
    """All xi2(N, M, tau0, m) for m = 0 .. tau0*(M-1), via the power-of-
    polynomial recursion.  M = 1 and M = N have closed forms, F_Y = F^N and
    F_Y = F; below M = N the leading coefficient xi1_0 = (-1)^(M-1)
    C(N-2, M-1) / M that the recursion divides by is nonzero."""
    N, (M,), _ = check_budget(N, M)
    if tau0 < 1:
        raise DomainError(f"tau0 must be >= 1, got {tau0}")
    top = tau0 * (M - 1)
    if M == 1:
        return (Fraction(1),)
    if M == N:
        return (Fraction(0),) * top + (Fraction(1),)
    c = xi1_vector(N, M)
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
    N, (M,), _ = check_budget(N, M)
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


#: table entries per block of rows, which bounds a bulk call's memory
_BLOCK_ENTRIES = 1 << 20


def _term_sums(N: int, u, s, weights):
    """The table s^i u^(N-1-i), i < m = len(weights), of the 1-D u and s
    times the weights, a block of rows at a time.  The table is built by
    column products, without a power per entry: the powers of s forward
    from 1, then the powers of u backward from one u^(N-m) per row."""
    m = len(weights)
    rows = max(1, _BLOCK_ENTRIES // m)
    sums = []
    for a in range(0, max(len(u), 1), rows):
        ub, sb = u[a:a + rows], s[a:a + rows]
        table = np.empty((len(ub), m), order="F")
        table[:, 0] = 1.0
        for i in range(1, m):
            np.multiply(table[:, i - 1], sb, out=table[:, i])
        low = ub ** (N - m)
        for i in range(m - 1, 0, -1):
            table[:, i] *= low
            low *= ub
        table[:, 0] = low
        sums.append(table @ weights)
    return sums[0] if len(sums) == 1 else np.concatenate(sums)


def _over_m(N: int, M: int, numerators) -> tuple[float, ...]:
    """Integer weights divided by M; C(N, i) outgrows a float above N = 1030."""
    try:
        return tuple(n / M for n in numerators)
    except OverflowError:
        raise DomainError(
            f"best-M weights overflow a float at N={N}, M={M}") from None


@lru_cache(maxsize=256)
def _column_weights(N: int, Ms: tuple[int, ...]) -> np.ndarray:
    """Read-only (max Ms, 2C): column c holds the float cdf_n / M of
    Ms[c], column C + c its pdf_n / M, each zero past its own M."""
    weights = np.zeros((max(Ms), 2 * len(Ms)))
    for c, M in enumerate(Ms):
        poly = BestMPoly.build(N, M)
        weights[:M, c] = _over_m(N, M, poly.cdf_n)
        weights[:M, len(Ms) + c] = _over_m(N, M, poly.pdf_n)
    weights.setflags(write=False)
    return weights


@lru_cache(maxsize=256)
def _survival_weights(N: int, M: int) -> np.ndarray:
    """Read-only (N, 1) weights min(i,M)/M C(N,i), i = 1..N, of 1 - F_Y."""
    w = np.array(_over_m(N, M, (min(i, M) * comb(N, i)
                                for i in range(1, N + 1))))[:, None]
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class BestMPoly:
    """The best-M CDF F_Y as a function of the user CDF u = F(x), its
    derivative in u, and its survival function in s = 1 - u, each a
    positive binomial sum (see the module docstring).  The weights of F_Y
    and of its derivative are the integer numerators cdf_n, pdf_n over M;
    the float evaluators divide them when they first need them, and
    refuse an N whose weights outgrow a float."""

    N: int
    M: int
    cdf_n: tuple[int, ...]
    pdf_n: tuple[int, ...]

    @classmethod
    def build(cls, N: int, M: int) -> "BestMPoly":
        N, (M,), _ = check_budget(N, M)
        cdf_n = tuple((M - i) * comb(N, i) for i in range(M))
        pdf_n = tuple(N * comb(N - 1, j) for j in range(M))
        return cls(N=N, M=M, cdf_n=cdf_n, pdf_n=pdf_n)

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

    @staticmethod
    def columns(N: int, Ms: tuple[int, ...], F):
        """F_Y and dF_Y/du at every M in Ms, each (len(F), len(Ms)): u times
        the table of the nonnegative terms s^i u^(N-1-i), s = 1 - u, by the
        cdf_n / M columns, and the same table by the pdf_n / M columns."""
        u = np.asarray(F, dtype=float).reshape(-1)
        sums = _term_sums(N, u, 1.0 - u, _column_weights(N, Ms))
        return u[:, None] * sums[:, :len(Ms)], sums[:, len(Ms):]

    def eval_in_f(self, F):
        """F_Y = sum_{i<M} (M-i)/M C(N,i) F^(N-i) (1-F)^i for F in [0, 1]."""
        return self.columns(self.N, (self.M,), F)[0].reshape(np.shape(F))[()]

    def derivative_in_f(self, F):
        """dF_Y/dF = N/M sum_{j<M} C(N-1,j) F^(N-1-j) (1-F)^j, the
        chain-rule factor for the density."""
        return self.columns(self.N, (self.M,), F)[1].reshape(np.shape(F))[()]

    def sf_in_s(self, s):
        """1 - F_Y = sum_{i=1..N} min(i,M)/M C(N,i) (1-s)^(N-i) s^i, in the
        base survival s = 1 - F, which keeps its digits deep in the tail."""
        flat = np.asarray(s, dtype=float).reshape(-1)
        sums = _term_sums(self.N, 1.0 - flat, flat,
                          _survival_weights(self.N, self.M))
        return (flat * sums[:, 0]).reshape(np.shape(s))[()]


def bestm_cdf(p: LinkProfile, N: int, M: int, x) -> float:
    """CDF of the fed-back CQI seen by the scheduler for this user."""
    return BestMPoly.build(N, M).eval_in_f(sinr_cdf(p, x))


def feedback_count_pmf(K: int, M: int, N: int, tau0: int) -> float:
    """P(exactly tau0 of K users fed back a given resource block)."""
    N, (M,), K = check_budget(N, M, K)
    if not 0 <= tau0 <= K:
        raise DomainError(f"need 0 <= tau0 <= K, got tau0={tau0}, K={K}")
    return float(feedback_count_pmf_exact(K, M, N, tau0))


def feedback_count_pmf_exact(K: int, M: int, N: int, tau0: int) -> Fraction:
    p = Fraction(M, N)
    return comb(K, tau0) * p**tau0 * (1 - p) ** (K - tau0)

