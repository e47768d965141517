"""Large-scale network model and per-user SINR distribution.

A LinkProfile captures one user's large-scale state after cell association:
the serving SNR scale rho0, the retained interferer scales, and which
simplified regime (if any) the profile represents.  Under Rayleigh fading
every profile has one product-form SINR survival, the noise term times one
Laplace-transform factor per interferer (Andrews, Baccelli & Ganti, IEEE
Trans. Commun. 59(11), 2011):

    S(x) = exp(-nu x/rho0) * prod_b rho0 / (rho0 + rho_b x),

where the noise weight nu (`LinkProfile.noise`) is 0 in the
interference-limited kind and 1 otherwise; the noise-limited kind has no
interferers.  The kind is a label: the law reads only nu and the scales.
The product has no poles where interferer scales tie, so every profile is
evaluated from it; its partial-fraction expansion lives only in the
closed-form engine of `exact_rate`, the tests' independent oracle.
`_law` takes log S and the hazard from one loop over the interferers;
the CDF, the survival, the density and the quantile Newton all read it,
so `sinr_cdf` and the rate integrand's `_cdf_and_pdf` give the same CDF
bits.  A cell is one zero-padded stack of those numbers (`stacked`), and
`sinr_cdf_inv` solves its quantiles, every profile at every level, in one
Newton.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, DomainError, ScenarioError,
                     _finite_real, _integer)

GENERAL = "general"
INTERFERENCE_LIMITED = "interference_limited"
NOISE_LIMITED = "noise_limited"

#: default: interferers 20 dB below the strongest one are folded into noise
DEFAULT_KEEP_THRESHOLD = 1e-2


@dataclass(frozen=True)
class Cell:
    tier: str  # "macro" | "pico"
    position: tuple[float, float]
    tx_power_dbm: float

    def __post_init__(self):
        if self.tier not in ("macro", "pico"):
            raise ScenarioError(f"unknown tier {self.tier!r}")
        _finite_real(self.tx_power_dbm, "tx_power_dbm", ScenarioError)
        for i, v in enumerate(self.position):
            _finite_real(v, f"position[{i}]", ScenarioError)


@dataclass(frozen=True)
class Scenario:
    cells: tuple[Cell, ...]
    users: tuple[tuple[float, float], ...]
    noise_psd_dbm_hz: float = -170.0
    bandwidth_hz: float = 5e6
    num_rb: int = 16
    shadowing_sigma_db: float = 8.0
    interferer_keep_threshold: float = DEFAULT_KEEP_THRESHOLD

    def __post_init__(self):
        if not self.cells:
            raise ScenarioError("scenario needs at least one cell")
        if not self.users:
            raise ScenarioError("scenario needs at least one user")
        _integer(self.num_rb, "num_rb", ScenarioError, 1)
        for k, u in enumerate(self.users):
            for i, v in enumerate(u):
                _finite_real(v, f"users[{k}][{i}]", ScenarioError)
        for name in ("noise_psd_dbm_hz", "bandwidth_hz", "shadowing_sigma_db",
                     "interferer_keep_threshold"):
            _finite_real(getattr(self, name), name, ScenarioError)
        if self.shadowing_sigma_db < 0:
            raise ScenarioError("shadowing_sigma_db must be >= 0")
        if self.bandwidth_hz <= 0:
            raise ScenarioError("bandwidth_hz must be positive")
        if not 0 < self.interferer_keep_threshold <= 1:
            raise ScenarioError("interferer_keep_threshold must be in (0, 1]")
        try:
            noise_dbm = self.noise_power_rb_dbm
        except (OverflowError, ValueError):  # no float, or a zero, per RB
            raise ScenarioError("bandwidth_hz / num_rb must be a positive "
                                "float") from None
        try:
            noise_mw = 10.0 ** (noise_dbm / 10.0)
        except OverflowError:
            noise_mw = math.inf
        if not 0.0 < noise_mw < math.inf:
            raise ScenarioError(
                f"noise power per resource block ({noise_dbm:.6g}"
                " dBm) must be positive and finite in mW"
            )

    @property
    def noise_power_rb_dbm(self) -> float:
        """Noise power per resource block (PSD times per-RB bandwidth)."""
        return self.noise_psd_dbm_hz + 10.0 * math.log10(
            self.bandwidth_hz / self.num_rb
        )


@dataclass(frozen=True)
class LinkProfile:
    """One user's large-scale state: serving scale, interferer scales, kind."""

    rho0: float
    rho_int: tuple[float, ...] = ()
    kind: str = NOISE_LIMITED

    def __post_init__(self):
        if self.kind not in (GENERAL, INTERFERENCE_LIMITED, NOISE_LIMITED):
            raise DomainError(f"unknown profile kind {self.kind!r}")
        if not isinstance(self.rho_int, tuple):
            raise DomainError(
                f"interferer scales must be a tuple, got {self.rho_int!r}")
        for name, v in (("rho0", self.rho0),
                        *(("rho_int", r) for r in self.rho_int)):
            if not _finite_real(v, name, DomainError) > 0:
                raise DomainError(f"{name} must be positive, got {name}={v!r}")
        if self.kind == NOISE_LIMITED and self.rho_int:
            raise DomainError("noise_limited profile cannot have interferers")
        if self.kind == INTERFERENCE_LIMITED and len(self.rho_int) != 1:
            raise DomainError("interference_limited profile needs one interferer")
        if self.kind == GENERAL and not self.rho_int:
            raise DomainError("general profile needs at least one interferer")
        if list(self.rho_int) != sorted(self.rho_int, reverse=True):
            raise DomainError("rho_int must be sorted descending")

    @classmethod
    def noise_limited(cls, rho0: float) -> "LinkProfile":
        return cls(rho0=rho0, rho_int=(), kind=NOISE_LIMITED)

    @classmethod
    def interference_limited(cls, rho0: float, rho1: float) -> "LinkProfile":
        return cls(rho0=rho0, rho_int=(rho1,), kind=INTERFERENCE_LIMITED)

    @classmethod
    def general(cls, rho0: float, rho_int) -> "LinkProfile":
        try:
            rho_int = tuple(sorted(rho_int, reverse=True))
        except TypeError:
            raise DomainError("interferer scales must be a sequence of "
                              f"numbers, got {rho_int!r}") from None
        return cls(rho0=rho0, rho_int=rho_int, kind=GENERAL)

    @property
    def num_interferers(self) -> int:
        return len(self.rho_int)

    @property
    def noise(self) -> float:
        """Weight nu of the noise term in the SINR law: 0.0 in the
        interference-limited kind, which neglects the noise, else 1.0."""
        return 0.0 if self.kind == INTERFERENCE_LIMITED else 1.0


def path_loss_db(tier: str, d: float) -> float:
    """3GPP-style distance path loss in dB; valid for d >= 1 m."""
    if d < 1.0:
        raise DomainError(f"path loss model invalid below 1 m, got d={d}")
    if tier == "macro":
        return 15.3 + 37.6 * math.log10(d)
    if tier == "pico":
        return 30.6 + 36.7 * math.log10(d)
    raise DomainError(f"unknown tier {tier!r}")


def build_link_profile(scenario: Scenario, user_index: int,
                       shadowing_draws_db) -> LinkProfile:
    """Associate a user with its strongest cell and build its LinkProfile.

    Association uses large-scale received power only (path loss + shadowing),
    ties broken toward the lower cell index.  Interferers whose mean power is
    below interferer_keep_threshold times the strongest interferer are folded
    into the noise term; the remainder are kept, sorted descending.
    """
    pos = np.asarray(scenario.users[user_index], dtype=float)
    shadow = np.asarray(shadowing_draws_db, dtype=float)
    if shadow.shape != (len(scenario.cells),):
        raise DomainError("need one shadowing draw per cell")

    rx_dbm = np.empty(len(scenario.cells))
    for c, cell in enumerate(scenario.cells):
        d = float(np.hypot(*(pos - np.asarray(cell.position, float))))
        rx_dbm[c] = cell.tx_power_dbm - path_loss_db(cell.tier, d) + shadow[c]

    serving = int(np.argmax(rx_dbm))  # argmax takes the first maximum
    noise_mw = 10.0 ** (scenario.noise_power_rb_dbm / 10.0)
    # a huge dBm value, or a power over a tiny noise, is an inf
    with np.errstate(over="ignore"):
        rx_mw = 10.0 ** (rx_dbm / 10.0)
        if not np.isfinite(rx_mw).all():
            raise DomainError("rho0 must be positive and finite, but a "
                              "received power overflows in mW")
        interferers = np.delete(rx_mw, serving)
        keep = interferers >= (scenario.interferer_keep_threshold
                               * interferers.max(initial=0.0))
        denom = noise_mw + float(interferers[~keep].sum())
        kept = np.sort(interferers[keep])[::-1] / denom
        rho0 = rx_mw[serving] / denom
    if not (np.isfinite(rho0) and np.isfinite(kept).all()):
        raise DomainError("link scales must be finite, but a received power "
                          "over the noise power overflows")
    if kept.size == 0:
        return LinkProfile.noise_limited(rho0)
    return LinkProfile.general(rho0, kept)


def _law(p, x, density: bool = True):
    """log S(x) and, if density, the hazard -d log S / dx (else None),
    for numpy 0 <= x < inf, from one loop over the interferers sharing
    t = (rho_b / rho0) x and 1 + t: the hazard is nu / rho0 plus each
    (rho_b / rho0) / (1 + t), and log S is minus the noise term nu x / rho0
    and one log1p of the product less one, d.  d starts at the first
    factor, t_1, and takes each next as d <- d (1 + t) + t, nonnegative
    terms only, so it keeps its relative accuracy where the product rounds
    to 1 + O(eps).  A t, d or noise term that overflows is its limit
    (log S = -inf, a hazard term 0).  As d starts at the largest t, and
    `stacked` puts its zero scales after a row's own, an overflowing t
    never meets a d of 0 (0 * inf = NaN); at x = inf a zero scale, or a
    law's absent noise term, would, so callers set it apart."""
    d = 0.0
    hazard = p.noise / p.rho0 if density else None
    for b, rho_b in enumerate(p.rho_int):
        c = rho_b / p.rho0
        t = c * x
        one_t = 1.0 + t
        d = t if b == 0 else d * one_t + t
        if density:
            hazard = hazard + c / one_t
    return -np.log1p(d) - p.noise * x / p.rho0, hazard


def _log_sf(p, x):
    """log S(x) of `_law` for numpy x >= 0; -inf at x = inf, which every
    law reaches there."""
    at_inf = x == np.inf
    if at_inf.any():
        return np.where(at_inf, -np.inf, _log_sf(p, np.where(at_inf, 0.0, x)))
    return _law(p, x, density=False)[0]


def _as_output(out):
    return out if getattr(out, "ndim", 0) else float(out)


def sinr_cdf(p: LinkProfile, x):
    """CDF of the per-resource-block SINR; 0 for x <= 0.  p may also be the
    stacked rows of `stacked`, against whose (K, 1) columns x
    broadcasts."""
    with np.errstate(over="ignore"):  # an overflow is the limit: _law
        return _as_output(-np.expm1(_log_sf(p, np.maximum(x, 0.0))))


def _cdf_and_pdf(p, x):
    """`sinr_cdf` and `sinr_pdf` of the same x, as arrays, from one pass
    of `_law`: the operations of the CDF in its order, x = inf set apart
    as `_log_sf` sets it apart.  The density is 0 there and at x < 0, and
    takes the CDF's clipped x elsewhere, which differs from x only at
    x = -0.0, where either zero gives its bits."""
    x = np.asarray(x, dtype=float)
    xc = np.maximum(x, 0.0)
    at_inf = xc == np.inf
    outside = (x < 0) | at_inf  # a NaN x is not, and stays NaN
    xc = np.where(at_inf, 0.0, xc)
    with np.errstate(over="ignore"):  # an overflow is the limit: _law
        log_sf, hazard = _law(p, xc)
        cdf = -np.expm1(np.where(at_inf, -np.inf, log_sf))
        pdf = np.where(outside, 0.0, np.exp(log_sf) * hazard)
    return cdf, pdf


def sinr_pdf(p: LinkProfile, x):
    """Density of the per-resource-block SINR; 0 for x < 0 and at x = inf,
    NaN for a NaN x.  p may also be stacked rows, as in `sinr_cdf`."""
    return _as_output(_cdf_and_pdf(p, x)[1])


def sinr_sf(p: LinkProfile, x):
    """Survival function 1 - F of the SINR; accurate deep in the tail,
    where 1 - sinr_cdf cancels."""
    with np.errstate(over="ignore"):
        return _as_output(np.exp(_log_sf(p, np.maximum(x, 0.0))))


def _as_cell(p) -> tuple[LinkProfile, ...]:
    """p, one LinkProfile or a sequence of them, as a tuple of profiles:
    the one check of a cell, so that anything else in it raises
    DomainError instead of a stray AttributeError or TypeError."""
    if isinstance(p, LinkProfile):
        return (p,)
    try:
        profiles = tuple(p)
    except TypeError:
        raise DomainError("need a LinkProfile or a sequence of them, got "
                          f"{p!r}") from None
    for q in profiles:
        if not isinstance(q, LinkProfile):
            raise DomainError(f"a cell holds LinkProfiles, got {q!r}")
    return profiles


@dataclass(frozen=True, eq=False)
class _Rows:
    """A cell's profiles as one stack of (K, 1) columns (see `stacked`)."""

    rho0: np.ndarray
    noise: np.ndarray
    rho_int: tuple[np.ndarray, ...]
    num_interferers: np.ndarray

    def __getitem__(self, index):
        """The rows at index (a slice or an index array), less the scale
        columns past their most interferers, which hold only zeros there."""
        J = int(self.num_interferers[index].max(initial=0))
        return _Rows(self.rho0[index], self.noise[index],
                     tuple(c[index] for c in self.rho_int[:J]),
                     self.num_interferers[index])


def stacked(profiles) -> _Rows:
    """A cell's profiles, one LinkProfile or a sequence, as one stack of
    (K, 1) columns, the fields `_law` reads, against which x broadcasts:
    rho0, the noise weight, the interferer scales and their count.  A
    profile with fewer interferers than the most any has is trailed by
    zero scales, which leave its log S and hazard exactly as they are."""
    profiles = _as_cell(profiles)

    def column(field):
        return np.array([getattr(p, field) for p in profiles], float)[:, None]

    J = max((p.num_interferers for p in profiles), default=0)
    scales = np.array([p.rho_int + (0.0,) * (J - p.num_interferers)
                       for p in profiles]).reshape(len(profiles), J)
    return _Rows(rho0=column("rho0"), noise=column("noise"),
                 rho_int=tuple(scales.T[:, :, None]),
                 num_interferers=column("num_interferers"))


def _quantile(rows, target):
    """Quantiles at target = log(1 - q) of the stacked rows of `stacked`,
    against whose (K, 1) columns target broadcasts; the Newton runs on
    every point at once and freezes each after its step."""
    tol = 1e-15 * (rows.num_interferers + 1) * np.abs(target) \
        + sys.float_info.min
    x = np.zeros(np.broadcast_shapes(rows.rho0.shape, target.shape))
    active = True
    for _ in range(100):
        log_sf, hazard = _law(rows, x)
        gap = log_sf - target
        x = np.where(active, x + gap / hazard, x)
        active = active & ~(gap <= tol)
        if not active.any():
            return x
    raise ConvergenceError(
        "SINR quantile not reached in 100 Newton steps at "
        f"{np.count_nonzero(active)} point(s)",
        achieved_error=float(np.max(np.abs(np.where(active, gap, 0.0)))))


def sinr_cdf_inv(p, q):
    """Quantile of the SINR distribution at the level q, a float or an
    array.

    p is one LinkProfile, for a quantile of q's shape, or a sequence of K
    of them, against whose (K, 1) column q broadcasts.  Either is one
    stack (`stacked`) and takes one Newton over every point.

    Newton runs on log S(x) = log(1 - q) from x = 0: log S is convex and
    decreasing, so the iterates climb to the root without overshooting
    it.  Each of the J steps of `_law`'s product, t = (rho_b / rho0) x and
    d (1 + t) + t, adds about 5 roundings to the relative error of d, and
    the log1p, the noise term and their sum 2 more, so the computed log S
    is off by up to about u * (5J + 2) * |log S|, u = 1.1e-16, even near
    x = 0; below the smallest normal float, by a few subnormal spacings.
    A gap below that is rounding, so the step that crosses it is each
    point's last.
    """
    q = np.asarray(q, dtype=float)
    bad = q[~((q > 0.0) & (q < 1.0))]
    if bad.size:
        raise DomainError("quantile argument must be in (0, 1), got "
                          f"{float(bad[0])}")
    x = _quantile(stacked(p), np.log1p(-q))
    return (_as_output(x.reshape(q.shape)) if isinstance(p, LinkProfile)
            else x)
