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
closed-form engine of `exact_rate`, the tests' independent oracle.  A
cell is one zero-padded stack of those numbers (`stacked`), and
`sinr_cdf_inv` solves its quantiles, every profile at every level, in one
Newton.  `_cdf_and_pdf` gives the CDF and the density of the same points
from one pass of log S, for the rate integrand.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace

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


def _log_sf(p: LinkProfile, x):
    """log S(x) for numpy x >= 0: minus one log1p of the interferer
    product less one, minus the noise term nu x / rho0.

    The product less one is carried as d <- d + t * (1 + d), t = rho_b x /
    rho0: every step adds a nonnegative term, so d keeps its relative
    accuracy at small x, where the product itself rounds to 1 + O(eps).
    Every law's survival is 0 at x = inf, so those points are set apart:
    there a zero scale, or the noise term of a law without noise, would
    be 0 * inf = NaN.  At a huge finite x the product, or the noise
    term, may overflow: its inf is the limit, log S = -inf, and the laws
    below take it without a warning."""
    at_inf = x == np.inf
    if at_inf.any():
        return np.where(at_inf, -np.inf, _log_sf(p, np.where(at_inf, 0.0, x)))
    d = 0.0
    for rho_b in p.rho_int:
        t = (rho_b / p.rho0) * x
        d = d + t * (1.0 + d)
    return -np.log1p(d) - p.noise * x / p.rho0


def _hazard(p: LinkProfile, x):
    """-d log S / dx = nu / rho0 + sum_b rho_b / (rho0 + rho_b x), for
    0 <= x < inf; a rho_b x that overflows adds its limit, 0."""
    h = p.noise / p.rho0
    for rho_b in p.rho_int:
        h = h + rho_b / (p.rho0 + rho_b * x)
    return h


def _as_output(out):
    return out if getattr(out, "ndim", 0) else float(out)


def sinr_cdf(p: LinkProfile, x):
    """CDF of the per-resource-block SINR; 0 for x <= 0.  p may also be the
    stacked rows of `stacked`, against whose (K, 1) columns x
    broadcasts."""
    with np.errstate(over="ignore"):  # an overflow is the limit: _log_sf
        return _as_output(-np.expm1(_log_sf(p, np.maximum(x, 0.0))))


def _cdf_and_pdf(p, x):
    """`sinr_cdf` and `sinr_pdf` of the same x, as arrays, from one
    `_log_sf` and one `_hazard`: the operations of the CDF in its order,
    x = inf set apart as `_log_sf` sets it apart.  The density is 0
    there and at x < 0, and takes the CDF's clipped x elsewhere, which
    differs from x only at x = -0.0, where either zero gives its bits."""
    x = np.asarray(x, dtype=float)
    xc = np.maximum(x, 0.0)
    at_inf = xc == np.inf
    outside = (x < 0) | at_inf  # a NaN x is not, and stays NaN
    xc = np.where(at_inf, 0.0, xc)
    with np.errstate(over="ignore"):  # an overflow is the limit: _log_sf
        log_sf = _log_sf(p, xc)
        cdf = -np.expm1(np.where(at_inf, -np.inf, log_sf))
        pdf = np.where(outside, 0.0, np.exp(log_sf) * _hazard(p, xc))
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


def stacked(profiles):
    """A cell's profiles as one stack of (K, 1) columns, the fields
    `_log_sf` and `_hazard` read, against which x broadcasts: rho0, the
    noise weight, the interferer scales and their count.  A profile with
    fewer interferers than the most any has is led by zero scales: they add
    exactly 0 to both, and as they come first, a product that overflows to
    inf never meets their 0 * inf = NaN."""
    def column(field):
        return np.array([getattr(p, field) for p in profiles], float)[:, None]

    J = max((p.num_interferers for p in profiles), default=0)
    scales = np.array([(0.0,) * (J - p.num_interferers) + p.rho_int
                       for p in profiles]).reshape(len(profiles), J)
    return SimpleNamespace(rho0=column("rho0"), noise=column("noise"),
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
        gap = _log_sf(rows, x) - target
        x = np.where(active, x + gap / _hazard(rows, x), x)
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
    it.  Each of the J steps of `_log_sf`'s product adds about 5 roundings
    to the relative error of d, and the log1p, the noise term and their
    sum 2 more, so the computed log S is off by up to about u * (5J + 2) *
    |log S|, u = 1.1e-16, even near x = 0; below the smallest normal
    float, by a few subnormal spacings.  A gap below that is rounding, so
    the step that crosses it is each point's last.
    """
    q = np.asarray(q, dtype=float)
    bad = q[~((q > 0.0) & (q < 1.0))]
    if bad.size:
        raise DomainError("quantile argument must be in (0, 1), got "
                          f"{float(bad[0])}")
    one = isinstance(p, LinkProfile)
    x = _quantile(stacked([p] if one else list(p)), np.log1p(-q))
    return _as_output(x.reshape(q.shape)) if one else x
