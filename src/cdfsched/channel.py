"""Large-scale network model and per-user SINR distribution.

A LinkProfile captures one user's large-scale state after cell association:
the serving SNR scale rho0, the retained interferer scales, and which
simplified regime (if any) the profile represents.  The SINR distribution
follows from Rayleigh small-scale fading: the interference-plus-noise
denominator is a weighted sum of unit-mean exponentials plus one.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import ConvergenceError, DistinctnessError, DomainError, ScenarioError

log = logging.getLogger(__name__)

GENERAL = "general"
INTERFERENCE_LIMITED = "interference_limited"
NOISE_LIMITED = "noise_limited"

#: minimum pairwise relative separation of interferer scales
DISTINCTNESS_TOL = 1e-9

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
        if not math.isfinite(self.tx_power_dbm):
            raise ScenarioError("tx_power_dbm must be finite")
        if not all(math.isfinite(v) for v in self.position):
            raise ScenarioError(f"cell position must be finite, got {self.position}")


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
        if (isinstance(self.num_rb, bool)
                or not isinstance(self.num_rb, numbers.Integral)
                or self.num_rb < 1):
            raise ScenarioError(f"num_rb must be an integer >= 1, got {self.num_rb!r}")
        if not all(math.isfinite(v) for u in self.users for v in u):
            raise ScenarioError("user positions must be finite")
        if not math.isfinite(self.noise_psd_dbm_hz):
            raise ScenarioError("noise_psd_dbm_hz must be finite")
        if not (math.isfinite(self.shadowing_sigma_db)
                and self.shadowing_sigma_db >= 0):
            raise ScenarioError("shadowing_sigma_db must be finite and >= 0")
        if not (math.isfinite(self.bandwidth_hz) and self.bandwidth_hz > 0):
            raise ScenarioError("bandwidth_hz must be positive and finite")
        if not (0 < self.interferer_keep_threshold <= 1):
            raise ScenarioError("interferer_keep_threshold must be in (0, 1]")
        try:
            noise_mw = 10.0 ** (self.noise_power_rb_dbm / 10.0)
        except OverflowError:
            noise_mw = math.inf
        if not 0.0 < noise_mw < math.inf:
            raise ScenarioError(
                f"noise power per resource block ({self.noise_power_rb_dbm:.6g}"
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
    #: partial-fraction weights of the interference mixture (varpi_weights),
    #: computed once here for every CDF, density and quantile evaluation
    weights: tuple[float, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.rho0) and self.rho0 > 0):
            raise DomainError(f"rho0 must be positive and finite, got {self.rho0}")
        if not all(math.isfinite(r) and r > 0 for r in self.rho_int):
            raise DomainError(
                f"interferer scales must be positive and finite, got {self.rho_int}"
            )
        if self.kind == NOISE_LIMITED and self.rho_int:
            raise DomainError("noise_limited profile cannot have interferers")
        if self.kind == INTERFERENCE_LIMITED and len(self.rho_int) != 1:
            raise DomainError("interference_limited profile needs one interferer")
        if self.kind == GENERAL and not self.rho_int:
            raise DomainError("general profile needs at least one interferer")
        if list(self.rho_int) != sorted(self.rho_int, reverse=True):
            raise DomainError("rho_int must be sorted descending")
        object.__setattr__(self, "weights",
                           tuple(varpi_weights(self.rho_int).tolist()))

    @classmethod
    def noise_limited(cls, rho0: float) -> "LinkProfile":
        return cls(rho0=rho0, rho_int=(), kind=NOISE_LIMITED)

    @classmethod
    def interference_limited(cls, rho0: float, rho1: float) -> "LinkProfile":
        return cls(rho0=rho0, rho_int=(rho1,), kind=INTERFERENCE_LIMITED)

    @classmethod
    def general(cls, rho0: float, rho_int) -> "LinkProfile":
        return cls(rho0=rho0, rho_int=tuple(sorted(rho_int, reverse=True)),
                   kind=GENERAL)

    @property
    def num_interferers(self) -> int:
        return len(self.rho_int)


def _check_distinct(rho_int):
    for i in range(len(rho_int)):
        for j in range(i + 1, len(rho_int)):
            sep = abs(rho_int[i] - rho_int[j]) / max(rho_int[i], rho_int[j])
            if sep < DISTINCTNESS_TOL:
                raise DistinctnessError(
                    f"interferer scales {rho_int[i]:.6g} and {rho_int[j]:.6g} "
                    f"separated by only {sep:.2e} (need {DISTINCTNESS_TOL:.0e})"
                )


def varpi_weights(rho_int) -> np.ndarray:
    """Partial-fraction weights of the interference mixture.

    weight[b] = prod_{i != b} rho_b / (rho_b - rho_i); empty product is 1.
    """
    rho = np.asarray(rho_int, dtype=float)
    _check_distinct(tuple(rho))
    out = np.ones(len(rho))
    for b in range(len(rho)):
        for i in range(len(rho)):
            if i != b:
                out[b] *= rho[b] / (rho[b] - rho[i])
    return out


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
        d = float(np.hypot(*(pos - np.asarray(cell.position))))
        rx_dbm[c] = cell.tx_power_dbm - path_loss_db(cell.tier, d) + shadow[c]

    serving = int(np.argmax(rx_dbm))  # argmax takes the first maximum
    with np.errstate(over="ignore"):  # a huge dBm value is an inf in mW
        rx_mw = 10.0 ** (rx_dbm / 10.0)
    if not np.isfinite(rx_mw).all():
        raise DomainError("rho0 must be positive and finite, but a received "
                          "power overflows in mW")
    noise_mw = 10.0 ** (scenario.noise_power_rb_dbm / 10.0)

    interferers = np.delete(rx_mw, serving)
    if interferers.size == 0:
        return LinkProfile.noise_limited(rx_mw[serving] / noise_mw)

    strongest = float(interferers.max())
    keep = interferers >= scenario.interferer_keep_threshold * strongest
    residual_mw = float(interferers[~keep].sum())
    denom = noise_mw + residual_mw

    kept = np.sort(interferers[keep])[::-1] / denom
    kept = _perturb_near_ties(kept)
    rho0 = rx_mw[serving] / denom
    if kept.size == 0:
        return LinkProfile.noise_limited(rho0)
    return LinkProfile.general(rho0, kept)


def _perturb_near_ties(rho: np.ndarray) -> np.ndarray:
    """Nudge nearly-equal interferer scales apart; the partial-fraction
    weights have poles at exact ties."""
    rho = rho.copy()
    for i in range(1, len(rho)):
        if rho[i - 1] - rho[i] < DISTINCTNESS_TOL * rho[i - 1]:
            log.warning(
                "perturbing near-tied interferer scale %.6g by 1e-6 relative",
                rho[i],
            )
            rho[i] = rho[i - 1] * (1.0 - 1e-6)
    return rho


def sinr_pdf(p: LinkProfile, x):
    """Density of the per-resource-block SINR."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if p.kind == NOISE_LIMITED:
        out = np.exp(-x / p.rho0) / p.rho0
    elif p.kind == INTERFERENCE_LIMITED:
        rho1 = p.rho_int[0]
        out = p.rho0 * rho1 / (rho1 * x + p.rho0) ** 2
    else:
        out = np.zeros_like(x)
        e = np.exp(-x / p.rho0)
        for w, rho_b in zip(p.weights, p.rho_int):
            denom = p.rho0 + rho_b * x
            out += w * e * (1.0 / denom + p.rho0 * rho_b / denom**2)
    out = np.where(x >= 0, out, 0.0)
    return float(out[0]) if scalar else out


def sinr_cdf(p: LinkProfile, x):
    """CDF of the per-resource-block SINR; 0 for x <= 0."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if p.kind == NOISE_LIMITED:
        out = -np.expm1(-x / p.rho0)
    elif p.kind == INTERFERENCE_LIMITED:
        rho1 = p.rho_int[0]
        out = 1.0 - p.rho0 / (rho1 * x + p.rho0)
    else:
        tail = np.zeros_like(x)
        e = np.exp(-x / p.rho0)
        for w, rho_b in zip(p.weights, p.rho_int):
            tail += w * e * p.rho0 / (p.rho0 + rho_b * x)
        out = 1.0 - tail
    out = np.clip(np.where(x > 0, out, 0.0), 0.0, 1.0)
    return float(out[0]) if scalar else out


def sinr_sf(p: LinkProfile, x: float) -> float:
    """Survival function 1 - F of the SINR at one point, in scalar
    arithmetic; accurate deep in the tail, where 1 - sinr_cdf cancels."""
    if x <= 0:
        return 1.0
    if p.kind == NOISE_LIMITED:
        return math.exp(-x / p.rho0)
    if p.kind == INTERFERENCE_LIMITED:
        return p.rho0 / (p.rho_int[0] * x + p.rho0)
    e = math.exp(-x / p.rho0)
    return sum(w * e * p.rho0 / (p.rho0 + rho_b * x)
               for w, rho_b in zip(p.weights, p.rho_int))


def sinr_cdf_inv(p: LinkProfile, q: float) -> float:
    """Quantile of the SINR distribution; closed form in the simplified kinds."""
    if not 0.0 < q < 1.0:
        raise DomainError(f"quantile argument must be in (0, 1), got {q}")
    if p.kind == NOISE_LIMITED:
        return -p.rho0 * math.log1p(-q)
    if p.kind == INTERFERENCE_LIMITED:
        return p.rho0 / p.rho_int[0] * q / (1.0 - q)

    def gap(x: float) -> float:
        return 1.0 - sinr_sf(p, x) - q

    hi = p.rho0
    while gap(hi) < 0.0:
        hi *= 2.0
        if hi > 1e300:
            raise ConvergenceError("could not bracket SINR quantile")
    return brentq(gap, 0.0, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)
