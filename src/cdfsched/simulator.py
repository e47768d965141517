"""Monte Carlo ground truth for the analytic rate expressions.

Drop-based simulation: each drop redraws the large-scale state (shadowing,
association), then runs block-fading slots in which every user feeds back
its best-M resource blocks and the base station schedules one user per
block.  Each chunk of slots draws every user's SINRs into one buffer, then
scores one user at a time, on the blocks it fed back only, against a
running winner.  Two kinds of stream, both keyed by position and never by
thread: a drop's large-scale draw (shadowing, association) comes from a
Philox stream keyed by (master_seed, drop), and each statistics batch of
the drop draws its small-scale fading from its own SFC64 stream seeded by
master_seed with spawn key (drop, batch).  So results are bit-identical
for a fixed master seed however the drops are spread over threads.
Threads run drops in parallel, one thread a drop: threads_hint buys
nothing at one drop.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import Scenario, _as_cell, build_link_profile, sinr_cdf
from .errors import DomainError, _integer
from .feedback import BestMPoly, check_budget

POLICIES = ("cdf", "greedy", "round_robin")

#: batches per drop used for standard-error estimation
_STAT_BATCHES = 8


@dataclass(frozen=True)
class SimConfig:
    num_drops: int
    slots_per_drop: int
    policy: str
    M: int
    master_seed: int
    threads_hint: int = 1

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise DomainError(f"policy must be one of {POLICIES}")
        for name in ("num_drops", "slots_per_drop", "M", "threads_hint"):
            _integer(getattr(self, name), name, DomainError, 1)
        _master_seed(self.master_seed, "master_seed")


@dataclass(frozen=True)
class RateReport:
    per_user_rate: tuple[float, ...]
    sum_rate: float
    fairness_theta: float
    outage_fraction: float
    per_user_rate_stderr: tuple[float, ...]
    sum_rate_stderr: float
    fairness_theta_stderr: float
    outage_fraction_stderr: float


def _master_seed(value, name: str = "master seed") -> int:
    """value as an int if it is an integer in [0, 2**64); else DomainError."""
    value = _integer(value, name, DomainError)
    if not 0 <= value < 2**64:
        raise DomainError(f"master seed must be in [0, 2**64), got {value}")
    return value


def drop_rng(master_seed: int, drop_index: int) -> np.random.Generator:
    """The drop's large-scale stream: a counter-based Philox stream keyed by
    (master_seed, drop_index), independent of thread layout.  A drop's
    shadowing, and with it association, comes from here; its fading comes
    from the batch streams.

    The key is uint64: a list key would pass seeds >= 2**63 through float64.
    """
    key = np.array([_master_seed(master_seed), drop_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _batch_rng(master_seed: int, drop_index: int,
               batch: int) -> np.random.Generator:
    """The small-scale (fading) stream of one statistics batch of a drop:
    SFC64 seeded by master_seed with spawn key (drop_index, batch)."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(
        master_seed, spawn_key=(drop_index, batch))))


def best_m_select(cqi, M: int):
    """Indices and values of the M largest entries, ties to the lower index."""
    cqi = np.asarray(cqi, dtype=float)
    _, (M,), _ = check_budget(cqi.size, M)
    order = np.argsort(-cqi, kind="stable")[:M]
    return [(int(i), float(cqi[i])) for i in order]


def schedule_slot(feedback, policy: str, profiles, N: int,
                  genie_sinr=None, rr_offset: int = 0):
    """Assign one user per resource block for a single slot.

    feedback: per-user list of (rb_index, cqi) pairs as produced by
    best_m_select.  Returns (assignment, rates): assignment[rb] is the
    winning user index or -1 for an outage block; rates[rb] is
    log2(1 + CQI) of the winner's raw fed-back value (round_robin uses the
    assigned user's actual slot SINR from genie_sinr).  A tie goes to the
    lower user index, as in the simulator.
    """
    if policy not in POLICIES:
        raise DomainError(f"policy must be one of {POLICIES}")
    K0 = len(profiles)
    assignment = np.full(N, -1, dtype=int)
    rates = np.zeros(N)
    if policy == "round_robin":
        if genie_sinr is None:
            raise DomainError("round_robin scheduling needs genie_sinr")
        for rb in range(N):
            k = (rr_offset + rb) % K0
            assignment[rb] = k
            rates[rb] = math.log2(1.0 + genie_sinr[k][rb])
        return assignment, rates

    M = max(len(fb) for fb in feedback) if feedback else 0
    polys = BestMPoly.build(N, M) if M else None
    for rb in range(N):
        best_score = -1.0
        for k, fb in enumerate(feedback):
            for idx, val in fb:
                if idx != rb:
                    continue
                score = (float(polys.eval_in_f(sinr_cdf(profiles[k], val)))
                         if policy == "cdf" else val)
                if score > best_score:
                    best_score = score
                    assignment[rb] = k
                    rates[rb] = math.log2(1.0 + val)
    return assignment, rates


def fairness_theta(assignment_counts) -> float:
    """Entropy-based fairness of assignment proportions, normalized to [0, 1]."""
    counts = np.asarray(assignment_counts, dtype=float)
    K = counts.size
    if K < 2:
        raise DomainError("fairness is undefined for fewer than 2 users")
    total = counts.sum()
    if total <= 0:
        raise DomainError("assignment counts must sum to a positive value")
    if np.all(counts == counts[0]):
        return 1.0  # uniform split, exact by definition
    p = counts / total
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    # 0.0 minus: one user holding every block gives +0.0, not -0.0
    return float(0.0 - terms.sum() / math.log(K))


def _batch_slots(slots_per_drop: int) -> list[int]:
    """Slots in each statistics batch of a drop; the first
    slots_per_drop % batches batches take one slot more."""
    n_batches = min(_STAT_BATCHES, slots_per_drop)
    base, extra = divmod(slots_per_drop, n_batches)
    return [base + (b < extra) for b in range(n_batches)]


def _draw(profiles, rng, scratch, x):
    """One chunk's SINRs into x (K0, n, N): a user's signal and interferer
    exponentials in one call, the interference summed in scale order."""
    for p, xk in zip(profiles, x):
        e = scratch[:(1 + p.num_interferers) * xk.size].reshape(-1, *xk.shape)
        rng.standard_exponential(out=e)
        e[0] *= p.rho0
        xk[...] = p.noise
        for rho_b, e_b in zip(p.rho_int, e[1:]):
            e_b *= rho_b
            xk += e_b
        np.divide(e[0], xk, out=xk)
    return x


def _run_drop(profiles, N: int, config: SimConfig, drop: int):
    """Simulate one drop's slots, each statistics batch from its own
    stream, in a deterministic order.

    Returns the per-batch rate sums (B, K0) in bits/s/Hz over slot-RBs,
    the assignment counts (B, K0) and the outage blocks (B,).
    """
    K0 = len(profiles)
    M = config.M
    batches = _batch_slots(config.slots_per_drop)
    batch_rate = np.zeros((len(batches), K0))
    batch_counts = np.zeros((len(batches), K0), dtype=np.int64)
    batch_outage = np.zeros(len(batches), dtype=np.int64)

    # the chunk boundaries fix the draw order: never change them
    chunk_cap = max(1, 65536 // K0)
    chunks = [(b, start, min(chunk_cap, b_slots - start))
              for b, b_slots in enumerate(batches)
              for start in range(0, b_slots, chunk_cap)]
    rows = min(chunk_cap, batches[0]) * N  # the first batch is the longest
    buf = np.empty(K0 * rows)
    scratch = np.empty(rows * (1 + max(p.num_interferers for p in profiles)))
    slot_cursor = 0
    for b, start, n in chunks:
        if start == 0:
            rng = _batch_rng(config.master_seed, drop, b)
        x = _draw(profiles, rng, scratch, buf[:K0 * n * N].reshape(K0, n, N))
        if config.policy == "round_robin":
            winner = ((slot_cursor + np.arange(n))[:, None] * N
                      + np.arange(N)) % K0
            served = np.ones((n, N), dtype=bool)
        else:
            best = np.full(n * N, -1.0)
            winner = np.zeros(n * N, dtype=np.intp)
            for k, (p, xk) in enumerate(zip(profiles, x)):
                # best-M feedback: a user's M largest blocks, and only
                # those are scored.  F_Y is one increasing map shared by all
                # users, so the largest F_k(x) wins F_Y(F_k(x)); a strict >
                # keeps ties at the lower index
                kth = np.partition(xk, N - M, axis=1)[:, N - M, None]
                fed = np.flatnonzero(xk >= kth)
                score = xk.ravel().take(fed)
                if config.policy == "cdf":
                    score = sinr_cdf(p, score)
                up = score > best.take(fed)
                best.put(fed[up], score[up])
                winner.put(fed[up], k)
            winner = winner.reshape(n, N)
            served = best.reshape(n, N) >= 0.0  # an unfed block: outage

        won = np.take_along_axis(x, winner[None], axis=0)[0]
        served_winner = winner[served]
        batch_rate[b] += np.bincount(
            served_winner, np.log2(1.0 + won[served]), K0)
        batch_counts[b] += np.bincount(served_winner, minlength=K0)
        batch_outage[b] += served.size - np.count_nonzero(served)
        slot_cursor += n

    return batch_rate, batch_counts, batch_outage


def _aggregate(drops, N: int, config: SimConfig) -> RateReport:
    """Estimates from the sums over every drop's batches, standard errors
    from the spread between those batches."""
    b_rate, b_counts, b_outage = (np.concatenate(a) for a in zip(*drops))
    b_rb = N * np.tile(_batch_slots(config.slots_per_drop), config.num_drops)
    rb_total = int(b_rb.sum())
    B = b_rb.size

    per_user = b_rate.sum(axis=0) / rb_total
    K0 = per_user.size
    # the first entry is the whole run, the rest one per batch
    theta, *b_theta = [
        fairness_theta(c) if (K0 >= 2 and c.sum() > 0) else 1.0
        for c in (b_counts.sum(axis=0), *b_counts)
    ]
    b_user_rate = b_rate / b_rb[:, None]

    def stderr(samples):
        samples = np.asarray(samples, dtype=float)
        if B < 2:
            return np.zeros(samples.shape[1:]) if samples.ndim > 1 else 0.0
        return samples.std(axis=0, ddof=1) / math.sqrt(B)

    return RateReport(
        per_user_rate=tuple(float(r) for r in per_user),
        sum_rate=float(per_user.sum()),
        fairness_theta=float(theta),
        outage_fraction=float(b_outage.sum() / rb_total),
        per_user_rate_stderr=tuple(float(s) for s in stderr(b_user_rate)),
        sum_rate_stderr=float(stderr(b_user_rate.sum(axis=1))),
        fairness_theta_stderr=float(stderr(b_theta)),
        outage_fraction_stderr=float(stderr(b_outage / b_rb)),
    )


def _run_drops(drop_profiles, N: int, config: SimConfig) -> RateReport:
    """Run every drop, min(num_drops, threads_hint) at once, and reduce in
    drop-index order.  drop_profiles(rng) gives a drop's link profiles,
    drawing from that drop's large-scale stream; its slots then draw from
    its batch streams."""
    check_budget(N, config.M)

    workers = min(config.num_drops, config.threads_hint)

    def one(drop: int):
        profiles = drop_profiles(drop_rng(config.master_seed, drop))
        return _run_drop(profiles, N, config, drop)

    indices = range(config.num_drops)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            drops = list(pool.map(one, indices))
    else:
        drops = [one(i) for i in indices]
    return _aggregate(drops, N, config)


def simulate_profiles(profiles, N: int, config: SimConfig) -> RateReport:
    """Simulate fixed link profiles (no large-scale redraw between drops)."""
    profiles = _as_cell(profiles)
    if not profiles:
        raise DomainError("need at least one profile")
    return _run_drops(lambda rng: profiles, N, config)


def simulate(scenario: Scenario, config: SimConfig) -> RateReport:
    """Full drop-based simulation: each drop redraws shadowing, re-associates
    users, rebuilds link profiles, then runs the slot loop."""
    K0 = len(scenario.users)

    def drop_profiles(rng):
        shadow = rng.normal(0.0, scenario.shadowing_sigma_db,
                            size=(K0, len(scenario.cells)))
        return [
            build_link_profile(scenario, k, shadow[k]) for k in range(K0)
        ]

    return _run_drops(drop_profiles, scenario.num_rb, config)
