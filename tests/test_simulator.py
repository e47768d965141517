"""Monte Carlo scheduler simulation.

Oracles: the stated SINR distribution, which physical Rayleigh draws made
here must match within sampling error; hand-worked tiny scheduling
examples; and closed-form outage and fairness values.
"""

import math
import sys
import threading

import mpmath
import numpy as np
import pytest

from cdfsched import simulator
from cdfsched.channel import Cell, LinkProfile, Scenario, sinr_cdf
from cdfsched.errors import DomainError
from cdfsched.exact_rate import user_rate_exact
from cdfsched.simulator import (
    POLICIES,
    SimConfig,
    best_m_select,
    drop_rng,
    fairness_theta,
    schedule_slot,
    simulate,
    simulate_profiles,
)

NL = LinkProfile.noise_limited(2.0)
IL = LinkProfile.interference_limited(4.0, 1.0)
G2 = LinkProfile.general(5.0, (1.0, 0.3))


def _slot_sinr(p, N, rng):
    """Per-RB SINR of one slot from complex Gaussian gains of unit power."""
    h0 = rng.normal(0.0, math.sqrt(0.5), size=(N, 2))
    sig = p.rho0 * (h0**2).sum(axis=1)
    # interference_limited profiles neglect noise by definition
    denom = np.zeros(N) if p.kind == "interference_limited" else np.ones(N)
    for rho_b in p.rho_int:
        hb = rng.normal(0.0, math.sqrt(0.5), size=(N, 2))
        denom += rho_b * (hb**2).sum(axis=1)
    return sig / denom


class TestChannelDraws:
    @pytest.mark.parametrize("p", [NL, IL, G2])
    def test_slot_sinr_matches_stated_cdf(self, p):
        rng = drop_rng(11, 0)
        samples = np.concatenate(
            [_slot_sinr(p, 16, rng) for _ in range(2000)]
        )
        n = samples.size
        for x in (0.5, 2.0, 8.0):
            emp = np.mean(samples <= x)
            expect = float(sinr_cdf(p, x))
            sigma = math.sqrt(expect * (1 - expect) / n)
            assert abs(emp - expect) < 4 * sigma + 1e-4


class TestDropRng:
    @pytest.mark.parametrize("seed", [0, 42, 2**62, 2**63 - 1])
    def test_streams_below_two_to_the_63_unchanged(self, seed):
        # the uint64 key draws what a plain [seed, drop] list key always drew
        old = np.random.Generator(np.random.Philox(key=[seed, 3]))
        assert np.array_equal(drop_rng(seed, 3).random(8), old.random(8))

    def test_seed_range_is_zero_to_two_to_the_64(self):
        drop_rng(2**64 - 1, 0)
        for seed in (-1, 2**64, 1.5, 2.0, True):
            with pytest.raises(DomainError):
                drop_rng(seed, 0)


class TestBestMSelect:
    def test_hand_example(self):
        assert best_m_select([3.0, 1.0, 2.0], 2) == [(0, 3.0), (2, 2.0)]

    def test_tie_goes_to_lower_index(self):
        assert best_m_select([2.0, 2.0, 1.0], 1) == [(0, 2.0)]

    def test_full_selection_keeps_order_by_value(self):
        sel = best_m_select([1.0, 3.0, 2.0], 3)
        assert [i for i, _ in sel] == [1, 2, 0]

    def test_domain(self):
        for M in (3, 0, 1.5, True):
            with pytest.raises(DomainError):
                best_m_select([1.0, 2.0], M)


class TestScheduleSlot:
    def test_single_user_wins_fed_back_blocks(self):
        N, M = 4, 2
        cqi = [5.0, 1.0, 3.0, 0.5]
        fb = [best_m_select(cqi, M)]
        assignment, rates = schedule_slot(fb, "cdf", [NL], N)
        assert list(assignment) == [0, -1, 0, -1]
        assert rates[0] == pytest.approx(math.log2(6.0))
        assert rates[1] == 0.0

    def test_identical_users_tie_resolved(self):
        # a tie keeps the lower user index, as the simulator does
        N = 2
        fb = [[(0, 2.0), (1, 1.0)], [(0, 2.0), (1, 1.0)]]
        assignment, rates = schedule_slot(fb, "cdf", [NL, NL], N)
        assert list(assignment) == [0, 0]
        assert rates[0] == pytest.approx(math.log2(3.0))

    def test_greedy_picks_raw_maximum(self):
        # user 1 has the better raw value but the weaker own-CDF transform
        strong = LinkProfile.noise_limited(50.0)
        fb = [[(0, 3.0)], [(0, 4.0)]]
        a_greedy, _ = schedule_slot(fb, "greedy", [NL, strong], 1)
        assert a_greedy[0] == 1
        a_cdf, _ = schedule_slot(fb, "cdf", [NL, strong], 1)
        assert a_cdf[0] == 0

    def test_round_robin_uses_genie(self):
        genie = [np.array([1.0, 1.0]), np.array([3.0, 3.0])]
        assignment, rates = schedule_slot([], "round_robin", [NL, NL], 2,
                                          genie_sinr=genie, rr_offset=1)
        assert list(assignment) == [1, 0]
        assert rates[0] == pytest.approx(2.0)
        with pytest.raises(DomainError):
            schedule_slot([], "round_robin", [NL, NL], 2)


class TestFairness:
    def test_reference_value(self):
        expect = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25)) \
            / math.log(2)
        assert fairness_theta([75, 25]) == pytest.approx(expect, rel=1e-12)

    def test_uniform_is_exactly_one(self):
        assert fairness_theta([10, 10, 10]) == 1.0

    def test_degenerate_is_zero(self):
        assert fairness_theta([100, 0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            fairness_theta([5])
        with pytest.raises(DomainError):
            fairness_theta([0, 0])


def _cfg(**kw):
    base = dict(num_drops=1, slots_per_drop=2000, policy="cdf", M=2,
                master_seed=123)
    base.update(kw)
    return SimConfig(**base)


class TestSimulateProfiles:
    def test_reproducible_bitwise(self):
        a = simulate_profiles([NL, IL], 8, _cfg())
        b = simulate_profiles([NL, IL], 8, _cfg())
        assert a == b

    def test_thread_layout_does_not_change_results(self):
        cfg1 = _cfg(num_drops=4, slots_per_drop=500, threads_hint=1)
        cfg4 = _cfg(num_drops=4, slots_per_drop=500, threads_hint=4)
        assert simulate_profiles([NL, G2], 8, cfg1) == \
            simulate_profiles([NL, G2], 8, cfg4)

    def test_seed_changes_results(self):
        a = simulate_profiles([NL], 8, _cfg())
        b = simulate_profiles([NL], 8, _cfg(master_seed=124))
        assert a != b

    def test_outage_matches_closed_form(self):
        # an RB is idle iff no user fed it back: (1 - M/N)^K0
        N, M, K0 = 8, 2, 3
        cfg = _cfg(slots_per_drop=4000, M=M)
        rep = simulate_profiles([NL] * K0, N, cfg)
        expect = (1 - M / N) ** K0
        assert abs(rep.outage_fraction - expect) < \
            3 * rep.outage_fraction_stderr + 1e-3

    @pytest.mark.parametrize("p", [NL, IL, G2])
    def test_rate_matches_exact_analysis(self, p):
        N, M, K0 = 8, 2, 2
        cfg = _cfg(slots_per_drop=20000, M=M)
        rep = simulate_profiles([p] * K0, N, cfg)
        expect = user_rate_exact(p, K0, N, M)
        assert rep.per_user_rate[0] == pytest.approx(expect, rel=0.03)

    def test_round_robin_perfectly_fair(self):
        cfg = _cfg(policy="round_robin", slots_per_drop=100)
        rep = simulate_profiles([NL, IL], 8, cfg)
        assert rep.fairness_theta == 1.0
        assert rep.outage_fraction == 0.0

    def test_policy_ordering(self):
        # greedy >= cdf on sum rate; both beat round robin for asymmetric
        # users with enough multiuser diversity
        profiles = [LinkProfile.noise_limited(r)
                    for r in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
        reports = {
            pol: simulate_profiles(
                profiles, 8, _cfg(policy=pol, M=8, slots_per_drop=3000))
            for pol in ("greedy", "cdf", "round_robin")
        }
        assert reports["greedy"].sum_rate > reports["cdf"].sum_rate
        assert reports["cdf"].sum_rate > reports["round_robin"].sum_rate
        assert reports["cdf"].fairness_theta > \
            reports["greedy"].fairness_theta

    def test_domain(self):
        with pytest.raises(DomainError):
            simulate_profiles([], 8, _cfg())
        with pytest.raises(DomainError):
            simulate_profiles([NL], 8, _cfg(M=9))
        with pytest.raises(DomainError):
            SimConfig(num_drops=0, slots_per_drop=1, policy="cdf", M=1,
                      master_seed=0)
        with pytest.raises(DomainError):
            SimConfig(num_drops=1, slots_per_drop=1, policy="pf", M=1,
                      master_seed=0)
        # counts and the seed are integers; numpy's are taken, a bool or a
        # float is not
        for field in ("num_drops", "slots_per_drop", "M", "threads_hint",
                      "master_seed"):
            for bad in (True, 2.5, 2.0):
                with pytest.raises(DomainError, match=field):
                    _cfg(**{field: bad})
            assert getattr(_cfg(**{field: np.int64(2)}), field) == 2

    def test_seed_range_checked_at_construction(self):
        # refused where the config is made, not later in a drop's thread
        _cfg(master_seed=2**64 - 1)
        for seed in (-1, 2**64):
            with pytest.raises(DomainError,
                               match=r"master seed must be in \[0, 2\*\*64\)"):
                _cfg(master_seed=seed)


#: heterogeneous users: noise-limited at three SNRs, one interference-
#: limited, one general with two interferers
HETERO = [NL, IL, G2, LinkProfile.noise_limited(0.5),
          LinkProfile.noise_limited(20.0)]

#: two-sided Student-t level matching 3 sigma for the 7 degrees of
#: freedom of a drop's 8 statistics batches
T_3SIGMA_8_BATCHES = 4.53


class TestWideCarrier:
    """N = 100 blocks, where the float xi1 polynomial loses every digit."""

    def test_cdf_policy_is_fair_and_matches_exact_rates(self):
        N, M = 100, 50
        rep = simulate_profiles(HETERO, N, _cfg(M=M, slots_per_drop=4000,
                                                master_seed=2026))
        tol = T_3SIGMA_8_BATCHES
        assert abs(rep.fairness_theta - 1.0) <= tol * rep.fairness_theta_stderr
        for p, rate, se in zip(HETERO, rep.per_user_rate,
                               rep.per_user_rate_stderr):
            exact = user_rate_exact(p, len(HETERO), N, M)
            assert abs(rate - exact) <= tol * se

    @pytest.mark.parametrize("N,M,slots", [(16, 4, 200), (100, 50, 8)])
    def test_oracle_winner_is_argmax_of_user_cdfs(self, N, M, slots):
        # F_Y is one increasing map shared by all users, so the scalar
        # oracle's literal F_Y(F_k) score picks the fed-back user with the
        # largest F_k, which is what the vectorized simulator ranks by
        rng = drop_rng(17, N)
        for _ in range(slots):
            feedback = [best_m_select(_slot_sinr(p, N, rng), M)
                        for p in HETERO]
            assignment, _ = schedule_slot(feedback, "cdf", HETERO, N)
            expect = np.full(N, -1)
            best = np.full(N, -1.0)
            for k, fb in enumerate(feedback):
                for rb, val in fb:
                    u = sinr_cdf(HETERO[k], val)
                    if u > best[rb]:  # ties keep the lower user index
                        best[rb], expect[rb] = u, k
            assert list(assignment) == list(expect)


class TestOracleTally:
    """The vectorized drop against the scalar reference scheduler on the
    same draws.  A drop of 8 * n slots has 8 statistics batches of n slots,
    and with 5 users each batch is one chunk, so each chunk can be redrawn
    here from its batch's stream in the simulator's order: per user, the
    signal and then each interferer as one (n, N) block."""

    @staticmethod
    def _check(policy, N, M, slots):
        n = slots // 8
        rate_sum = np.zeros(len(HETERO))
        outage = 0
        for chunk in range(8):
            rng = simulator._batch_rng(123, 0, chunk)
            draws = []
            for p in HETERO:
                sig = p.rho0 * rng.exponential(size=(n, N))
                denom = np.zeros((n, N)) \
                    if p.kind == "interference_limited" else np.ones((n, N))
                for rho_b in p.rho_int:
                    denom += rho_b * rng.exponential(size=(n, N))
                draws.append(sig / denom)
            for i in range(n):
                sinr = [d[i] for d in draws]
                feedback = [best_m_select(s, M) for s in sinr]
                assignment, rates = schedule_slot(
                    feedback, policy, HETERO, N, genie_sinr=sinr,
                    rr_offset=(chunk * n + i) * N)
                for k, rate in zip(assignment, rates):
                    if k < 0:
                        outage += 1
                    else:
                        rate_sum[k] += rate
        rep = simulate_profiles(HETERO, N, _cfg(
            policy=policy, M=M, slots_per_drop=slots, master_seed=123))
        rb_total = slots * N
        np.testing.assert_allclose(rep.per_user_rate, rate_sum / rb_total,
                                   rtol=1e-12, atol=0.0)
        assert rep.outage_fraction == outage / rb_total

    @pytest.mark.parametrize("N,M", [(16, 4), (8, 1), (8, 8)])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_tallies_match_schedule_slot(self, policy, N, M):
        self._check(policy, N, M, slots=8)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_tallies_match_at_multi_slot_chunks(self, policy):
        # 3 slots a chunk: a swap of the slot and block axes shows here
        self._check(policy, 16, 4, slots=24)


class TestBatchStreamCalibration:
    """The batch streams' standard errors are calibrated, which a frozen
    hex case cannot show.  With 8 equal batches, (MC - exact) / stderr is
    Student-t with 7 degrees of freedom, so the runs within 2 reported
    stderr of the exact sum rate, over 60 fixed seeds, are binomial at
    that t coverage (about 0.914)."""

    def test_two_stderr_coverage_over_60_seeds(self):
        K0, N, M, seeds, nu = 3, 8, 2, 60, 7
        exact = user_rate_exact(G2, K0, N, M) * K0
        hits = 0
        for seed in range(seeds):
            rep = simulate_profiles([G2] * K0, N, _cfg(master_seed=seed))
            hits += abs(rep.sum_rate - exact) <= 2 * rep.sum_rate_stderr
        # P(|T| <= 2) = 1 - I_{nu / (nu + 4)}(nu / 2, 1 / 2)
        cover = 1 - float(mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + 4),
                                         regularized=True))
        pmf = [math.comb(seeds, c) * cover**c * (1 - cover)**(seeds - c)
               for c in range(seeds + 1)]
        # the two-sided 0.1 % band: counts with both tails >= 0.05 %
        band = [c for c in range(seeds + 1)
                if sum(pmf[:c + 1]) >= 5e-4 and sum(pmf[c:]) >= 5e-4]
        assert band[0] <= hits <= band[-1], (hits, band[0], band[-1], cover)


class TestThreads:
    """Drop threads: the same bits, one pool of min(num_drops,
    threads_hint) workers and no other thread, and a failing draw surfaces
    without leaking a thread."""

    @pytest.fixture
    def executors(self, monkeypatch):
        """The max_workers of every executor made, and the most workers
        ever asked for at once."""
        lock = threading.Lock()
        made, live, peak = [], [0], [0]

        class Counting(simulator.ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers=max_workers)
                with lock:
                    made.append(max_workers)
                    live[0] += max_workers
                    peak[0] = max(peak[0], live[0])

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                with lock:
                    live[0] -= self._max_workers

        monkeypatch.setattr(simulator, "ThreadPoolExecutor", Counting)
        return made, peak

    @pytest.mark.parametrize("drops", [1, 2, 3])
    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_workers_never_exceed_threads_hint(self, executors, drops,
                                               threads):
        made, peak = executors
        cfg = _cfg(num_drops=drops, slots_per_drop=40, threads_hint=threads)
        assert simulate_profiles(HETERO, 8, cfg) == \
            simulate_profiles(HETERO, 8, _cfg(num_drops=drops,
                                              slots_per_drop=40))
        assert peak[0] <= threads
        workers = min(drops, threads)
        assert made == ([workers] if workers > 1 else [])

    def test_bits_hold_under_fast_thread_switching(self):
        # more threads than cores and a switch every microsecond: drops
        # that shared a buffer or a stream would change the report
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = simulate_profiles(HETERO, 8, _cfg(
                num_drops=2, slots_per_drop=400, threads_hint=4))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == simulate_profiles(HETERO, 8, _cfg(
            num_drops=2, slots_per_drop=400))

    @pytest.mark.parametrize("drops,threads", [(1, 2), (2, 4), (3, 2)])
    def test_failing_draw_reaches_caller(self, monkeypatch, drops, threads):
        baseline = threading.active_count()
        draw = simulator._draw
        calls = [0]

        def failing(*args):
            calls[0] += 1
            if calls[0] >= 3:
                raise RuntimeError("draw failed")
            return draw(*args)

        monkeypatch.setattr(simulator, "_draw", failing)
        cfg = _cfg(num_drops=drops, slots_per_drop=16, threads_hint=threads)
        with pytest.raises(RuntimeError, match="draw failed"):
            simulate_profiles(HETERO, 8, cfg)
        assert threading.active_count() == baseline


class TestSimulateScenario:
    def _scenario(self):
        cells = (Cell("macro", (0.0, 0.0), 43.0),
                 Cell("macro", (800.0, 0.0), 43.0))
        users = ((120.0, 40.0), (300.0, -80.0))
        return Scenario(cells=cells, users=users)

    def test_runs_and_reproduces(self):
        cfg = _cfg(num_drops=2, slots_per_drop=200)
        a = simulate(self._scenario(), cfg)
        b = simulate(self._scenario(), cfg)
        assert a == b
        assert a.sum_rate > 0
        assert len(a.per_user_rate) == 2

    def test_m_bounded_by_num_rb(self):
        with pytest.raises(DomainError):
            simulate(self._scenario(), _cfg(M=17))
