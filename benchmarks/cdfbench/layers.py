"""Per-layer metrics of the traced run.

Most per-layer metrics are derived from the spans that the workload's own
traced operations leave behind.  A metric the workload's operations do not
reach (the series path on ``plan_hetnet``, say) is measured by a small
probe on that workload's inputs, and every probe call is traced too.  The
simulator, channel and feedback kernel rates always come from probes,
because they need single-threaded or array-sized calls that no workload
operation makes.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from functools import partial

from cdfsched.channel import (
    LinkProfile,
    build_link_profile,
    sinr_cdf,
    sinr_cdf_inv,
)
from cdfsched.exact_rate import user_rate_exact
from cdfsched.feedback import BestMPoly, xi2_vector
from cdfsched.simulator import POLICIES, SimConfig, simulate_profiles

from .tracing import QUAD, by_operation, self_times
from .workloads import (
    GOLDEN,
    NPROC,
    Op,
    Recorder,
    golden_scenario,
    master_seed,
    run_cli,
    stream,
)

RATE = "exact_rate.user_rate_exact"
SUM_RATES = ("exact_rate.sum_rate_exact", "asymptotics.sum_rate_asymptotic")
PLAN_OP = "planner.plan_feedback"
CLI_OPS = {"cli.rate_exact_s": "cli.main rate-exact",
           "cli.plan_feedback_s": "cli.main plan-feedback",
           "cli.simulate_s": "cli.main simulate"}


def _median(values):
    return statistics.median(values) if values else None


def _timed(rec: Recorder, name: str, call, repeats: int = 1) -> float:
    """Median seconds of `repeats` traced calls; raises if any call fails."""
    times = []
    for _ in range(repeats):
        res = rec.run(Op(name, call), counted=False)
        if not res.ok:
            raise RuntimeError(f"layer probe {name} failed: {res.error}")
        times.append(res.seconds)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# metrics derived from spans

def from_spans(tracer) -> dict:
    spans, op_names = tracer.spans, tracer.op_names
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = {}

    quad_rates, series_rates, failed = [], [], []
    for s in spans:
        if s.name != RATE:
            continue
        kids = {c.name for c in children[s.sid]}
        if s.error:
            failed.append(s)
        elif QUAD in kids:
            quad_rates.append(s)
        elif "feedback.xi2_vector" in kids:
            series_rates.append(s)
    if quad_rates:
        quads = [c for s in quad_rates for c in children[s.sid]
                 if c.name == QUAD]
        n = len(quad_rates)
        out["exact_rate.user_rate_quad_ms"] = 1e3 * _median(
            [s.seconds for s in quad_rates])
        out["specfun.quad_calls_per_rate"] = len(quads) / n
        out["specfun.quad_points_per_rate"] = sum(q.points for q in quads) / n
        out["specfun.quad_self_s"] = sum(
            q.seconds - sum(c.seconds for c in children[q.sid])
            for q in quads) / n
    if series_rates:
        out["exact_rate.user_rate_series_ms"] = 1e3 * _median(
            [s.seconds for s in series_rates])
    if failed:
        out["exact_rate.failed_calls"] = len(failed)
        out["exact_rate.failed_call_s"] = sum(s.seconds for s in failed)

    nc = [s.seconds for s in spans
          if s.name == "asymptotics.normalizing_constants" and not s.error]
    if nc:
        out["asymptotics.normalizing_constants_ms"] = 1e3 * _median(nc)

    def in_plans(name):
        return [s for s in spans if s.name == name and not s.error
                and op_names[s.op] == PLAN_OP]

    plans = [s for s in in_plans(PLAN_OP) if s.parent < 0]
    if plans:
        out["planner.exact_s"] = _median(
            [s.seconds for s in in_plans("planner.min_feedback_exact")])
        out["planner.asymptotic_s"] = _median(
            [s.seconds for s in in_plans("planner.min_feedback_asymptotic")])
        calls = Counter(s.op for s in spans
                        if s.name in SUM_RATES and op_names[s.op] == PLAN_OP)
        out["planner.sum_rate_calls"] = _median([calls[p.op] for p in plans])

    for metric, op in CLI_OPS.items():
        runs = [s.seconds for s in spans
                if s.parent < 0 and s.name == op and not s.error]
        if runs:
            out[metric] = _median(runs)
    return out


def layer_self_times(tracer):
    """Per operation name: count, wall seconds and per-layer self seconds."""
    summary: dict[str, dict] = {}
    for op, spans in sorted(by_operation(tracer.spans).items()):
        root = next(s for s in spans if s.parent < 0)
        row = summary.setdefault(tracer.op_names[op],
                                 {"count": 0, "wall_s": 0.0, "self_s": {}})
        row["count"] += 1
        row["wall_s"] += root.seconds
        for layer, t in self_times(spans).items():
            row["self_s"][layer] = row["self_s"].get(layer, 0.0) + t
    return summary


# ---------------------------------------------------------------------------
# probes

def probe_simulator(rec: Recorder, case, seed: int, smoke: bool) -> dict:
    """Per-policy one-drop rates at threads_hint = 1 and thread speed-ups."""
    profiles, N, M = case
    K0 = len(profiles)
    slots = max(20, (64_000 if smoke else 640_000) // (K0 * N))
    urb = slots * K0 * N
    repeats = 1 if smoke else 3
    keys = iter(range(10**6))

    def run(policy, threads, drops=1):
        cfg = SimConfig(num_drops=drops, slots_per_drop=slots, policy=policy,
                        M=M, master_seed=master_seed(stream(seed, 92, next(keys))),
                        threads_hint=threads)
        return partial(simulate_profiles, profiles, N, cfg)

    t = {p: _timed(rec, "simulator.simulate_profiles", run(p, 1), repeats)
         for p in POLICIES}
    rate = {p: urb / t[p] for p in POLICIES}
    one_n = _timed(rec, "simulator.simulate_profiles", run("cdf", NPROC),
                   repeats)
    multi_1 = _timed(rec, "simulator.simulate_profiles",
                     run("cdf", 1, NPROC), repeats)
    multi_n = _timed(rec, "simulator.simulate_profiles",
                     run("cdf", NPROC, NPROC), repeats)
    return {
        "simulator.cdf_user_rb_per_s": rate["cdf"],
        "simulator.greedy_user_rb_per_s": rate["greedy"],
        "simulator.round_robin_user_rb_per_s": rate["round_robin"],
        "simulator.score_ns_per_user_rb":
            1e9 * (1 / rate["cdf"] - 1 / rate["greedy"]),
        "simulator.select_ns_per_user_rb":
            1e9 * (1 / rate["greedy"] - 1 / rate["round_robin"]),
        "simulator.draw_accumulate_ns_per_user_rb": 1e9 / rate["round_robin"],
        "simulator.thread_speedup_one_drop": t["cdf"] / one_n,
        "simulator.thread_speedup_multi_drop": multi_1 / multi_n,
    }


def probe_kernels(rec: Recorder, root, seed: int, smoke: bool) -> dict:
    """Array-sized channel and feedback calls, and the rational xi2 build."""
    rng = stream(seed, 93)
    size = 2**14 if smoke else 2**20
    repeats = 1 if smoke else 3
    rho_int = sorted(10.0 ** rng.uniform(-0.6, 0.3, 3), reverse=True)
    p3 = LinkProfile.general(float(10.0 ** rng.uniform(0.5, 1.0)),
                             [float(r) for r in rho_int])
    x = rng.exponential(p3.rho0, size)
    out = {"channel.sinr_cdf_mpts_per_s": size / 1e6 / _timed(
        rec, "channel.sinr_cdf", partial(sinr_cdf, p3, x), repeats)}

    qs = rng.uniform(0.01, 0.99, 20 if smoke else 200).tolist()
    out["channel.sinr_cdf_inv_per_s"] = len(qs) / _timed(
        rec, "channel.sinr_cdf_inv",
        lambda: [sinr_cdf_inv(p3, q) for q in qs])

    golden = golden_scenario(root)
    n = 50 if smoke else 2000
    shadow = rng.normal(0.0, golden.shadowing_sigma_db,
                        (n, len(golden.cells)))
    users = len(golden.users)
    out["channel.build_link_profile_per_s"] = n / _timed(
        rec, "channel.build_link_profile",
        lambda: [build_link_profile(golden, i % users, shadow[i])
                 for i in range(n)])

    F = rng.uniform(size=size)
    for N, M in ((16, 4), (100, 50)):
        poly = BestMPoly.build(N, M)
        out[f"feedback.bestm_eval_mpts_per_s_n{N}"] = size / 1e6 / _timed(
            rec, "feedback.BestMPoly.eval_in_f", partial(poly.eval_in_f, F),
            repeats)

    # the undecorated builder, so the lru cache neither serves nor keeps it
    build = xi2_vector.__wrapped__
    out["feedback.xi2_vector_ms"] = 1e3 * statistics.median(
        _timed(rec, "feedback.xi2_vector", partial(build, 16, M, tau0))
        for M, tau0 in ((2, 2), (4, 2), (4, 4), (8, 2), (8, 4)))
    return out


def fill_missing(rec: Recorder, tracer, wl) -> dict:
    """Probe the span-derived metrics the workload did not reach.

    Every workload plans (itself or on the golden scenario) and computes
    quadrature-path rates, so only the series path, a failing call and the
    CLI commands can be missing.
    """
    have = from_spans(tracer)
    rng = stream(wl.seed, 94)

    def rate(p, K0, N, M):
        rec.run(Op(RATE, partial(user_rate_exact, p, K0, N, M)),
                counted=False)

    if "exact_rate.user_rate_series_ms" not in have:
        rate(LinkProfile.noise_limited(float(10.0 ** rng.uniform(0.2, 0.6))),
             2, 16, 2)
    if "exact_rate.failed_calls" not in have and not wl.smoke:
        # a wide-carrier point, NL(2) with (K0, N, M) = (10, 50, 8), where
        # the float best-M coefficients cancel and the rate raises
        # ConvergenceError
        rate(LinkProfile.noise_limited(2.0 * float(rng.uniform(0.95, 1.05))),
             10, 50, 8)
    golden = ["--scenario", str(wl.root / GOLDEN),
              "--seed", str(master_seed(rng))]
    commands = {
        "cli.rate_exact_s": ["rate-exact", *golden, "--M", "4"],
        "cli.plan_feedback_s": ["plan-feedback", *golden, "--eta", "0.9"],
        "cli.simulate_s": ["simulate", *golden, "--M", "4", "--drops", "1",
                           "--slots", "200" if wl.smoke else "2000"],
    }
    for metric, argv in commands.items():
        if metric not in have:
            res = rec.run(Op(CLI_OPS[metric], partial(run_cli, argv)),
                          counted=False)
            if not res.ok or res.value[0] != 0:
                raise RuntimeError(f"layer probe {argv[0]} failed")

    out = from_spans(tracer)
    # no call raised, not even the probe's: a count of zero is the reading
    out.setdefault("exact_rate.failed_calls", 0)
    out.setdefault("exact_rate.failed_call_s", 0.0)
    return out
