"""Workloads of the cdfsched benchmark.

Every workload builds its inputs from the workload seed and a repetition
index through the package's public constructors, so each repetition sees
new link profiles and no timed result is served from the package's
lru caches.  A *pass* is one repetition of a workload's operations.  Each
operation belongs to a *group* (an operation name at one grid point), and
the workload's wall time per pass is the sum over groups of the median
time of that group's calls.  Output checks run after the operations,
outside the timed region, and every check that fails marks the operation
it checks as failed.

A workload is a set of *tasks*: its pass (possibly cut into parts), and
side measurements of the end-to-end metrics its pass does not exercise
(the planner on ``mc_hetnet``, say).  `run_tasks` interleaves the tasks
over the whole run in proportion to fixed time shares, so that every
metric is sampled across the run and not at one moment of a machine whose
speed drifts over seconds; the drift over minutes is taken out by the
yardstick (see ``yardstick.py``).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from cdfsched import cli
from cdfsched.channel import Cell, LinkProfile, Scenario
from cdfsched.exact_rate import sum_rate_exact, user_rate_exact
from cdfsched.feedback import BestMPoly, xi2_vector
from cdfsched.planner import plan_feedback
from cdfsched.simulator import POLICIES, SimConfig, simulate, simulate_profiles

from .yardstick import Yardstick

NPROC = len(os.sched_getaffinity(0))

GOLDEN = Path("examples_scenarios", "hetnet_two_macro_four_pico.json")

#: the two-macro/four-pico layout of the golden scenario and criterion 09
HETNET_CELLS = (
    Cell("macro", (0.0, 0.0), 43.0),
    Cell("macro", (1000.0, 0.0), 43.0),
    Cell("pico", (250.0, 150.0), 30.0),
    Cell("pico", (-200.0, -120.0), 30.0),
    Cell("pico", (1250.0, 160.0), 30.0),
    Cell("pico", (800.0, -140.0), 30.0),
)

#: user-RB samples per side simulation
SIDE_SIM_USER_RBS = 3_000_000


def stream(seed: int, *key: int) -> np.random.Generator:
    """Generator for one (seed, purpose, repetition, ...) tuple."""
    return np.random.default_rng([seed, *key])


def master_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**62))


def hetnet_profiles(rng: np.random.Generator, K0: int, N: int = 16):
    """Drop-0 link profiles of K0 users spread over the hetnet.

    User k is uniform on the k-th of K0 equal strips of x in [-300, 1300]
    and on y in [-300, 300], so every cell mixes near-macro, near-pico and
    edge users alike and the cost of a cell varies little with the seed.
    """
    cells = np.array([c.position for c in HETNET_CELLS])
    users = []
    for k in range(K0):
        while True:  # the path-loss model holds from 1 m; keep 10 m clear
            xy = (-300.0 + (k + rng.uniform()) * (1600.0 / K0),
                  rng.uniform(-300.0, 300.0))
            if np.hypot(*(cells - xy).T).min() >= 10.0:
                break
        users.append(xy)
    users = tuple(users)
    scenario = Scenario(cells=HETNET_CELLS, users=users, num_rb=N)
    seed = master_seed(rng)
    return scenario, seed, cli.scenario_profiles(scenario, seed)


@dataclass
class Op:
    name: str                      # "<module>.<function>" of the call made
    call: Callable[[], Any]
    key: dict = field(default_factory=dict)  # grid point, for failure reports

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]


@dataclass
class Result:
    op: Op
    seconds: float
    value: Any = None
    error: str | None = None
    counted: bool = True
    failed: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


class Recorder:
    """Runs and times operations and keeps what the metrics are made of."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.checks: Counter = Counter()
        self.group_seconds: defaultdict = defaultdict(list)
        self.speed = Yardstick()
        self.setup_seconds: list[float] = []
        self.sim_units = 0.0
        self.sim_seconds = 0.0
        self.rates_done = 0
        self.rate_seconds = 0.0
        self.plan_seconds: list[float] = []

    def run(self, op: Op, counted: bool = True,
            group: str | None = None) -> Result:
        """Call op once; a raise is recorded, not propagated.

        A call with a `group` is one of the workload's pass operations: its
        seconds join that group's samples, keyed also on whether it ran
        traced.

        Only counted operations enter `attempted` and `failed`.  Side
        measurements, probes and the calls a check makes pass counted=False:
        they are timed and traced, and their failures are logged, but their
        number does not depend on how many passes fit in the run.
        """
        ctx = (self.tracer.operation(op.name, op.layer) if self.tracer
               else contextlib.nullcontext())
        error = value = None
        t0 = time.perf_counter()
        try:
            with ctx:
                value = op.call()
        except Exception as exc:  # a failing operation is a measured outcome
            error = f"{type(exc).__name__}: {exc}"
        result = Result(op, time.perf_counter() - t0, value, error, counted)
        self.attempted += counted
        if group is not None:
            self.group_seconds[group, self.tracer is not None].append(
                result.seconds)
        if error:
            self._fail(result, "raised", error)
        self.speed.maybe_read()
        return result

    def check(self, result: Result, name: str, ok: bool, detail: str = ""):
        self.checks[name, "pass" if ok else "fail"] += 1
        if not ok:
            self._fail(result, name, detail)

    def _fail(self, result: Result, check: str, detail: str):
        if result.counted and not result.failed:
            self.failed += 1
        result.failed = True
        self.failures.append({"op": result.op.name, **result.op.key,
                              "counted": result.counted, "check": check,
                              "detail": detail})

    def count_sim(self, result: Result, user_rbs: float):
        if result.ok:
            self.sim_units += user_rbs
            self.sim_seconds += result.seconds

    def count_rates(self, result: Result, rates):
        """rates: the user rates the call returned (empty when it raised);
        only finite positive rates count as completed."""
        self.rate_seconds += result.seconds
        self.rates_done += sum(1 for r in rates if math.isfinite(r) and r > 0)

    def count_plan(self, result: Result):
        if result.ok:
            self.plan_seconds.append(result.seconds)


# ---------------------------------------------------------------------------
# output checks

#: batches per drop behind the simulator's standard errors
STAT_BATCHES = 8


def theta_tolerance(stderr: float, drops: int = 1) -> float:
    """The 3-sigma two-sided level for a standard error taken from
    8 * drops batches: Student t with one degree of freedom fewer, so a
    correct simulator fails the check 0.27 % of the time, as at 3 se of
    a normal statistic (3 se alone would fail it about 2 % of the time)."""
    from scipy import stats  # heavy to import; kept out of the set-up

    dof = STAT_BATCHES * drops - 1
    return float(stats.t.ppf(1.0 - 0.0027 / 2, dof)) * stderr


def theta_bias(rep, user_rbs: int) -> float:
    """How far the plug-in entropy fairness of K users over n assigned
    RBs falls short of its true value on average (Miller-Madow):
    (K - 1) / (2 n ln K).  At K0 = 20, N = 16 and 4000 slots that is
    about 2.5 se, so a check without it fails correct runs."""
    K = len(rep.per_user_rate)
    n = user_rbs * (1.0 - rep.outage_fraction)
    return (K - 1) / (2.0 * n * math.log(K))


def check_theta(rec: Recorder, result: Result, user_rbs: int):
    """theta, less its plug-in bias, within 3 sigma of 1; user_rbs is
    slots * N of the one drop."""
    rep = result.value
    gap = abs(rep.fairness_theta + theta_bias(rep, user_rbs) - 1.0)
    tol = theta_tolerance(rep.fairness_theta_stderr)
    rec.check(result, "cdf_theta_within_3sigma_t", gap <= tol,
              f"theta={rep.fairness_theta:.6f} tol={tol:.2e}")


def check_plan(rec: Recorder, result: Result, m_exact, m_asym):
    ok = (m_exact is not None and m_asym is not None
          and abs(m_exact - m_asym) <= 1)
    rec.check(result, "plan_m_exact_vs_asymptotic_within_1", ok,
              f"m_exact={m_exact} m_asymptotic={m_asym}")


def check_rates(rec: Recorder, result: Result, rates):
    """A user rate is finite and, for any rho0 > 0, strictly positive."""
    ok = bool(rates) and all(math.isfinite(r) and r > 0 for r in rates)
    rec.check(result, "finite_positive_rate", ok, f"rates={list(rates)[:4]}")


def run_cli(argv):
    """cli.main in-process; returns (exit code, CSV rows or None)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    try:
        rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    except csv.Error:
        rows = None
    return code, rows


def check_cli(rec: Recorder, result: Result, nrows: int,
              numeric: tuple[str, ...]):
    code, rows = result.value
    ok = code == 0 and rows is not None and len(rows) == nrows
    if ok:
        try:
            ok = all(math.isfinite(float(row[c])) for row in rows
                     for c in numeric)
        except (KeyError, ValueError):
            ok = False
    rec.check(result, "cli_exit_0_parseable_csv", ok,
              f"exit={code} rows={None if rows is None else len(rows)}")


# ---------------------------------------------------------------------------
# shared measurements

def golden_scenario(root: Path) -> Scenario:
    return cli.load_scenario(str(root / GOLDEN))[0]


def golden_profiles(root: Path):
    """The golden scenario's drop-0 profiles at the seed its file names."""
    scenario, raw = cli.load_scenario(str(root / GOLDEN))
    return cli.scenario_profiles(scenario, int(raw["seed"])), scenario.num_rb


def jittered(p: LinkProfile, rng: np.random.Generator) -> LinkProfile:
    """p with every scale multiplied by its own factor in [0.95, 1.05]."""
    def j(x):
        return x * float(rng.uniform(0.95, 1.05))

    return LinkProfile(rho0=j(p.rho0), kind=p.kind, rho_int=tuple(
        sorted((j(r) for r in p.rho_int), reverse=True)))


def golden_cell(root: Path, rng: np.random.Generator, K0: int):
    """K0 users cycling through the golden scenario's profiles, every
    scale of each jittered by +-5 %: new profiles on every call, yet the
    same kinds and interferer counts, and so about the same cost, for
    every seed.  A fresh shadowing draw would change which interferers
    each user keeps, and with it a plan's cost, by +-15 %."""
    base, N = golden_profiles(root)
    return [jittered(base[k % len(base)], rng) for k in range(K0)], N


def reference_plan(rec: Recorder, root: Path, seed: int, step: int):
    """plan_feedback on a golden cell of the scenario's own five users
    (plan_s)."""
    profiles, N = golden_cell(root, stream(seed, 90, step), 5)
    res = rec.run(Op("planner.plan_feedback",
                     partial(plan_feedback, profiles, N, 0.9),
                     {"K0": len(profiles), "eta": 0.9}), counted=False)
    rec.count_plan(res)
    if res.ok:
        check_plan(rec, res, res.value.m_exact, res.value.m_asymptotic)


def side_sim(rec: Recorder, case, seed: int, step: int, smoke: bool):
    """One-drop cdf run at threads_hint = nproc (sim_user_rb_per_s)."""
    profiles, N, M = case
    slots = max(20, SIDE_SIM_USER_RBS // (100 if smoke else 1)
                // (len(profiles) * N))
    cfg = SimConfig(num_drops=1, slots_per_drop=slots, policy="cdf", M=M,
                    master_seed=master_seed(stream(seed, 91, step)),
                    threads_hint=NPROC)
    res = rec.run(Op("simulator.simulate_profiles",
                     partial(simulate_profiles, profiles, N, cfg),
                     {"N": N, "M": M}), counted=False)
    rec.count_sim(res, slots * len(profiles) * N)


# ---------------------------------------------------------------------------
# tasks and their scheduler

@dataclass
class Task:
    """One interleaved activity of a run.

    `step(rec, rep, part)` runs part `part` of repetition `rep`; a task
    cut into `parts` parts completes one repetition every `parts` steps.
    `share` is the task's share of the run time and `min_steps` the steps
    it takes however short the run.
    """
    name: str
    step: Callable[[Recorder, int, int], None]
    share: float
    min_steps: int = 1
    parts: int = 1
    used: float = 0.0
    durations: list = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.durations)


def run_tasks(tasks: list[Task], rec: Recorder, seconds: float,
              tracer=None) -> None:
    """Interleave the tasks for `seconds`, each in proportion to its share.

    The next step goes to the task that has used the least of its share so
    far among those whose step, at its median duration so far, still fits
    in the run.  Once none fits, only tasks still below their min_steps
    run, and then the run ends.  The yardstick is read between steps.

    With a tracer, odd repetitions of every task run traced, with the
    wrappers installed, and even ones untraced.  Each part of repetitions
    2k and 2k + 1 runs back to back, so that a group's traced and untraced
    calls come in neighbouring pairs; which of the two runs first
    alternates, because a first call can warm caches for the second.
    """
    start = time.perf_counter()
    while True:
        left = seconds - (time.perf_counter() - start)
        fits = [t for t in tasks
                if not t.durations or statistics.median(t.durations) <= left]
        behind = [t for t in tasks if t.steps < t.min_steps]
        if not (fits or behind):
            break
        task = min(fits or behind, key=lambda t: t.used / t.share)
        if tracer is None:
            rep, part = divmod(task.steps, task.parts)
        else:  # repetitions 2k and 2k + 1 of each part run back to back
            k, r = divmod(task.steps, 2 * task.parts)
            part, second = divmod(r, 2)
            rep = 2 * k + (second ^ (k + part) % 2)
        traced = tracer is not None and rep % 2 == 1
        t0 = time.perf_counter()
        if traced:
            rec.tracer = tracer
            with tracer.installed():
                task.step(rec, rep, part)
            rec.tracer = None
        else:
            task.step(rec, rep, part)
        dt = time.perf_counter() - t0
        task.used += dt
        task.durations.append(dt)
        rec.speed.maybe_read()


def setup_task(wl: "Workload", share: float, min_steps: int) -> Task:
    """Set-ups in fresh interpreters (setup_s), spread over the run."""
    from .setup import setup_in_fresh_interpreter

    def step(rec, rep, part):
        rec.setup_seconds.append(
            setup_in_fresh_interpreter(wl.root, wl.name, wl.seed))

    return Task("setup", step, share, min_steps)


# ---------------------------------------------------------------------------
# workloads

class Workload:
    name = ""

    def __init__(self, seed: int, root: Path, smoke: bool = False):
        self.seed = seed
        self.root = root
        self.smoke = smoke

    def grid(self) -> dict:
        raise NotImplementedError

    def warm_up(self):
        """Build the shared xi rationals: every workload plans on N = 16,
        which scans every M."""
        for M in range(1, 17):
            BestMPoly.build(16, M)

    def tasks(self, setups: int, traced: bool) -> list[Task]:
        """The run's tasks, with `setups` fresh-interpreter set-ups; a
        traced run takes at least two repetitions of every task, one
        traced and one not."""
        raise NotImplementedError

    def _with_setups(self, tasks, setups, share):
        if setups:
            tasks.append(setup_task(self, share, setups))
        return tasks

    def sim_case(self):
        """(profiles, N, M) for the simulator layer probes."""
        raise NotImplementedError

    def plan_task(self, share: float, traced: bool) -> Task:
        return Task("plan", lambda rec, rep, part: reference_plan(
            rec, self.root, self.seed, rep), share, 2 if traced else 1)

    def sim_task(self, share: float, traced: bool) -> Task:
        return Task("sim", lambda rec, rep, part: side_sim(
            rec, self.sim_case(), self.seed, rep, self.smoke),
            share, 2 if traced else 1)


class McHetnet(Workload):
    name = "mc_hetnet"
    K0, N, M = 20, 16, 4

    def __init__(self, seed, root, smoke=False):
        super().__init__(seed, root, smoke)
        self.slots = 200 if smoke else 4000

    def grid(self):
        return {"K0": self.K0, "N": self.N, "M": self.M, "slots": self.slots,
                "drops": NPROC, "threads_hint": NPROC, "policies": POLICIES,
                "plan_s": "golden cell, K0 = 5"}

    def tasks(self, setups, traced):
        return self._with_setups([
            Task("pass", self.run_pass, 0.5, 2 if traced else 1),
            self.plan_task(0.38, traced),
        ], setups, 0.12)

    def run_pass(self, rec, rep, part):
        scenario, seed, profiles = hetnet_profiles(stream(self.seed, 1, rep),
                                                   self.K0, self.N)
        urb = self.slots * self.K0 * self.N
        multi = rec.run(Op("simulator.simulate", partial(
            simulate, scenario,
            SimConfig(num_drops=NPROC, slots_per_drop=self.slots,
                      policy="cdf", M=self.M, master_seed=seed,
                      threads_hint=NPROC))), group="simulate")
        rec.count_sim(multi, NPROC * urb)
        one = {}
        for policy in POLICIES:
            cfg = SimConfig(num_drops=1, slots_per_drop=self.slots,
                            policy=policy, M=self.M, master_seed=seed + 1,
                            threads_hint=NPROC)
            one[policy] = rec.run(Op(
                "simulator.simulate_profiles",
                partial(simulate_profiles, profiles, self.N, cfg),
                {"policy": policy}), group=f"simulate_profiles {policy}")
        rec.count_sim(one["cdf"], urb)

        cdf, greedy, rr = one["cdf"], one["greedy"], one["round_robin"]
        if cdf.ok:
            check_theta(rec, cdf, self.slots * self.N)
        if cdf.ok and greedy.ok and rr.ok:
            g, c, r = greedy.value, cdf.value, rr.value
            se1 = math.hypot(g.sum_rate_stderr, c.sum_rate_stderr)
            se2 = math.hypot(c.sum_rate_stderr, r.sum_rate_stderr)
            rec.check(greedy, "sum_rate_greedy_gt_cdf_gt_rr_by_3se",
                      g.sum_rate - c.sum_rate > 3 * se1
                      and c.sum_rate - r.sum_rate > 3 * se2,
                      f"greedy={g.sum_rate:.4f} cdf={c.sum_rate:.4f} "
                      f"rr={r.sum_rate:.4f}")
        exact = rec.run(Op("exact_rate.sum_rate_exact",
                           partial(sum_rate_exact, profiles, self.N, self.M)),
                        counted=False)
        rec.count_rates(exact, exact.value.per_user if exact.ok else ())
        if cdf.ok and exact.ok:
            mc, se = cdf.value.sum_rate, cdf.value.sum_rate_stderr
            ref = exact.value.sum_rate
            rec.check(cdf, "mc_vs_exact_within_3se_plus_1pct",
                      abs(mc - ref) <= 3 * se + 0.01 * ref,
                      f"mc={mc:.5f} exact={ref:.5f} se={se:.2e}")

    def sim_case(self):
        return hetnet_profiles(stream(self.seed, 1, 10**6), self.K0,
                               self.N)[2], self.N, self.M


class PlanHetnet(Workload):
    name = "plan_hetnet"
    N = 16
    ETAS = (0.9, 0.99)
    RATE_MS = (2, 4, 8)
    CLI_M = 4

    def __init__(self, seed, root, smoke=False):
        super().__init__(seed, root, smoke)
        self.K0 = 6 if smoke else 50
        self.golden_users = len(golden_scenario(root).users)

    def grid(self):
        return {"K0": self.K0, "N": self.N, "eta": self.ETAS,
                "cells": "golden scenario's users cycled, scales "
                "jittered +-5 %",
                "sum_rate_exact_M": self.RATE_MS, "cli_M": self.CLI_M,
                "cli": ["rate-exact", "rate-asymptotic", "plan-feedback"],
                "cli_scenario": str(GOLDEN)}

    def tasks(self, setups, traced):
        n = 2 if traced else 1
        return self._with_setups([
            Task("plan", self.plan, 0.62, n),
            Task("rates", self.rates, 0.1, n),
            Task("cli", self.cli, 0.06, n),
            self.sim_task(0.1, traced),
        ], setups, 0.12)

    def eta(self, rep):
        """eta alternates every two repetitions, so that the traced and
        untraced calls a traced run pairs share it."""
        return self.ETAS[rep // 2 % 2]

    def plan(self, rec, rep, part):
        """plan_feedback on a new K0-user golden cell."""
        eta = self.eta(rep)
        cell = golden_cell(self.root, stream(self.seed, 2, rep), self.K0)[0]
        plan = rec.run(Op("planner.plan_feedback",
                          partial(plan_feedback, cell, self.N, eta),
                          {"K0": self.K0, "eta": eta}), group="plan_feedback")
        rec.count_plan(plan)
        if plan.ok:
            check_plan(rec, plan, plan.value.m_exact, plan.value.m_asymptotic)

    def rates(self, rec, rep, part):
        """sum_rate_exact at every M of RATE_MS on a new K0-user golden
        cell."""
        cell = golden_cell(self.root, stream(self.seed, 4, rep), self.K0)[0]
        for M in self.RATE_MS:
            res = rec.run(Op("exact_rate.sum_rate_exact",
                             partial(sum_rate_exact, cell, self.N, M),
                             {"M": M}), group=f"sum_rate_exact M={M}")
            rec.count_rates(res, res.value.per_user if res.ok else ())
            if res.ok:
                check_rates(rec, res, res.value.per_user)

    def cli(self, rec, rep, part):
        """The three CLI commands on the golden scenario at a new seed."""
        eta = self.eta(rep)
        golden = ["--scenario", str(self.root / GOLDEN),
                  "--seed", str(master_seed(stream(self.seed, 5, rep)))]
        m = ["--M", str(self.CLI_M)]
        commands = [
            ("rate-exact", m, self.golden_users, ("user_rate_bps_hz",)),
            ("rate-asymptotic", m, self.golden_users, ("user_rate_bps_hz",)),
            ("plan-feedback", ["--eta", str(eta)], 1,
             ("m_exact", "m_asymptotic")),
        ]
        for command, extra, nrows, numeric in commands:
            res = rec.run(Op(f"cli.main {command}",
                             partial(run_cli, [command, *golden, *extra]),
                             {"eta": eta} if command == "plan-feedback"
                             else {"M": self.CLI_M}), group=f"cli {command}")
            if not res.ok:
                continue
            check_cli(rec, res, nrows, numeric)
            code, rows = res.value
            if command == "plan-feedback" and code == 0 and rows:
                check_plan(rec, res, int(rows[0]["m_exact"]),
                           int(rows[0]["m_asymptotic"]))

    def sim_case(self):
        return hetnet_profiles(stream(self.seed, 2, 10**6), self.K0,
                               self.N)[2], self.N, self.CLI_M


class ExactSmallCell(Workload):
    name = "exact_small_cell"
    N = 16
    #: K0 per profile kind: N * K0 stays within the series path's budget,
    #: which is 64 but 32 for two interferers (exact_rate._series_budget)
    K0S = {"noise_limited": (1, 2, 4), "interference_limited": (1, 2, 4),
           "general_j1": (1, 2, 4), "general_j2": (1, 2)}

    def __init__(self, seed, root, smoke=False):
        super().__init__(seed, root, smoke)
        self.MS = (1, 16) if smoke else (1, 2, 4, 8, 16)
        self.parts = [(kind, K0) for kind, k0s in self.K0S.items()
                      for K0 in (k0s[:1] if smoke else k0s)]

    def grid(self):
        return {"N": self.N, "K0": {kind: [K0 for k, K0 in self.parts
                                           if k == kind]
                                    for kind in self.K0S},
                "M": self.MS, "plan_s": "golden cell, K0 = 5"}

    def warm_up(self):
        super().warm_up()
        for M in self.MS:
            for tau0 in range(1, max(K0 for _, K0 in self.parts) + 1):
                xi2_vector(self.N, M, tau0)

    def tasks(self, setups, traced):
        n = 2 if traced else 1
        return self._with_setups([
            Task("pass", self.run_part, 0.5, n * len(self.parts),
                 len(self.parts)),
            self.plan_task(0.3, traced),
            self.sim_task(0.08, traced),
        ], setups, 0.12)

    def profiles(self, rng):
        """The validate command's profiles NL(2), IL(4, 1), G(5; 1, 0.3) and
        G(5; 1), each scale jittered by +-5 %: new on every repetition, yet
        the mpmath precision the series needs, and so its cost, stays put."""
        def j(x):
            return x * float(rng.uniform(0.95, 1.05))

        return {
            "noise_limited": LinkProfile.noise_limited(j(2.0)),
            "interference_limited":
                LinkProfile.interference_limited(j(4.0), j(1.0)),
            "general_j1": LinkProfile.general(j(5.0), (j(1.0),)),
            "general_j2": LinkProfile.general(j(5.0), (j(1.0), j(0.3))),
        }

    def run_part(self, rec, rep, part):
        """user_rate_exact at every M for one (kind, K0) of repetition rep,
        then each result against the quadrature path."""
        kind, K0 = self.parts[part]
        p = self.profiles(stream(self.seed, 3, rep))[kind]
        done = []
        for M in self.MS:
            key = {"kind": kind, "K0": K0, "M": M}
            res = rec.run(Op("exact_rate.user_rate_exact",
                             partial(user_rate_exact, p, K0, self.N, M), key),
                          group=f"user_rate_exact {kind} K0={K0} M={M}")
            rec.count_rates(res, [res.value] if res.ok else ())
            done.append((res, M))

        for res, M in done:
            if not res.ok:
                continue
            quad = rec.run(Op("exact_rate.user_rate_exact", partial(
                user_rate_exact, p, K0, self.N, M, closed_form_max_eps=0)),
                counted=False)
            rel = (abs(res.value - quad.value) / abs(quad.value)
                   if quad.ok and quad.value else math.inf)
            rec.check(res, "series_vs_quadrature_within_1e-9", rel <= 1e-9,
                      f"rel={rel:.2e}" if quad.ok else quad.error)

    def sim_case(self):
        profiles = list(self.profiles(stream(self.seed, 3, 10**6)).values())
        return profiles, self.N, 4


WORKLOADS = {w.name: w for w in (McHetnet, PlanHetnet, ExactSmallCell)}


def pass_seconds(rec: Recorder, traced: bool = False) -> float:
    """Wall time of one pass: the sum over groups of each group's median
    call time, from the traced or from the untraced calls."""
    return sum(statistics.median(times)
               for (group, t), times in rec.group_seconds.items()
               if t == traced)


def paired_overhead(rec: Recorder) -> float:
    """Tracing overhead of one pass: per group, the median difference of
    its k-th traced call and its k-th untraced call (neighbours in time),
    summed over groups."""
    total = 0.0
    for (group, traced), times in rec.group_seconds.items():
        if traced:
            plain = rec.group_seconds[group, False]
            total += statistics.median(
                t - u for t, u in zip(times, plain))
    return total
