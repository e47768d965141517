"""Command-line interface: scenario ingestion, dispatch, CSV emission.

Scenario files are JSON with unit-suffixed field names; unspecified fields
fall back to the built-in defaults (5 MHz bandwidth, -170 dBm/Hz noise PSD,
16 resource blocks, 43/30 dBm macro/pico transmit power, 8 dB shadowing).
Analytic subcommands evaluate the large-scale realization of drop 0, so a
one-drop simulation with the same seed sees the same link profiles.

Exit codes: 0 success, 2 validation failure, 1 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields

from . import __version__
from .asymptotics import (competitor_count, normalizing_constants,
                          user_rate_asymptotic)
from .channel import Cell, LinkProfile, Scenario, build_link_profile
from .errors import DomainError, PreconditionError, ScenarioError, _integer
from .exact_rate import g_k, g_k_quadrature, sum_rate_exact
from .feedback import xi2_convolution, xi2_vector
from .planner import plan_feedback
from .simulator import (POLICIES, SimConfig, drop_rng, simulate,
                        simulate_profiles)

SEED_ENV_VAR = "CDFSCHED_SEED"

_DEFAULT_TX_DBM = {"macro": 43.0, "pico": 30.0}

#: a scenario file's fields: the seed and those of Scenario
_SCENARIO_FIELDS = {"seed"} | {f.name for f in fields(Scenario)}


def _reject_constant(name: str):
    raise ScenarioError(f"scenario files may not contain {name}")


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, (int, str)):
        return str(x)
    if x is None:
        return ""
    return f"{x:.12g}"


def load_scenario(path: str) -> tuple[Scenario, dict]:
    """Parse and validate a JSON scenario file.

    Returns the Scenario and the raw mapping (used for seed precedence).
    """
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"scenario file {path!r} is not valid JSON: {exc.msg} "
            f"(line {exc.lineno}, column {exc.colno})"
        )
    except ValueError as exc:  # an integer past Python's digit limit, say
        raise ScenarioError(f"cannot parse scenario file {path!r}: {exc}")
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must contain a JSON object")
    unknown = set(raw) - _SCENARIO_FIELDS
    if unknown:
        raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
    not_lists = [f for f in ("cells", "users")
                 if not isinstance(raw.get(f), list)]
    if not_lists:
        raise ScenarioError(
            f"scenario fields {not_lists} are missing or not lists")

    cells = []
    for i, c in enumerate(raw["cells"]):
        if not isinstance(c, dict) or "tier" not in c or "position_m" not in c:
            raise ScenarioError(
                f"cells[{i}] needs at least 'tier' and 'position_m'"
            )
        tier = c["tier"]
        if tier not in ("macro", "pico"):  # by ==: a list is no dict key
            raise ScenarioError(f"cells[{i}]: unknown tier {tier!r}")
        cells.append(Cell(tier=tier,
                          position=_pair(c["position_m"],
                                         f"cells[{i}].position_m"),
                          tx_power_dbm=c.get("tx_power_dbm",
                                             _DEFAULT_TX_DBM[tier])))
    users = tuple(_pair(u, f"users[{i}]") for i, u in enumerate(raw["users"]))
    numbers = {f: v for f, v in raw.items()
               if f not in ("cells", "users", "seed")}
    return Scenario(cells=tuple(cells), users=users, **numbers), raw


def _pair(value, where: str) -> tuple:
    """A JSON [x, y] as a tuple, whose numbers Cell and Scenario check."""
    if not isinstance(value, list) or len(value) != 2:
        raise ScenarioError(f"{where} must be [x, y]")
    return tuple(value)


def scenario_profiles(scenario: Scenario, master_seed: int):
    """Link profiles for the drop-0 large-scale realization.

    Uses the same substream and draw order as the simulator's first drop so
    that analytic and one-drop simulated results describe the same cell.
    """
    rng = drop_rng(master_seed, 0)
    K0 = len(scenario.users)
    shadow = rng.normal(0.0, scenario.shadowing_sigma_db,
                        size=(K0, len(scenario.cells)))
    return [build_link_profile(scenario, k, shadow[k]) for k in range(K0)]


def _resolve_seed(args, raw: dict) -> int:
    if args.seed is not None:
        return args.seed
    if "seed" in raw:
        return _integer(raw["seed"], "seed", ScenarioError)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ScenarioError(
                f"environment variable {SEED_ENV_VAR}={env!r} is not an integer"
            )
    return 0


def _open_out(args):
    if args.out and args.out != "-":
        return open(args.out, "w", newline="")
    return sys.stdout


def _write_rows(args, header, rows):
    out = _open_out(args)
    try:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
    finally:
        if out is not sys.stdout:
            out.close()


def _setup(args, profiles: bool = True):
    """A command's scenario, seed, N, budget M (--M, else full feedback)
    and drop-0 link profiles (None if not asked for)."""
    scenario, raw = load_scenario(args.scenario)
    seed = _resolve_seed(args, raw)
    N = scenario.num_rb
    M = N if getattr(args, "M", None) is None else args.M
    return (scenario, seed, N, M,
            scenario_profiles(scenario, seed) if profiles else None)


def _cmd_rate_exact(args) -> int:
    _, _, N, M, profiles = _setup(args)
    report = sum_rate_exact(profiles, N, M)
    rows = [
        (k, len(profiles), N, M, r, report.sum_rate)
        for k, r in enumerate(report.per_user)
    ]
    _write_rows(args, ["user_index", "K0", "N", "M", "user_rate_bps_hz",
                       "sum_rate_bps_hz"], rows)
    return 0


def _cmd_rate_asymptotic(args) -> int:
    _, _, N, M, profiles = _setup(args)
    K0 = len(profiles)
    per_user = user_rate_asymptotic(profiles, K0, N, M).tolist()
    total = sum(per_user)
    nc = normalizing_constants(profiles, competitor_count(K0, N, M), N, M)
    rows = [(k, K0, N, M, a, b, r, total) for k, (a, b, r) in
            enumerate(zip(nc.a.tolist(), nc.b.tolist(), per_user))]
    _write_rows(args, ["user_index", "K0", "N", "M", "a_bps_hz", "b_bps_hz",
                       "user_rate_bps_hz", "sum_rate_bps_hz"], rows)
    return 0


def _cmd_simulate(args) -> int:
    scenario, seed, N, M, _ = _setup(args, profiles=False)
    config = SimConfig(num_drops=args.drops, slots_per_drop=args.slots,
                       policy=args.policy, M=M, master_seed=seed,
                       threads_hint=args.threads)
    report = simulate(scenario, config)
    K0 = len(scenario.users)
    rows = [
        (args.policy, M, K0, N, args.drops, args.slots, seed, k, r, se,
         report.sum_rate, report.sum_rate_stderr, report.fairness_theta,
         report.fairness_theta_stderr, report.outage_fraction,
         report.outage_fraction_stderr)
        for k, (r, se) in enumerate(
            zip(report.per_user_rate, report.per_user_rate_stderr))
    ]
    _write_rows(args, [
        "policy", "M", "K0", "N", "num_drops", "slots_per_drop",
        "master_seed", "user_index", "user_rate_bps_hz", "user_rate_stderr",
        "sum_rate_bps_hz", "sum_rate_stderr", "fairness_theta",
        "fairness_theta_stderr", "outage_fraction", "outage_fraction_stderr",
    ], rows)
    return 0


def _cmd_plan_feedback(args) -> int:
    _, _, N, _, profiles = _setup(args)
    result = plan_feedback(profiles, N, args.eta)
    _write_rows(args, ["eta", "N", "K0", "m_exact", "m_asymptotic",
                       "ratio_at_m", "evaluations"],
                [(args.eta, N, len(profiles), result.m_exact,
                  result.m_asymptotic, result.ratio_at_m,
                  result.evaluations)])
    return 0


def _cmd_validate(args) -> int:
    """Run the built-in oracle cross-checks and emit a PASS/FAIL table."""
    checks = []

    def record(name, ok, detail):
        checks.append((name, "PASS" if ok else "FAIL", detail))

    profiles = [
        LinkProfile.noise_limited(2.0),
        LinkProfile.interference_limited(4.0, 1.0),
        LinkProfile.general(5.0, (1.0, 0.3)),
    ]
    worst = 0.0
    # IL(1.3, 1)'s partial fractions cancel, by 11 digits at eps = 16
    for p in (*profiles, LinkProfile.interference_limited(1.3, 1.0),
              LinkProfile.general(3.0, (2.0, 0.7, 0.2))):
        for eps in (1, 4, 16):
            closed = g_k(p, eps)
            quad = g_k_quadrature(p, eps)
            worst = max(worst, abs(closed - quad) / quad)
    record("g_closed_form_vs_quadrature", worst <= 1e-8,
           f"max_rel_err={worst:.3e}")

    ok = all(
        xi2_vector(N, M, t) == xi2_convolution(N, M, t)
        for N, M, t in ((16, 2, 3), (24, 4, 2), (32, 8, 2))
    )
    record("power_coefficients_recursion_vs_convolution", ok,
           "exact rational comparison")

    if args.scenario:
        _, seed, _, _, cell_profiles = _setup(args)
    else:
        seed = args.seed if args.seed is not None else 0
        cell_profiles = profiles
    N, M = 16, 4
    exact = sum_rate_exact(cell_profiles, N, M).sum_rate
    sim = simulate_profiles(
        cell_profiles, N,
        SimConfig(num_drops=1, slots_per_drop=20000, policy="cdf", M=M,
                  master_seed=seed),
    ).sum_rate
    rel = abs(sim - exact) / exact
    record("monte_carlo_vs_analytic", rel <= 0.03, f"rel_err={rel:.3e}")

    _write_rows(args, ["check", "status", "detail"], checks)
    return 0 if all(s == "PASS" for _, s, _ in checks) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdfsched",
        description="Exact, asymptotic, and simulated throughput of "
                    "CDF-based scheduling with best-M partial feedback.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, scenario_required=True):
        sp.add_argument("--scenario", required=scenario_required,
                        help="path to a JSON scenario file")
        sp.add_argument("--out", default="-",
                        help="output CSV path (default: stdout)")
        sp.add_argument("--seed", type=int, default=None,
                        help="master seed override")

    sp = sub.add_parser("rate-exact", help="closed-form per-user/sum rates")
    common(sp)
    sp.add_argument("--M", type=int, default=None,
                    help="feedback budget (default: full feedback)")
    sp.set_defaults(fn=_cmd_rate_exact)

    sp = sub.add_parser("rate-asymptotic",
                        help="extreme-value rate approximation")
    common(sp)
    sp.add_argument("--M", type=int, default=None)
    sp.set_defaults(fn=_cmd_rate_asymptotic)

    sp = sub.add_parser("simulate", help="Monte Carlo simulation")
    common(sp)
    sp.add_argument("--M", type=int, default=None)
    sp.add_argument("--policy", choices=POLICIES, default="cdf")
    sp.add_argument("--drops", type=int, default=1)
    sp.add_argument("--slots", type=int, default=10000)
    sp.add_argument("--threads", type=int, default=1)
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("plan-feedback",
                        help="minimum M meeting a sum-rate ratio target")
    common(sp)
    sp.add_argument("--eta", type=float, required=True,
                    help="sum-rate ratio threshold in (0, 1]")
    sp.set_defaults(fn=_cmd_plan_feedback)

    sp = sub.add_parser("validate", help="run the oracle cross-check suite")
    common(sp, scenario_required=False)
    sp.set_defaults(fn=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, DomainError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
