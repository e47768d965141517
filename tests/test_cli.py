"""Command-line interface: scenario parsing, seed precedence, CSV output.

Runs main() in-process and captures stdout; the golden six-cell scenario
file in examples_scenarios/ anchors the parsing checks.
"""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from cdfsched import cli
from cdfsched.cli import SEED_ENV_VAR, load_scenario, main, scenario_profiles
from cdfsched.channel import LinkProfile
from cdfsched.errors import ScenarioError
from cdfsched.exact_rate import _collapsed_rates

GOLDEN = str(
    Path(__file__).resolve().parents[1]
    / "examples_scenarios" / "hetnet_two_macro_four_pico.json"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(out: str):
    return list(csv.DictReader(io.StringIO(out)))


def write_json(tmp_path, payload, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


MINIMAL = {
    "cells": [{"tier": "macro", "position_m": [0, 0]}],
    "users": [[60, 25]],
}


class TestLoadScenario:
    def test_golden_six_cell_file(self):
        scenario, raw = load_scenario(GOLDEN)
        assert len(scenario.cells) == 6
        assert sum(c.tier == "macro" for c in scenario.cells) == 2
        assert sum(c.tier == "pico" for c in scenario.cells) == 4
        assert len(scenario.users) == 5
        assert raw["seed"] == 42
        # defaults fill the unspecified numerology
        assert scenario.num_rb == 16
        assert scenario.bandwidth_hz == 5e6

    def test_default_tx_power_by_tier(self):
        scenario, _ = load_scenario(GOLDEN)
        assert scenario.cells[0].tx_power_dbm == 43.0
        assert scenario.cells[2].tx_power_dbm == 30.0

    def test_missing_required_fields(self, tmp_path):
        path = write_json(tmp_path, {"cells": MINIMAL["cells"]})
        with pytest.raises(ScenarioError, match="users"):
            load_scenario(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(str(path))

    def test_unknown_field_rejected(self, tmp_path):
        payload = dict(MINIMAL, carrier_ghz=2.0)
        path = write_json(tmp_path, payload)
        with pytest.raises(ScenarioError, match="carrier_ghz"):
            load_scenario(path)

    def test_bad_cell_entry(self, tmp_path):
        payload = {"cells": [{"tier": "macro"}], "users": [[1, 2]]}
        path = write_json(tmp_path, payload)
        with pytest.raises(ScenarioError, match=r"cells\[0\]"):
            load_scenario(path)

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario("/nonexistent/scenario.json")

    def test_profiles_match_simulator_drop_zero(self):
        scenario, raw = load_scenario(GOLDEN)
        a = scenario_profiles(scenario, raw["seed"])
        b = scenario_profiles(scenario, raw["seed"])
        assert a == b
        assert len(a) == 5


class TestRateCommands:
    def test_single_user_one_row(self, capsys, tmp_path):
        path = write_json(tmp_path, MINIMAL)
        code, out, _ = run_cli(capsys, "rate-exact", "--scenario", path,
                               "--M", "4")
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 1
        assert rows[0]["user_rate_bps_hz"] == rows[0]["sum_rate_bps_hz"]
        assert rows[0]["M"] == "4"

    def test_rate_asymptotic_columns(self, capsys):
        code, out, _ = run_cli(capsys, "rate-asymptotic", "--scenario",
                               GOLDEN, "--M", "8")
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 5
        assert all(float(r["b_bps_hz"]) > 0 for r in rows)

    def test_bad_m_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "rate-exact", "--scenario", GOLDEN,
                               "--M", "99")
        assert code == 2
        assert "error:" in err

    def test_overflowing_best_m_weights_exit_two(self, capsys, tmp_path):
        # C(1100, i) overflows a float, so the best-M weights cannot be built
        path = tmp_path / "wide.json"
        path.write_text(_golden_text(num_rb=1100))
        code, out, err = run_cli(capsys, "rate-exact", "--scenario",
                                 str(path), "--M", "550")
        assert code == 2
        assert err.startswith("error:")
        assert "N=1100, M=550" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("command", [["rate-exact", "--M", "4"],
                                         ["plan-feedback", "--eta", "0.9"]])
    def test_non_finite_link_scale_exits_two(self, capsys, tmp_path, command):
        # every scenario value is finite, but 1e4 dBm overflows to an
        # infinite received power in mW, so rho0 is infinite
        cells = [{"tier": "macro", "position_m": [0, 0], "tx_power_dbm": 1e4}]
        path = write_json(tmp_path, dict(MINIMAL, cells=cells))
        code, _, err = run_cli(capsys, command[0], "--scenario", path,
                               *command[1:])
        assert code == 2
        assert "rho0 must be positive and finite" in err

    @pytest.mark.parametrize("command", [["rate-exact", "--M", "4"],
                                         ["simulate", "--slots", "10"]])
    def test_link_scale_overflowing_over_the_noise_exits_two(
            self, capsys, tmp_path, command):
        # every received power is finite in mW, but over -3200 dBm/Hz of
        # noise the serving scale overflows a float
        path = write_json(tmp_path, {
            "cells": [{"tier": "macro", "position_m": [0, 0]},
                      {"tier": "pico", "position_m": [300, 0]}],
            "users": [[100, 10], [250, 5]], "noise_psd_dbm_hz": -3200})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, command[0], "--scenario", path,
                                     *command[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    def test_far_interferer_takes_the_quadrature(self, capsys, tmp_path):
        # rho1 = 8.4e-11 against rho0 = 15.9: the series would need more
        # than 600 digits, so every rate is the collapsed quadrature's
        path = write_json(tmp_path, {
            "cells": [{"tier": "macro", "position_m": [0, 0]},
                      {"tier": "macro", "position_m": [3e6, 0]}],
            "users": [[3000, 0], [3000, 10], [3000, 20], [3000, 30]],
            "shadowing_sigma_db": 0})
        code, out, err = run_cli(capsys, "rate-exact", "--scenario", path,
                                 "--M", "4")
        assert code == 0, err
        scenario, _ = load_scenario(path)
        profiles = scenario_profiles(scenario, 0)  # unshadowed: any seed
        for row, p in zip(rows_of(out), profiles, strict=True):
            assert float(row["user_rate_bps_hz"]) == pytest.approx(
                _collapsed_rates(p, 4, 16, (4,))[0], rel=1e-11)

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "rate-exact", "--scenario", GOLDEN,
                               "--M", "2", "--out", str(dest))
        assert code == 0
        assert out == ""
        assert len(rows_of(dest.read_text())) == 5


class TestSeedPrecedence:
    def _first_rate(self, capsys, *extra, env=None, monkeypatch=None):
        if env is not None:
            monkeypatch.setenv(SEED_ENV_VAR, env)
        code, out, _ = run_cli(capsys, "rate-exact", "--scenario", GOLDEN,
                               "--M", "2", *extra)
        assert code == 0
        return rows_of(out)[0]["user_rate_bps_hz"]

    def test_flag_overrides_file_seed(self, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        from_file = self._first_rate(capsys)
        from_flag = self._first_rate(capsys, "--seed", "7")
        same_flag = self._first_rate(capsys, "--seed", "7")
        assert from_flag == same_flag
        assert from_flag != from_file

    def test_env_lowest_precedence(self, capsys, monkeypatch, tmp_path):
        # file has no seed: env applies; file seed beats env
        path = write_json(tmp_path, MINIMAL)
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        default = self._first_rate_for(capsys, path)
        monkeypatch.setenv(SEED_ENV_VAR, "99")
        via_env = self._first_rate_for(capsys, path)
        assert via_env != default
        seeded = write_json(tmp_path, dict(MINIMAL, seed=0), "seeded.json")
        via_file = self._first_rate_for(capsys, seeded)
        assert via_file == default

    def _first_rate_for(self, capsys, path):
        code, out, _ = run_cli(capsys, "rate-exact", "--scenario", path,
                               "--M", "2")
        assert code == 0
        return rows_of(out)[0]["user_rate_bps_hz"]

    def test_bad_env_seed(self, capsys, monkeypatch, tmp_path):
        path = write_json(tmp_path, MINIMAL)
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        code, _, err = run_cli(capsys, "rate-exact", "--scenario", path,
                               "--M", "2")
        assert code == 2
        assert SEED_ENV_VAR in err


class TestSeedRange:
    def _rows(self, capsys, seed):
        code, out, err = run_cli(capsys, "rate-exact", "--scenario", GOLDEN,
                                 "--M", "4", "--seed", str(seed))
        assert code == 0, err
        return out

    def test_seeds_above_two_to_the_63_differ(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._rows(capsys, 2**63) != self._rows(capsys, 2**63 + 1)

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_out_of_range_flag_seed_exits_two(self, capsys, seed):
        code, _, err = run_cli(capsys, "rate-exact", "--scenario", GOLDEN,
                               "--M", "4", "--seed", str(seed))
        assert code == 2
        assert "master seed must be in [0, 2**64)" in err

    def test_non_integer_file_seed_exits_two(self, capsys, tmp_path):
        path = write_json(tmp_path, dict(MINIMAL, seed=4.5))
        code, _, err = run_cli(capsys, "rate-exact", "--scenario", path,
                               "--M", "4")
        assert code == 2
        assert "seed must be an integer" in err


def _golden_text(**fields):
    """The golden file with fields replaced, as JSON text; a string "1e999"
    is written as that bare number, which json parses to inf."""
    raw = json.loads(Path(GOLDEN).read_text())
    raw.update(fields)
    return re.sub(r'"(-?1e999)"', r"\1", json.dumps(raw))


#: scenario files that must be refused with exit 2
BAD_SCENARIOS = {
    "nan_literal": _golden_text(noise_psd_dbm_hz=math.nan),
    "minus_infinity_literal": _golden_text(noise_psd_dbm_hz=-math.inf),
    "noise_psd_parses_to_inf": _golden_text(noise_psd_dbm_hz="-1e999"),
    "bandwidth_parses_to_inf": _golden_text(bandwidth_hz="1e999"),
    "shadowing_parses_to_inf": _golden_text(shadowing_sigma_db="1e999"),
    "cell_position_inf": _golden_text(
        cells=[{"tier": "macro", "position_m": [0, 0]},
               {"tier": "macro", "position_m": ["1e999", 0]}]),
    "user_position_inf": _golden_text(users=[[120, 40], [0, "1e999"]]),
    "noise_power_underflows": _golden_text(noise_psd_dbm_hz=-4000),
    "noise_power_overflows": _golden_text(noise_psd_dbm_hz=4000),
    "tx_power_overflows": _golden_text(
        cells=[{"tier": "macro", "position_m": [0, 0], "tx_power_dbm": 1e4},
               {"tier": "macro", "position_m": [1000, 0]}]),
    "two_tx_powers_overflow": _golden_text(
        cells=[{"tier": "macro", "position_m": [0, 0], "tx_power_dbm": 1e4},
               {"tier": "macro", "position_m": [1000, 0],
                "tx_power_dbm": 1e4}]),
    "fractional_num_rb": _golden_text(num_rb=16.7),
    "boolean_num_rb": _golden_text(num_rb=True),
}


@pytest.mark.parametrize("text", BAD_SCENARIOS.values(), ids=BAD_SCENARIOS)
def test_bad_scenario_exits_two_without_warnings(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "rate-exact", "--scenario",
                                 str(path), "--M", "1")
    assert code == 2
    assert err.startswith("error:")
    assert out == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("command", [
    ("rate-exact",), ("rate-asymptotic",), ("plan-feedback", "--eta", "0.9"),
    ("simulate", "--slots", "10")])
def test_scenario_without_users_exits_two(capsys, tmp_path, command):
    path = tmp_path / "no_users.json"
    path.write_text(_golden_text(users=[]))
    code, out, err = run_cli(capsys, *command, "--scenario", str(path))
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


class TestSimulateCommand:
    def test_reproducible_stdout(self, capsys):
        argv = ("simulate", "--scenario", GOLDEN, "--M", "4",
                "--drops", "1", "--slots", "300")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2
        rows = rows_of(out1)
        assert len(rows) == 5
        assert rows[0]["policy"] == "cdf"
        assert rows[0]["master_seed"] == "42"

    def test_threads_do_not_change_output(self, capsys):
        base = ("simulate", "--scenario", GOLDEN, "--M", "4",
                "--drops", "4", "--slots", "100")
        _, out1, _ = run_cli(capsys, *base, "--threads", "1")
        _, out4, _ = run_cli(capsys, *base, "--threads", "4")
        assert out1 == out4  # bitwise identical CSV

    def test_policy_flag(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--scenario", GOLDEN,
                               "--policy", "round_robin", "--slots", "100")
        assert code == 0
        assert float(rows_of(out)[0]["fairness_theta"]) == 1.0


class TestPlanAndValidate:
    def test_plan_feedback_row(self, capsys):
        code, out, _ = run_cli(capsys, "plan-feedback", "--scenario", GOLDEN,
                               "--eta", "0.9")
        assert code == 0
        row = rows_of(out)[0]
        assert 1 <= int(row["m_exact"]) <= 16
        assert float(row["ratio_at_m"]) >= 0.9

    def test_validate_golden_all_pass(self, capsys, monkeypatch):
        checked = []
        g_k = cli.g_k

        def recorded(p, eps):
            checked.append(p)
            return g_k(p, eps)

        monkeypatch.setattr(cli, "g_k", recorded)
        code, out, _ = run_cli(capsys, "validate", "--scenario", GOLDEN)
        assert code == 0
        rows = rows_of(out)
        assert rows and all(r["status"] == "PASS" for r in rows)
        # the closed-form row covers every kind, up to three interferers,
        # and IL(1.3, 1), whose partial fractions cancel
        row, = (r for r in rows if r["check"] == "g_closed_form_vs_quadrature")
        assert float(row["detail"].split("=")[1]) <= 1e-8
        assert sorted({p.num_interferers for p in checked}) == [0, 1, 2, 3]
        assert LinkProfile.interference_limited(1.3, 1.0) in checked


#: run in a fresh interpreter: import the package, then block SciPy so that
#: any later import of it raises ImportError, and run every command
_WITHOUT_SCIPY = """
import contextlib, io, sys
import cdfsched, cdfsched.cli
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded[:3]
sys.modules["scipy"] = None
golden = sys.argv[1]
for argv in (["rate-exact", "--M", "4"], ["rate-asymptotic", "--M", "4"],
             ["plan-feedback", "--eta", "0.9"], ["simulate", "--slots", "200"],
             ["validate"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cdfsched.cli.main([argv[0], "--scenario", golden, *argv[1:]])
    assert code == 0, (argv, code)
"""


def test_every_command_runs_without_scipy():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, GOLDEN],
                         env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
