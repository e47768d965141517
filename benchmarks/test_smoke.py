"""Smoke test of the benchmark: every workload at a tiny size (--smoke).

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a traced run writes spans whose per-layer self times sum to no more
than each operation's wall time and leaves no wrapper installed, and that
the benchmark refuses to run without the package source.
"""

import gzip
import importlib.util
import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(BENCH), str(ROOT / "src")]
_spec = importlib.util.spec_from_file_location("cdfbench_run", BENCH / "run.py")
RUN = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(RUN)


# a new seed per run: runs share this process and so the package's caches
SEEDS = itertools.count(100)


def run_benchmark(workload, trace, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    for name in RUN.THREAD_CAPS:  # main() sets these; restore them after
        monkeypatch.delenv(name, raising=False)
    seed = next(SEEDS)
    code = RUN.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.1", "--trace", str(trace), "--smoke",
                     "--trace-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 0, err
    lines = out.strip().splitlines()
    meta = json.loads(lines[-2])["meta"]
    assert meta["seed"] == seed
    return meta, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace, tmp_path, capsys,
                                        monkeypatch):
    meta, result = run_benchmark(workload, trace, tmp_path, capsys,
                                 monkeypatch)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
    assert meta["nproc"] >= 1
    assert {"python", "numpy", "scipy", "mpmath"} <= set(meta["versions"])
    assert "git_commit" in meta and meta["src_sha256"]
    if trace:
        check_spans(tmp_path / f"spans-{workload}-seed{meta['seed']}.jsonl.gz")


def check_spans(path):
    """Spans nest inside one root per operation, the per-layer self times
    of an operation sum to no more than its wall time, and the traced run
    restored every name it rebound."""
    from cdfbench.tracing import LAYERS, by_operation, self_times
    from cdfsched import exact_rate, planner, specfun

    with gzip.open(path, "rt") as fh:
        spans = [SimpleNamespace(**json.loads(line)) for line in fh]
    assert spans and all(s.layer in LAYERS for s in spans)
    for members in by_operation(spans).values():
        roots = [s for s in members if s.parent < 0]
        assert len(roots) == 1
        root = roots[0]
        assert all(root.start <= s.start <= s.end <= root.end
                   for s in members)
        assert sum(self_times(members).values()) <= \
            root.end - root.start + 1e-9

    assert exact_rate.adaptive_quad_halfline is specfun.adaptive_quad_halfline
    assert planner.sum_rate_exact is exact_rate.sum_rate_exact


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout


def test_exact_small_cell_grid_takes_the_series_path():
    """The workload exists to time the series path: at every grid point
    N * K0 is within the budget below which user_rate_exact takes it."""
    from cdfbench.workloads import ExactSmallCell, stream
    from cdfsched.exact_rate import _series_budget

    wl = ExactSmallCell(0, ROOT)
    profiles = wl.profiles(stream(0, 3, 0))
    for kind, K0 in wl.parts:
        assert wl.N * K0 <= _series_budget(profiles[kind]), (kind, K0)
