"""cdfsched benchmark: run one workload and print its metrics.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload mc_hetnet --seed 1 --seconds 35 --trace 0

The workloads and metrics are listed in ``BENCHMARK.json``; the layer-metric
to end-to-end-metric map is in ``benchmarks/layer_map.json``.  With
``--trace 0`` the run measures every end-to-end metric with no wrapper
installed.  Its times, set-up apart, are scaled to the reference
machine's speed by the run's yardstick factor (see
``cdfbench/yardstick.py``); the meta line gives the factor and the
unscaled values.  With ``--trace 1``
the run alternates untraced and traced repetitions of the workload's
tasks, takes the tracing overhead from their paired differences, fills the
per-layer metrics the workload does not reach with traced probes, prints
every per-layer metric (unscaled) and writes the spans and per-operation
layer self times under ``--trace-dir``.

Standard output ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  The line before it is
``{"meta": ...}``: seed, grid, nproc, thread caps, library versions, the
source commit, sample counts, every check's pass/fail count and each failed
operation with its grid point.  Each failed check is also logged on its own
``FAIL`` line.

The package is imported from ``src/`` of the current directory; the run
exits with code 2 and prints no result if that is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

#: BLAS/OpenMP pools are capped at one thread; the package's own threads are
#: set per call through threads_hint and never exceed nproc
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}

#: set-ups timed per untraced run (one in this process, the rest in fresh
#: interpreters spread over the run); setup_s is their median
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default=".bench_out",
                        help="where a traced run writes spans and summary")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def source_identity(root: Path) -> dict:
    """The git commit when the checkout is a repository, and a digest of
    the package sources either way."""
    commit = None
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
        if res.returncode == 0:
            commit = res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def versions() -> dict:
    import mpmath
    import numpy
    import scipy

    import cdfsched

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "cdfsched": cdfsched.__version__}


def untraced_run(wl, args, first_setup):
    from cdfbench.workloads import Recorder, pass_seconds, run_tasks

    rec = Recorder()
    rec.setup_seconds.append(first_setup)
    setups = 0 if args.smoke else SETUP_SAMPLES - 1
    run_tasks(wl.tasks(setups, traced=False), rec, args.seconds)
    unscaled = {
        "setup_s": statistics.median(rec.setup_seconds),
        "wall_s": pass_seconds(rec),
        "sim_user_rb_per_s": rec.sim_units / rec.sim_seconds,
        "exact_user_rates_per_s": rec.rates_done / rec.rate_seconds,
        "plan_s": statistics.median(rec.plan_seconds),
    }
    speed = rec.speed.factor()
    metrics = {name: value * speed if name.endswith("_per_s")
               else value / speed for name, value in unscaled.items()}
    # set-up (interpreter start, imports) slows less than the yardstick
    # when the machine slows: its 10-run spread was 14 % unscaled and
    # 21 % scaled, so it is reported as measured
    metrics["setup_s"] = unscaled["setup_s"]
    metrics["ok_frac"] = (rec.attempted - rec.failed) / rec.attempted
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = {"setup_s": len(rec.setup_seconds),
               "wall_s_per_group": min(
                   len(t) for t in rec.group_seconds.values()),
               "plan_s": len(rec.plan_seconds),
               "exact_user_rates": rec.rates_done,
               "sim_user_rbs": rec.sim_units,
               "yardstick_readings": len(rec.speed.readings)}
    extra = {"speed_factor": speed, "unscaled": unscaled}
    return rec, metrics, samples, extra


def traced_run(wl, args):
    from cdfbench import layers
    from cdfbench.tracing import Tracer
    from cdfbench.workloads import (
        Recorder,
        paired_overhead,
        pass_seconds,
        run_tasks,
    )

    tracer = Tracer()
    rec, probes = Recorder(), Recorder(tracer)
    run_tasks(wl.tasks(0, traced=True), rec, args.seconds, tracer)
    with tracer.installed():
        metrics = layers.probe_simulator(probes, wl.sim_case(), wl.seed,
                                         wl.smoke)
        metrics.update(layers.probe_kernels(probes, wl.root, wl.seed,
                                            wl.smoke))
        metrics.update(layers.fill_missing(probes, tracer, wl))
    metrics["trace.overhead_s"] = paired_overhead(rec)
    samples = {"groups": len(rec.group_seconds) // 2,
               "calls_per_group_and_mode": min(
                   len(t) for t in rec.group_seconds.values()),
               "spans": len(tracer.spans)}
    extra = {
        "wall_s_untraced": pass_seconds(rec, traced=False),
        "wall_s_traced": pass_seconds(rec, traced=True),
        "self_s_by_operation": layers.layer_self_times(tracer),
        "tracer": tracer,
    }
    return rec, metrics, samples, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if not (src / "cdfsched" / "__init__.py").is_file():
        return fail(f"no package source under {src}; run from a checkout")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; one of {names}")

    os.environ.update(THREAD_CAPS)
    sys.path.insert(0, str(src))
    from cdfbench.setup import timed_setup

    first, wl = timed_setup(args.workload, args.seed, root, args.smoke)
    import cdfsched

    if not Path(cdfsched.__file__).resolve().is_relative_to(src.resolve()):
        return fail(f"imported cdfsched from {cdfsched.__file__}, not {src}")

    if args.trace:
        rec, values, samples, extra = traced_run(wl, args)
        wanted = spec["per_layer"]
    else:
        rec, values, samples, extra = untraced_run(wl, args, first)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {missing}")

    from cdfbench.workloads import NPROC

    checks: dict[str, dict[str, int]] = {}
    for (name, outcome), n in sorted(rec.checks.items()):
        checks.setdefault(name, {"pass": 0, "fail": 0})[outcome] = n
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "grid": wl.grid(), "nproc": NPROC,
        "threads": {"threads_hint_max": NPROC, **THREAD_CAPS},
        "versions": versions(), **source_identity(root),
        "samples": samples, "checks": checks, "failures": rec.failures,
        **{k: v for k, v in extra.items() if k != "tracer"},
    }
    if args.trace:
        out_dir = root / args.trace_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        extra["tracer"].write(out_dir / f"spans-{stem}.jsonl.gz")
        (out_dir / f"trace-{stem}.json").write_text(
            json.dumps({"meta": meta, "metrics": values}, indent=1,
                       default=str))
    for f in rec.failures:
        where = " ".join(f"{k}={v}" for k, v in f.items()
                         if k not in ("op", "counted", "check", "detail"))
        print(f"FAIL {f['check']} {f['op']} {where}: {f['detail']}")
    print(json.dumps({"meta": meta}, default=str))
    print(json.dumps({
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
