"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced: set-up five
times (``setup_s`` is the median, and only the last set-up stays
alive), then whole episodes of the request plan until ``--seconds`` of
traffic were timed, then the correctness check.  ``--trace 1`` runs a
fixed number of ops untraced on one set-up and the same ops traced on a
second, and reports the per-layer metrics; the spans go to
``.perfbench_out/``.  Counts repeat exactly only because the op count
is fixed, so ``--seconds`` does not apply to it.  The last line of
standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it carries diagnostics (tail percentile and sample
count, the unscaled CPU and wall figures, the host speed probe).

Timings are process CPU time, scaled to a reference host speed.  On a
shared host, wall time counts the time other tenants hold the CPU, and
CPU time itself stretches by up to 2x while they contend for the
core; fixed probes run next to the measured work (see
:mod:`perfbench.measure`) say how many times slower than a reference
host it ran, and each timing is divided by that.  The whole process
runs on one CPU so the probes and the work share it.

The process re-executes itself once with ``PYTHONHASHSEED=0`` so string
hashing, and with it every count metric, repeats exactly.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HASH_SEED = "0"
SETUP_REPEATS = 5
OUTPUT_DIR = ROOT / ".perfbench_out"

#: End-to-end metric -> unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_cpu_s": "1/s",
    "op_p50_cpu_ms": "ms",
    "op_tail_cpu_ms": "ms",
    "success_frac": "ratio",
    "peak_rss_mb": "MB",
    "np_avg_f1": "ratio",
    "rp_avg_f1": "ratio",
    "entity_link_acc": "ratio",
    "relation_link_acc": "ratio",
}


def per_layer_unit(name: str) -> str:
    """Per-op milliseconds, per-op counts, or a ratio."""
    if name == "host.calib_ms":
        return "ms"
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms/op"
    if name.endswith("_frac") or name == "trace.overhead":
        return "ratio"
    return "count/op"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units(name)}
                for name, value in metrics.items()
            },
        }
    )


def run_untraced(workload_cls, seed: int, seconds: float, calibration) -> tuple[dict, str]:
    from perfbench.measure import (
        SpeedSampler,
        min_samples,
        peak_rss_mb,
        percentile,
        samples_beyond,
        tail_percentile,
    )

    setups = []
    setup_cpus = []
    setup_walls = []
    for repeat in range(SETUP_REPEATS):
        workload = workload_cls(seed)
        start = time.perf_counter()
        with SpeedSampler() as sampler:
            workload.setup()
        setup_walls.append(time.perf_counter() - start)
        setup_cpus.append(sampler.cpu_s)
        setups.append(sampler.scaled_s)
        if repeat < SETUP_REPEATS - 1:
            # Only one set-up stays alive, so peak_rss_mb is one
            # workload's memory, not several.
            workload.close()
            del workload
            gc.collect()
    try:
        measured = workload.measure(seconds)
        rss = peak_rss_mb()
        checked = workload.final_check()
    finally:
        workload.close()

    latencies_ms = [latency * 1e3 for latency in measured.latencies_s]
    cpu_ms = [cpu * 1e3 for cpu in measured.cpu_s]
    # Each op's CPU time at the reference host speed: the probes run on
    # both sides of the op say how fast the host ran then.
    scaled_ms = [cpu / slowdown for cpu, slowdown in zip(cpu_ms, measured.slowdown)]
    n = len(scaled_ms)
    tail_pct = workload.tail_pct
    if n < min_samples(tail_pct):
        tail_pct = tail_percentile(n) or 50.0
    attempted = measured.attempted + checked.checks
    failed = measured.errors + checked.mismatches
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_cpu_s": n / (sum(scaled_ms) / 1e3),
        "op_p50_cpu_ms": percentile(scaled_ms, 50.0),
        "op_tail_cpu_ms": percentile(scaled_ms, tail_pct),
        "success_frac": 1.0 - failed / attempted,
        "peak_rss_mb": rss,
        **checked.quality,
    }
    slowdowns = statistics.quantiles(measured.slowdown, n=4)
    diagnostics = {
        "workload": workload.name,
        "seed": seed,
        "ops": n,
        "tail_percentile": tail_pct,
        "samples_beyond_tail": samples_beyond(n, tail_pct),
        "setup_s": setups,
        "setup_cpu_s": setup_cpus,
        "setup_wall_s": setup_walls,
        "measured_s": measured.wall_s,
        # Unscaled figures, not gated: wall time follows CPU steal and
        # CPU time the host's speed.
        "wall_ops_per_s": len(latencies_ms) / measured.wall_s,
        "wall_p50_ms": percentile(latencies_ms, 50.0),
        "wall_tail_ms": percentile(latencies_ms, tail_pct),
        "raw_cpu_p50_ms": percentile(cpu_ms, 50.0),
        "raw_cpu_tail_ms": percentile(cpu_ms, tail_pct),
        "slowdown_quartiles": slowdowns,
        "checks": checked.checks,
        "mismatches": checked.mismatches,
        **measured.notes,
        "host.calib_ms": calibration,
    }
    line = result_line(failed == 0, attempted, failed, metrics, END_TO_END_UNITS.get)
    return diagnostics, line


def run_traced(workload_cls, seed: int, calibration) -> tuple[dict, tuple]:
    from perfbench.workloads import traced_run

    metrics, attempted, failed, checked, tracer = traced_run(workload_cls, seed)
    tracer.dump(OUTPUT_DIR / f"{workload_cls.name}-seed{seed}.spans.jsonl")
    diagnostics = {
        "workload": workload_cls.name,
        "seed": seed,
        "spans": len(tracer.spans),
        "checks": checked.checks,
        "mismatches": checked.mismatches,
        "host.calib_ms": calibration,
    }
    return diagnostics, (metrics, attempted, failed)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    # One CPU for every thread, so the host speed probe runs where the
    # measured work runs (a shared host slows its CPUs independently).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.measure import calibration_ms
    from perfbench.tracing import per_layer_names
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload_cls = WORKLOADS[args.workload]
    calibration = {"start": calibration_ms()}
    if args.trace:
        diagnostics, (metrics, attempted, failed) = run_traced(workload_cls, args.seed, calibration)
        calibration["end"] = calibration_ms()
        metrics["host.calib_ms"] = statistics.fmean(calibration.values())
        ordered = {name: metrics[name] for name in per_layer_names()}
        line = result_line(failed == 0, attempted, failed, ordered, per_layer_unit)
    else:
        diagnostics, line = run_untraced(workload_cls, args.seed, args.seconds, calibration)
        calibration["end"] = calibration_ms()
    print(json.dumps(diagnostics))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
