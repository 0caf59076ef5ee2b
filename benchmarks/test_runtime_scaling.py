"""Runtime scaling bench: wall time per OKB size x execution runtime.

Runs the sharded (naturally decomposable) workload at growing OKB sizes
under every shipped :mod:`repro.runtime` and

* hard-asserts that all runtimes produce *equivalent decisions* (the
  CI gate for the distributed-inference claim of Section 3.4),
* hard-asserts byte-identical ``EngineReport`` payloads from
  :class:`PartitionedRuntime` and :class:`IncrementalRuntime` against
  :class:`SerialRuntime` on the trained ReVerb45K-shaped fixture,
* records the perf trajectory into ``benchmarks/BENCH_runtime.json``
  (machine-readable, tracked across PRs) alongside the human-readable
  ``results.txt``.
"""

import json
import time
from pathlib import Path

from conftest import BENCH_CONFIG, record_result

from repro.core import JOCLConfig
from repro.core.inference import decode
from repro.core.model import JOCL
from repro.datasets import ShardedOKBConfig, generate_sharded_reverb45k
from repro.runtime import IncrementalRuntime, PartitionedRuntime, SerialRuntime

BENCH_JSON_PATH = Path(__file__).parent / "BENCH_runtime.json"

#: (nominal OKB triples, shards) — every shard is an independent world.
SIZES = ((100, 4), (200, 6), (400, 8))

#: Best-of-N wall times to shave scheduler noise.
REPEATS = 3

RUNTIMES = (SerialRuntime(), PartitionedRuntime())


def _workload(n_triples: int, n_shards: int):
    per_shard = n_triples // n_shards
    dataset = generate_sharded_reverb45k(
        ShardedOKBConfig(
            n_shards=n_shards,
            triples_per_shard=per_shard,
            entities_per_shard=max(12, per_shard // 3),
            facts_per_shard=max(26, (per_shard * 2) // 3),
            relations_per_shard=24 // n_shards,
            validation_fraction=0.0,
            seed=7,
        )
    )
    side = dataset.side_information("all")
    return dataset, side


def test_runtime_scaling_and_equivalence(benchmark):
    config = JOCLConfig(lbp_iterations=20)
    payload = {
        "schema_version": 1,
        "workload": "reverb45k-sharded (independent worlds, disjoint relations)",
        "generated_by": "benchmarks/test_runtime_scaling.py",
        "lbp": {
            "iterations_cap": config.lbp_iterations,
            "tolerance": config.lbp_tolerance,
            "repeats_best_of": REPEATS,
        },
        "sizes": [],
    }
    lines = ["Runtime scaling — wall time per OKB size x runtime (best of "
             f"{REPEATS}):"]

    def _sweep():
        for nominal, n_shards in SIZES:
            dataset, side = _workload(nominal, n_shards)
            model = JOCL(config)
            graph, index, builder = model.build_graph(side)
            task = model.plan_inference(graph, builder)
            baseline_output = None
            serial_wall = None
            entry = {
                "n_triples_nominal": nominal,
                "n_triples": len(dataset.triples),
                "n_shards": n_shards,
                "n_variables": len(graph.variables),
                "n_factors": len(graph.factors),
                "runs": [],
            }
            for runtime in RUNTIMES:
                walls, outcome = [], None
                for _ in range(REPEATS):
                    start = time.perf_counter()
                    outcome = runtime.run(task)
                    walls.append(time.perf_counter() - start)
                wall = min(walls)
                output = decode(outcome.result, index, config)
                if baseline_output is None:
                    baseline_output = output
                    serial_wall = wall
                else:
                    # The CI equivalence gate: every runtime must make
                    # the same canonicalization + linking decisions.
                    assert output == baseline_output, (
                        f"{runtime.name} decisions diverge from serial at "
                        f"{nominal} triples"
                    )
                row = {
                    "runtime": runtime.name,
                    "wall_time_s": round(wall, 6),
                    "speedup_vs_serial": round(serial_wall / wall, 3),
                    "n_components": outcome.profile.n_components,
                    "iterations": outcome.profile.iterations,
                    "converged": outcome.profile.converged,
                }
                entry["runs"].append(row)
                lines.append(
                    f"  {nominal:>4} triples  {runtime.name:<12} "
                    f"{wall * 1e3:7.1f} ms  x{row['speedup_vs_serial']:.2f}  "
                    f"({row['n_components']} components)"
                )
            payload["sizes"].append(entry)
        return payload

    benchmark.pedantic(_sweep, rounds=1, iterations=1)
    BENCH_JSON_PATH.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    record_result("\n".join(lines))

    largest = payload["sizes"][-1]
    serial_wall = largest["runs"][0]["wall_time_s"]
    partitioned_wall = largest["runs"][1]["wall_time_s"]
    # Partitioned execution does strictly less message passing than the
    # whole-graph run (per-component early stopping).  The decision
    # equivalence above is the hard CI gate; this bound only catches a
    # catastrophic runtime-overhead regression while tolerating the
    # wall-clock jitter of shared CI runners (the committed
    # BENCH_runtime.json records the actual speedups).
    assert partitioned_wall < serial_wall * 1.25, (
        f"partitioned LBP grossly slower than whole-graph LBP at "
        f"{largest['n_triples']} triples: {partitioned_wall:.3f}s vs "
        f"{serial_wall:.3f}s"
    )


def test_reports_byte_identical_on_reverb(reverb_side, trained_weights):
    """Acceptance: PartitionedRuntime and IncrementalRuntime emit
    byte-identical EngineReport payloads to SerialRuntime on the
    trained ReVerb45K-shaped fixture."""
    from repro.api import JOCLEngine

    def _report(runtime):
        return (
            JOCLEngine.builder()
            .with_side_information(reverb_side)
            .with_config(BENCH_CONFIG)
            .with_trained_weights(trained_weights)
            .with_runtime(runtime)
            .build()
            .run_joint()
        )

    serial_bytes = json.dumps(_report(SerialRuntime()).to_dict(), sort_keys=True)
    for runtime in (PartitionedRuntime(), IncrementalRuntime()):
        runtime_bytes = json.dumps(_report(runtime).to_dict(), sort_keys=True)
        assert runtime_bytes == serial_bytes, (
            f"{runtime.name} report diverges from SerialRuntime"
        )
    record_result(
        "Runtime equivalence — PartitionedRuntime and IncrementalRuntime vs "
        f"SerialRuntime on ReVerb45K fixture: byte-identical reports "
        f"({len(serial_bytes)} bytes)"
    )
