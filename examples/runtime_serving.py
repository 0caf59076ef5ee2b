"""Choosing an execution runtime and serving request batches.

Builds the naturally decomposable *sharded* OKB (several independent
worlds with disjoint relation vocabularies — the multi-tenant traffic
shape), then runs the same engine workload under every shipped
:mod:`repro.runtime`:

* ``SerialRuntime``      — whole-graph LBP (the default);
* ``PartitionedRuntime`` — per-component LBP: each connected component
  stops at its own convergence, so total work shrinks;
* ``IncrementalRuntime`` — the partitioned plan that keeps converged
  components across calls, so after an ``ingest`` only the components
  it touched re-run LBP.

All three are decision-for-decision equivalent — the reports compare
equal — while the :class:`repro.api.ExecutionProfile` shows how
differently they executed.  Finally the batched serving entry point
``resolve_many`` answers a burst of mention queries against one shared
decoding.

Run:  python examples/runtime_serving.py
"""

from repro.api import JOCLEngine
from repro.core import JOCLConfig
from repro.datasets import ShardedOKBConfig, generate_sharded_reverb45k
from repro.runtime import IncrementalRuntime, PartitionedRuntime, SerialRuntime


def main() -> None:
    dataset = generate_sharded_reverb45k(
        ShardedOKBConfig(n_shards=6, triples_per_shard=33, seed=7)
    )
    print(f"dataset: {dataset}")
    side = dataset.side_information("test")
    config = JOCLConfig(lbp_iterations=20)

    reports = {}
    for runtime in (
        SerialRuntime(),
        PartitionedRuntime(),
        IncrementalRuntime(),
    ):
        engine = (
            JOCLEngine.builder()
            .with_side_information(side)
            .with_config(config)
            .with_runtime(runtime)
            .build()
        )
        report = engine.run_joint()
        reports[runtime.name] = report
        profile = report.profile
        print(
            f"\n{runtime.name:>12}: {profile.n_components} component(s), "
            f"wall={profile.wall_time_s * 1e3:.1f} ms"
        )
        print(f"{'':>12}  component sizes: {list(profile.component_sizes)[:8]}")
        print(f"{'':>12}  component iters: {list(profile.component_iterations)[:8]}")

    identical = (
        reports["serial"] == reports["partitioned"] == reports["incremental"]
    )
    print(f"\nall runtimes produced identical reports: {identical}")

    # Batched serving: one decoding + one index lookup amortized over
    # the whole request burst.
    engine = (
        JOCLEngine.builder()
        .with_side_information(side)
        .with_config(config)
        .with_runtime(PartitionedRuntime())
        .build()
    )
    mentions = [triple.subject for triple in dataset.test_triples[:8]]
    answers = engine.resolve_many(mentions)
    print(f"\nresolve_many over {len(mentions)} mentions:")
    for answer in answers[:5]:
        print(f"  {answer.mention!r} -> {answer.target}")


if __name__ == "__main__":
    main()
