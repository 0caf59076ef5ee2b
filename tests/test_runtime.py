"""Tests for the pluggable execution runtimes (:mod:`repro.runtime`).

The load-bearing promise: every shipped runtime is decision-for-decision
equivalent — same marginals (up to per-component early stopping), same
decoded clusters/links, byte-identical :class:`EngineReport` payloads —
while the :class:`ExecutionProfile` faithfully reports how differently
the work was executed.
"""

import json

import numpy as np
import pytest

from repro.api import (
    EngineBuildError,
    EngineReport,
    ExecutionProfile,
    JOCLEngine,
    SchemaError,
)
from repro.core import JOCLConfig
from repro.core.model import JOCL
from repro.datasets import ShardedOKBConfig, generate_sharded_reverb45k
from repro.factorgraph.graph import FactorGraph, FactorTemplate, Variable
from repro.factorgraph.lbp import LBPSettings, LoopyBP, merge_results
from repro.runtime import (
    IncrementalRuntime,
    InferenceTask,
    PartitionedRuntime,
    SerialRuntime,
)

CONFIG = JOCLConfig(lbp_iterations=15)

#: Fresh runtime per use — IncrementalRuntime is stateful.
RUNTIMES = [SerialRuntime, PartitionedRuntime, IncrementalRuntime]


@pytest.fixture(scope="module")
def islands_graph():
    """Three disconnected chain components plus an isolated variable."""
    graph = FactorGraph()
    template = FactorTemplate("U", ["agree"], initial_weights=[1.3])
    graph.add_template(template)
    table = np.array([[0.9], [0.1], [0.2], [0.8]])
    for island in ("a", "b", "c"):
        graph.add_variable(Variable(f"{island}1", [0, 1]))
        graph.add_variable(Variable(f"{island}2", [0, 1]))
        graph.add_variable(Variable(f"{island}3", [0, 1]))
        graph.add_factor(
            f"u:{island}:12", template, [f"{island}1", f"{island}2"], table
        )
        graph.add_factor(
            f"u:{island}:23", template, [f"{island}2", f"{island}3"], table
        )
    graph.add_variable(Variable("lonely", [0, 1, 2]))
    return graph


@pytest.fixture(scope="module")
def sharded_dataset():
    return generate_sharded_reverb45k(
        ShardedOKBConfig(n_shards=3, triples_per_shard=25, seed=11)
    )


@pytest.fixture(scope="module")
def sharded_side(sharded_dataset):
    return sharded_dataset.side_information("test")


def _engine(side, runtime=None):
    builder = (
        JOCLEngine.builder().with_side_information(side).with_config(CONFIG)
    )
    if runtime is not None:
        builder = builder.with_runtime(runtime)
    return builder.build()


# ----------------------------------------------------------------------
# The plan/execute/merge contract
# ----------------------------------------------------------------------
class TestContract:
    def test_serial_plans_one_unit(self, islands_graph):
        plan = SerialRuntime().plan(InferenceTask(graph=islands_graph))
        assert len(plan.components) == 1
        assert plan.components[0].graph is islands_graph

    def test_partitioned_plans_per_component(self, islands_graph):
        plan = PartitionedRuntime().plan(InferenceTask(graph=islands_graph))
        assert len(plan.components) == 4  # 3 chains + the isolated var
        sizes = [unit.n_variables for unit in plan.components]
        assert sizes == sorted(sizes, reverse=True)

    def test_profile_reports_execution_shape(self, islands_graph):
        outcome = PartitionedRuntime().run(InferenceTask(graph=islands_graph))
        profile = outcome.profile
        assert profile.runtime == "partitioned"
        assert profile.n_components == 4
        assert profile.component_sizes == (3, 3, 3, 1)
        assert len(profile.component_iterations) == 4
        assert profile.converged
        assert profile.wall_time_s >= 0.0
        assert profile.iterations == max(profile.component_iterations)
        assert profile.recomputed_components == 4

    def test_evidence_clamped_per_component(self, islands_graph):
        """Evidence is filtered to each unit and matches whole-graph LBP."""
        evidence = {"a1": 1, "c3": 0}
        whole = LoopyBP(islands_graph, max_iterations=40).run(evidence)
        for runtime in RUNTIMES:
            merged = runtime().run(
                InferenceTask(
                    graph=islands_graph,
                    settings=LBPSettings(max_iterations=40),
                    evidence=evidence,
                )
            ).result
            assert merged.map_state("a1") == 1
            assert merged.map_state("c3") == 0
            for name in whole.marginals:
                assert np.allclose(
                    merged.marginal(name), whole.marginal(name), atol=1e-8
                )

    def test_empty_graph_equivalent_across_runtimes(self):
        empty = FactorGraph()
        baseline = SerialRuntime().run(InferenceTask(graph=empty))
        for runtime in RUNTIMES[1:]:
            outcome = runtime().run(InferenceTask(graph=empty))
            assert outcome.result.marginals == {}
            assert outcome.result.iterations == baseline.result.iterations
            assert outcome.result.converged == baseline.result.converged
            assert outcome.profile.n_components == 1

    def test_with_runtime_rejects_non_runtime(self):
        with pytest.raises(EngineBuildError):
            JOCLEngine.builder().with_runtime(object())

    def test_lbp_settings_validation(self):
        with pytest.raises(ValueError):
            LBPSettings(max_iterations=0)
        with pytest.raises(ValueError):
            LBPSettings(damping=1.0)

    def test_plan_inference_carries_config(self, small_side):
        model = JOCL(CONFIG)
        graph, _index, builder = model.build_graph(small_side)
        task = model.plan_inference(graph, builder)
        assert task.graph is graph
        assert task.settings.max_iterations == CONFIG.lbp_iterations
        assert task.settings.tolerance == CONFIG.lbp_tolerance

    def test_merge_results_validates_coverage(self, islands_graph):
        with pytest.raises(ValueError):
            merge_results([], islands_graph)
        other = FactorGraph()
        other.add_variable(Variable("elsewhere", [0, 1]))
        part = LoopyBP(other, max_iterations=2).run()
        with pytest.raises(ValueError):
            merge_results([part], islands_graph)


# ----------------------------------------------------------------------
# Equivalence: serial == partitioned == incremental
# ----------------------------------------------------------------------
class TestEquivalence:
    def test_marginals_equal_whole_graph_on_islands(self, islands_graph):
        whole = LoopyBP(islands_graph, max_iterations=40).run()
        for runtime in RUNTIMES[1:]:
            merged = runtime().run(
                InferenceTask(
                    graph=islands_graph,
                    settings=LBPSettings(max_iterations=40),
                )
            ).result
            assert set(merged.marginals) == set(whole.marginals)
            for name in whole.marginals:
                assert np.allclose(
                    merged.marginal(name), whole.marginal(name), atol=1e-8
                )

    @pytest.mark.parametrize("runtime", RUNTIMES[1:], ids=lambda r: r.name)
    def test_reports_byte_identical_on_reverb(self, small_side, runtime):
        """The acceptance bar: identical wire payloads vs SerialRuntime."""
        baseline = _engine(small_side, SerialRuntime()).run_joint()
        report = _engine(small_side, runtime()).run_joint()
        assert report == baseline
        assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(
            baseline.to_dict(), sort_keys=True
        )

    def test_reports_identical_on_sharded_multicomponent(self, sharded_side):
        reports = [_engine(sharded_side, rt()).run_joint() for rt in RUNTIMES]
        assert reports[1].profile.n_components >= 3  # truly multi-component
        payloads = {
            json.dumps(report.to_dict(), sort_keys=True) for report in reports
        }
        assert len(payloads) == 1

    def test_partitioned_merge_is_deterministic(self, sharded_side):
        runtime = PartitionedRuntime()
        first = _engine(sharded_side, runtime).run_joint()
        second = _engine(sharded_side, runtime).run_joint()
        assert first.to_dict(include_profile=False) == second.to_dict(
            include_profile=False
        )

    def test_core_infer_accepts_runtime(self, small_side):
        serial_output = JOCL(CONFIG).infer(small_side)
        partitioned_output = JOCL(CONFIG).infer(
            small_side, runtime=PartitionedRuntime()
        )
        assert partitioned_output == serial_output
        assert partitioned_output.profile.runtime == "partitioned"


# ----------------------------------------------------------------------
# ExecutionProfile on the wire
# ----------------------------------------------------------------------
class TestProfileSerialization:
    def test_round_trip(self, small_side):
        report = _engine(small_side, PartitionedRuntime()).run_joint()
        profile = report.profile
        assert profile is not None
        assert ExecutionProfile.from_dict(profile.to_dict()) == profile
        # 1.x payloads carried the thread-pool fields; 2.x writes none
        # but still parses them.
        assert "max_workers" not in profile.to_dict()
        legacy = {**profile.to_dict(), "max_workers": 4, "backend": "thread"}
        assert ExecutionProfile.from_dict(legacy) == profile

    def test_report_payload_excludes_profile_by_default(self, small_side):
        report = _engine(small_side, PartitionedRuntime()).run_joint()
        assert "profile" not in report.to_dict()
        restored = EngineReport.from_dict(report.to_dict())
        assert restored == report
        assert restored.profile is None

    def test_report_payload_includes_profile_on_request(self, small_side):
        report = _engine(small_side, PartitionedRuntime()).run_joint()
        payload = json.loads(json.dumps(report.to_dict(include_profile=True)))
        restored = EngineReport.from_dict(payload)
        assert restored == report
        assert restored.profile == report.profile

    def test_malformed_profile_payload(self):
        with pytest.raises(SchemaError):
            ExecutionProfile.from_dict({"schema_version": 1, "type": "execution_profile"})
        with pytest.raises(SchemaError):
            ExecutionProfile.from_dict(
                {
                    "schema_version": 1,
                    "type": "execution_profile",
                    "runtime": "serial",
                    "component_sizes": "not-a-list-of-ints",
                }
            )


# ----------------------------------------------------------------------
# Engine integration: last_profile and batched serving
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def test_last_profile_lifecycle(self, small_dataset, small_side):
        engine = _engine(small_side, PartitionedRuntime())
        assert engine.last_profile() is None
        engine.run_joint()
        profile = engine.last_profile()
        assert profile is not None and profile.runtime == "partitioned"
        assert engine.runtime.name == "partitioned"

    def test_default_runtime_is_serial(self, small_side):
        engine = _engine(small_side)
        engine.run_joint()
        assert engine.last_profile().runtime == "serial"

    def test_resolve_many_matches_per_mention_loop(self, small_dataset, small_side):
        engine = _engine(small_side, PartitionedRuntime())
        mentions = [triple.subject for triple in small_dataset.test_triples[:12]]
        assert engine.resolve_many(mentions) == [
            engine.resolve(mention) for mention in mentions
        ]

    def test_resolve_many_respects_kind(self, small_dataset, small_side):
        engine = _engine(small_side)
        mentions = [triple.predicate for triple in small_dataset.test_triples[:5]]
        batch = engine.resolve_many(mentions, kind="relation")
        assert batch == [engine.resolve(m, kind="relation") for m in mentions]
        assert all(answer.kind == "P" for answer in batch)

    def test_resolve_many_unknown_mention(self, small_side):
        from repro.api import UnknownMentionError

        engine = _engine(small_side)
        with pytest.raises(UnknownMentionError):
            engine.resolve_many(["definitely not an okb phrase 42"])

    def test_resolve_many_empty_batch(self, small_side):
        assert _engine(small_side).resolve_many([]) == []


# ----------------------------------------------------------------------
# The sharded workload generator
# ----------------------------------------------------------------------
class TestShardedDataset:
    def test_shards_have_disjoint_surfaces(self, sharded_dataset):
        by_shard: dict[str, set[str]] = {}
        for triple in sharded_dataset.triples:
            shard = triple.triple_id.split(":", 1)[0]
            by_shard.setdefault(shard, set()).update(triple.as_tuple())
        shards = sorted(by_shard)
        assert len(shards) == 3
        for i, first in enumerate(shards):
            for second in shards[i + 1 :]:
                assert not by_shard[first] & by_shard[second]

    def test_gold_ids_resolve_against_merged_kb(self, sharded_dataset):
        kb = sharded_dataset.kb
        for triple in sharded_dataset.triples:
            gold = triple.gold
            assert gold is not None
            if gold.subject_entity is not None:
                assert gold.subject_entity in kb.entities
            if gold.relation is not None:
                assert gold.relation in kb.relations

    def test_graph_decomposes_per_shard(self, sharded_side):
        from repro.core import GraphBuilder
        from repro.factorgraph.partition import connected_components

        graph, _index = GraphBuilder(sharded_side, CONFIG).build()
        assert len(connected_components(graph)) >= 3

    def test_relation_slices_must_fit_catalog(self):
        with pytest.raises(ValueError):
            ShardedOKBConfig(n_shards=9, relations_per_shard=3)


# ----------------------------------------------------------------------
# Executor lifecycle: pools shut down (and cancel) on every error path
# ----------------------------------------------------------------------
class TestExecutorLifecycle:
    @staticmethod
    def _leaked_since(baseline):
        import threading

        return [
            thread
            for thread in threading.enumerate()
            if thread.ident not in baseline and thread.is_alive()
        ]

    def test_scatter_rejects_bad_max_workers(self):
        from repro.runtime.pool import scatter

        for bad in (0, -1):
            with pytest.raises(ValueError, match="max_workers"):
                scatter([lambda: 1, lambda: 2], max_workers=bad)

    def test_scatter_propagates_first_failure_in_submission_order(self):
        from repro.runtime.pool import scatter

        def boom(message):
            raise RuntimeError(message)

        with pytest.raises(RuntimeError, match="first"):
            scatter(
                [
                    lambda: 1,
                    lambda: boom("first"),
                    lambda: boom("second"),
                ],
                max_workers=3,
            )

    def test_scatter_failure_leaves_no_pool_threads_behind(self):
        import threading

        from repro.runtime.pool import scatter

        baseline = {thread.ident for thread in threading.enumerate()}
        with pytest.raises(RuntimeError, match="injected"):
            scatter(
                [lambda: 1]
                + [lambda: (_ for _ in ()).throw(RuntimeError("injected"))]
                + [lambda: 2, lambda: 3],
                max_workers=2,
            )
        assert self._leaked_since(baseline) == []

    def test_scatter_cancels_the_queued_remainder_after_a_failure(self):
        import threading
        import time

        from repro.runtime.pool import scatter

        ran = []
        first_counter_done = threading.Event()

        def failing():
            # Fail only once the other worker is demonstrably churning,
            # so cancellation has a queue to act on.
            assert first_counter_done.wait(5)
            raise RuntimeError("boom")

        def counter(index):
            time.sleep(0.005)
            ran.append(index)
            first_counter_done.set()

        tasks = [failing] + [
            lambda index=index: counter(index) for index in range(100)
        ]
        with pytest.raises(RuntimeError, match="boom"):
            scatter(tasks, max_workers=2)
        assert ran  # work had started before the failure surfaced
        assert len(ran) < 100  # ... and the queued remainder was cancelled
