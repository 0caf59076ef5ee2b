"""Tests for incremental ingest-then-infer (:mod:`repro.runtime.incremental`).

The load-bearing promise of ISSUE 3: after any sequence of ingests, the
engine's decisions are *identical* to a cold batch run over the union —
across every shipped runtime — while the incremental runtime demonstrably
reuses clean components (``ExecutionProfile.reused_components > 0``).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import JOCLEngine
from repro.core import JOCLConfig
from repro.datasets import (
    StreamingIngestConfig,
    generate_streaming_ingest,
)
from repro.factorgraph.partition import dirty_components
from repro.okb.triples import OIETriple
from repro.runtime import (
    IncrementalRuntime,
    PartitionedRuntime,
    SerialRuntime,
)
from repro.runtime.incremental import phrases_of_variable

CONFIG = JOCLConfig(lbp_iterations=15)

#: Fresh runtime per engine — IncrementalRuntime is stateful.
RUNTIME_FACTORIES = {
    "serial": SerialRuntime,
    "partitioned": PartitionedRuntime,
    "incremental": IncrementalRuntime,
    "incremental-warm": lambda: IncrementalRuntime(warm_start=True),
}


def _decisions(report):
    """The decision payload: canonicalization + linking, stats excluded."""
    return json.dumps(
        {
            "canonicalization": report.canonicalization.to_dict(),
            "linking": report.linking.to_dict(),
        },
        sort_keys=True,
    )


@pytest.fixture(scope="module")
def workload():
    return generate_streaming_ingest(
        StreamingIngestConfig(
            n_shards=4, triples_per_shard=25, n_batches=2, seed=11
        )
    )


@pytest.fixture(scope="module")
def cold_reports(workload):
    """Cold batch-run decisions after each ingest stage (the oracle)."""
    reports = {}
    triples = list(workload.seed_triples)
    reports[0] = _cold_report(workload, triples)
    for stage, batch in enumerate(workload.batches, start=1):
        triples = triples + list(batch)
        reports[stage] = _cold_report(workload, triples)
    return reports


def _cold_report(workload, triples):
    side = workload.side_information(list(triples))
    engine = (
        JOCLEngine.builder().with_side_information(side).with_config(CONFIG).build()
    )
    return engine.run_joint()


# ----------------------------------------------------------------------
# The ingest-then-infer decision-equivalence matrix
# ----------------------------------------------------------------------
class TestEquivalenceMatrix:
    @pytest.mark.parametrize("name", sorted(RUNTIME_FACTORIES))
    def test_ingest_then_infer_equals_cold_batch(self, workload, cold_reports, name):
        """Every runtime: decisions after each ingest == cold batch run."""
        engine = workload.engine(CONFIG, RUNTIME_FACTORIES[name]())
        assert _decisions(engine.run_joint()) == _decisions(cold_reports[0])
        for stage, batch in enumerate(workload.batches, start=1):
            engine.ingest(batch)
            assert _decisions(engine.run_joint()) == _decisions(
                cold_reports[stage]
            ), f"{name} diverged from the cold batch run at stage {stage}"

    @pytest.mark.parametrize("name", sorted(RUNTIME_FACTORIES))
    def test_multi_batch_ingest_single_inference(self, workload, cold_reports, name):
        """N batches between inferences cost one flush, same decisions."""
        engine = workload.engine(CONFIG, RUNTIME_FACTORIES[name]())
        engine.run_joint()
        for batch in workload.batches:
            engine.ingest(batch)
        assert _decisions(engine.run_joint()) == _decisions(
            cold_reports[len(workload.batches)]
        )

    def test_raw_vocabulary_growing_arrivals_stay_equivalent(self):
        """The drift paths: new vocabulary shifts global IDF, the
        incremental engine must still match the cold batch run."""
        raw = generate_streaming_ingest(
            StreamingIngestConfig(
                n_shards=3,
                triples_per_shard=20,
                n_batches=2,
                arrivals="raw",
                seed=23,
            )
        )
        engine = raw.engine(CONFIG, IncrementalRuntime())
        engine.run_joint()
        triples = list(raw.seed_triples)
        for batch in raw.batches:
            engine.ingest(batch)
            triples += list(batch)
            assert _decisions(engine.run_joint()) == _decisions(
                _cold_report(raw, triples)
            )


# ----------------------------------------------------------------------
# Property: any batching of the arrivals == cold runs over the union
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_stream():
    """A small world whose raw arrivals grow the vocabulary."""
    return generate_streaming_ingest(
        StreamingIngestConfig(
            n_shards=3,
            triples_per_shard=12,
            ingest_fraction=0.3,
            arrivals="raw",
            seed=5,
        )
    )


@pytest.fixture(scope="module")
def small_stream_cold(small_stream):
    """Cold serial and partitioned decisions over the whole stream."""
    side = small_stream.side_information(small_stream.all_triples)
    decisions = {}
    for runtime in (SerialRuntime(), PartitionedRuntime()):
        engine = (
            JOCLEngine.builder()
            .with_side_information(side)
            .with_config(CONFIG)
            .with_runtime(runtime)
            .build()
        )
        decisions[runtime.name] = _decisions(engine.run_joint())
    return decisions


class TestEquivalenceProperty:
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_any_batching_equals_cold_union(
        self, small_stream, small_stream_cold, data
    ):
        """Split the arrivals into ingest batches at random cut points,
        optionally decoding after every batch: the incremental engine's
        final decisions equal cold serial and partitioned runs."""
        arrivals = [triple for batch in small_stream.batches for triple in batch]
        cuts = data.draw(
            st.lists(
                st.booleans(),
                min_size=len(arrivals) - 1,
                max_size=len(arrivals) - 1,
            ),
            label="cuts",
        )
        infer_between = data.draw(st.booleans(), label="infer_between")
        batches = [[arrivals[0]]]
        for triple, cut in zip(arrivals[1:], cuts, strict=True):
            if cut:
                batches.append([])
            batches[-1].append(triple)
        engine = small_stream.engine(CONFIG, IncrementalRuntime())
        engine.run_joint()
        for batch in batches:
            engine.ingest(batch)
            if infer_between:
                engine.run_joint()
        assert small_stream_cold["serial"] == small_stream_cold["partitioned"]
        assert _decisions(engine.run_joint()) == small_stream_cold["serial"]


# ----------------------------------------------------------------------
# Message capture: messages feed warm starts only
# ----------------------------------------------------------------------
class TestMessageCapture:
    @staticmethod
    def _cached_messages(state):
        return [
            entry["result"]["messages"]
            for entry in state["run_state"]["components"]
        ]

    def test_default_runtime_state_carries_no_messages(self, workload):
        runtime = IncrementalRuntime()
        workload.engine(CONFIG, runtime).run_joint()
        assert not runtime.keep_messages
        messages = self._cached_messages(runtime.to_state())
        assert messages and all(entry is None for entry in messages)

    def test_warm_runtime_keeps_and_round_trips_messages(self, workload):
        runtime = IncrementalRuntime(warm_start=True)
        workload.engine(CONFIG, runtime).run_joint()
        assert runtime.keep_messages
        state = json.loads(json.dumps(runtime.to_state()))
        messages = self._cached_messages(state)
        assert messages and all(entry is not None for entry in messages)
        restored = IncrementalRuntime.from_state(state)
        assert json.dumps(restored.to_state(), sort_keys=True) == json.dumps(
            state, sort_keys=True
        )

    def test_cold_restore_drops_messages_of_older_checkpoints(self, workload):
        """1.x saved messages for every incremental runtime."""
        runtime = IncrementalRuntime(warm_start=True)
        workload.engine(CONFIG, runtime).run_joint()
        legacy = {**runtime.to_state(), "warm_start": False}
        restored = IncrementalRuntime.from_state(legacy)
        messages = self._cached_messages(restored.to_state())
        assert all(entry is None for entry in messages)


# ----------------------------------------------------------------------
# Reuse observability and mechanics
# ----------------------------------------------------------------------
class TestIncrementalReuse:
    def test_profile_reports_reused_components(self, workload):
        engine = workload.engine(CONFIG, IncrementalRuntime())
        engine.run_joint()
        first = engine.last_profile()
        assert first.runtime == "incremental"
        assert first.reused_components == 0  # nothing cached yet
        assert first.recomputed_components == first.n_components
        engine.ingest(workload.batches[0])
        engine.run_joint()
        profile = engine.last_profile()
        assert profile.reused_components > 0  # the observable win
        assert profile.recomputed_components >= 1  # the dirty shard ran
        assert (
            profile.reused_components + profile.recomputed_components
            == profile.n_components
        )

    def test_stateless_runtimes_never_reuse(self, workload):
        engine = workload.engine(CONFIG, PartitionedRuntime())
        engine.run_joint()
        engine.ingest(workload.batches[0])
        engine.run_joint()
        profile = engine.last_profile()
        assert profile.reused_components == 0
        assert profile.recomputed_components == profile.n_components

    def test_repeated_inference_without_ingest_reuses_everything(self, workload):
        engine = workload.engine(CONFIG, IncrementalRuntime())
        engine.run_joint()
        # Force a re-decode without any OKB change.
        engine._output = None
        report = engine.run_joint()
        profile = engine.last_profile()
        assert profile.reused_components == profile.n_components
        assert profile.recomputed_components == 0
        assert _decisions(report) == _decisions(engine.run_joint())

    def test_fit_invalidates_component_cache(self, workload):
        """New template weights change the problem: nothing may be
        spliced from the pre-fit converged state."""
        engine = workload.engine(CONFIG, IncrementalRuntime())
        engine.run_joint()
        engine.fit(workload.dataset.triples[:40])
        engine.run_joint()
        profile = engine.last_profile()
        assert profile.reused_components == 0
        assert profile.recomputed_components == profile.n_components

    def test_ingest_merging_two_components(self, workload, cold_reports):
        """A bridging triple fuses two shards' components; the merged
        component recomputes, the rest splice, decisions match cold."""
        engine = workload.engine(CONFIG, IncrementalRuntime())
        engine.run_joint()
        components = engine.last_profile().n_components
        # Bridge the vocabularies of two different shards.
        by_shard = {}
        for triple in workload.seed_triples:
            by_shard.setdefault(triple.triple_id.split(":", 1)[0], triple)
        shards = sorted(by_shard)
        first, second = by_shard[shards[0]], by_shard[shards[1]]
        # Reuse an existing O node of the second shard, so the bridging
        # U4 factor scopes live variables of *both* shards.
        bridge = OIETriple(
            "bridge:0", first.subject, first.predicate, second.object
        )
        engine.ingest([bridge])
        report = engine.run_joint()
        profile = engine.last_profile()
        assert profile.n_components < components  # two shards fused
        assert profile.reused_components > 0  # untouched shards spliced
        cold = _cold_report(
            workload, list(workload.seed_triples) + [bridge]
        )
        assert _decisions(report) == _decisions(cold)

    def test_reset_drops_cached_state(self, workload):
        runtime = IncrementalRuntime()
        engine = workload.engine(CONFIG, runtime)
        engine.run_joint()
        runtime.reset()
        engine._output = None
        engine.run_joint()
        assert engine.last_profile().reused_components == 0

    def test_custom_signal_registry_forces_cold_builds_but_stays_correct(
        self, workload, cold_reports
    ):
        """Custom registries bypass the build cache; the structural
        check still recovers reuse and decisions stay equivalent."""
        from repro.core.signals.registry import default_registry

        engine = (
            JOCLEngine.builder()
            .with_side_information(workload.side_information())
            .with_config(CONFIG)
            .with_signals(lambda side, variant: default_registry(side, variant))
            .with_runtime(IncrementalRuntime())
            .build()
        )
        assert engine._build_cache is None
        engine.run_joint()
        engine.ingest(workload.batches[0])
        report = engine.run_joint()
        assert _decisions(report) == _decisions(cold_reports[1])
        profile = engine.last_profile()
        assert profile.reused_components > 0  # recovered structurally


# ----------------------------------------------------------------------
# The delta-to-dirty-component mapping
# ----------------------------------------------------------------------
class TestDirtyMapping:
    def test_dirty_components_indices(self):
        components = [
            frozenset({"a1", "a2"}),
            frozenset({"b1"}),
            frozenset({"c1", "c2", "c3"}),
        ]
        assert dirty_components(components, ["b1", "c2"]) == frozenset({1, 2})
        assert dirty_components(components, []) == frozenset()
        assert dirty_components(components, ["unknown"]) == frozenset()

    def test_phrases_of_variable_parsing(self):
        assert phrases_of_variable("link:S:umd") == (("S", "umd"),)
        assert phrases_of_variable("canon:P:locate in||located in") == (
            ("P", "locate in"),
            ("P", "located in"),
        )
        assert phrases_of_variable("weird-name") == ()
        assert phrases_of_variable("other:S:x") == ()

    def test_mark_dirty_accumulates_until_consumed(self, workload):
        runtime = IncrementalRuntime()
        runtime.mark_dirty({"S": {"a"}})
        runtime.mark_dirty({"S": {"b"}, "P": {"p"}})
        assert runtime._pending_dirty == {"S": {"a", "b"}, "P": {"p"}}


# ----------------------------------------------------------------------
# The streaming workload generator
# ----------------------------------------------------------------------
class TestStreamingWorkload:
    def test_repeat_arrivals_add_no_vocabulary(self, workload):
        seed_phrases = set()
        for triple in workload.seed_triples:
            seed_phrases.update(triple.as_tuple())
        for batch in workload.batches:
            for triple in batch:
                assert set(triple.as_tuple()) <= seed_phrases

    def test_stream_is_partitioned_exactly(self, workload):
        stream_ids = {t.triple_id for t in workload.dataset.triples}
        split_ids = [t.triple_id for t in workload.all_triples]
        assert len(split_ids) == len(stream_ids)
        assert set(split_ids) == stream_ids

    def test_raw_arrivals_preserve_stream_order(self):
        raw = generate_streaming_ingest(
            StreamingIngestConfig(
                n_shards=3, triples_per_shard=20, arrivals="raw", seed=3
            )
        )
        assert [t.triple_id for t in raw.all_triples] == [
            t.triple_id for t in raw.dataset.triples
        ]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StreamingIngestConfig(ingest_fraction=0.0)
        with pytest.raises(ValueError):
            StreamingIngestConfig(n_batches=0)
        with pytest.raises(ValueError):
            StreamingIngestConfig(arrivals="bursty")


# ----------------------------------------------------------------------
# Warm-start mechanics at the LBP level
# ----------------------------------------------------------------------
class TestWarmStartMessages:
    @staticmethod
    def _chain_graph(strength=2.0):
        import numpy as np

        from repro.factorgraph.graph import FactorGraph, FactorTemplate, Variable

        graph = FactorGraph()
        template = FactorTemplate("U", ["agree"], initial_weights=[strength])
        graph.add_template(template)
        table = np.array([[0.9], [0.1], [0.2], [0.8]])
        for name in ("x1", "x2", "x3"):
            graph.add_variable(Variable(name, [0, 1]))
        graph.add_factor("u12", template, ["x1", "x2"], table)
        graph.add_factor("u23", template, ["x2", "x3"], table)
        return graph

    def test_keep_messages_attaches_state(self):
        from repro.factorgraph.lbp import LoopyBP

        graph = self._chain_graph()
        cold = LoopyBP(graph, max_iterations=40).run()
        assert cold.messages is None
        kept = LoopyBP(graph, max_iterations=40).run(keep_messages=True)
        assert kept.messages is not None
        assert ("u12", "x1") in kept.messages.f2v
        assert ("x1", "u12") in kept.messages.v2f

    def test_warm_start_converges_faster_to_same_decisions(self):
        from repro.factorgraph.lbp import LoopyBP

        graph = self._chain_graph()
        first = LoopyBP(graph, max_iterations=40).run(keep_messages=True)
        warm = LoopyBP(graph, max_iterations=40).run(warm_start=first.messages)
        assert warm.converged
        assert warm.iterations <= first.iterations
        for name in graph.variables:
            assert warm.map_state(name) == first.map_state(name)

    def test_warm_start_respects_evidence_masks(self):
        from repro.factorgraph.lbp import LoopyBP

        graph = self._chain_graph()
        free = LoopyBP(graph, max_iterations=40).run(keep_messages=True)
        clamped = LoopyBP(graph, max_iterations=40).run(
            evidence={"x1": 1}, warm_start=free.messages
        )
        assert clamped.map_state("x1") == 1
        reference = LoopyBP(graph, max_iterations=40).run(evidence={"x1": 1})
        for name in graph.variables:
            assert clamped.map_state(name) == reference.map_state(name)

    def test_mismatched_warm_entries_ignored(self):
        import numpy as np

        from repro.factorgraph.lbp import LBPMessages, LoopyBP

        graph = self._chain_graph()
        bogus = LBPMessages(
            f2v={
                ("u12", "x1"): np.array([0.1, 0.2, 0.7]),  # wrong shape
                ("nope", "x1"): np.array([0.5, 0.5]),  # unknown factor
            },
            v2f={("x9", "u12"): np.array([0.5, 0.5])},  # unknown variable
        )
        seeded = LoopyBP(graph, max_iterations=40).run(warm_start=bogus)
        cold = LoopyBP(graph, max_iterations=40).run()
        for name in graph.variables:
            assert np.allclose(seeded.marginal(name), cold.marginal(name))
