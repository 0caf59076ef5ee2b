"""Behavioral tests of :mod:`repro.cluster` and the cluster service.

The load-bearing claims:

* a cluster over a domain-partitioned workload makes decisions
  *identical* to one engine over the union — at build time, after
  routed ingest (both arrival regimes, including the cross-shard
  vocabulary-drift broadcast), and after a save/load round trip;
* routing is deterministic and ``PYTHONHASHSEED``-independent;
* scatter/gather resolve answers match the single engine's;
* the session layer's per-shard locking never changes answers.
"""

import json
import threading

import pytest

from repro.api import JOCLEngine
from repro.api.errors import (
    CheckpointError,
    EngineBuildError,
    EngineStateError,
    IngestError,
    SchemaError,
    SchemaVersionError,
    UnknownMentionError,
)
from repro.api.results import EngineStats
from repro.cluster import (
    ClusterReport,
    ClusterStats,
    HashShardRouter,
    IngestReport,
    ShardedEngine,
    VocabularyAffinityRouter,
    merge_shard_outputs,
    router_from_state,
    stable_hash,
)
from repro.core import JOCLConfig
from repro.datasets import (
    StreamingIngestConfig,
    generate_streaming_ingest,
    shard_partition,
)
from repro.okb.store import OpenKB
from repro.okb.triples import OIETriple
from repro.persist import FileStateStore, SQLiteStateStore
from repro.runtime import IncrementalRuntime
from repro.serving import JOCLClusterService

CONFIG = JOCLConfig(lbp_iterations=15)


def _workload(arrivals="repeat", n_shards=2, per_shard=40, seed=7):
    return generate_streaming_ingest(
        StreamingIngestConfig(
            n_shards=n_shards,
            triples_per_shard=per_shard,
            entities_per_shard=30,
            facts_per_shard=65,
            seed=seed,
            arrivals=arrivals,
        )
    )


def _single(workload, runtime=None):
    dataset = workload.dataset
    builder = (
        JOCLEngine.builder()
        .with_ckb(dataset.kb)
        .with_anchors(dataset.anchors)
        .with_ppdb(dataset.ppdb)
        .with_config(CONFIG)
        .with_triples(workload.seed_triples)
    )
    if runtime is not None:
        builder = builder.with_runtime(runtime)
    return builder.build()


def _cluster(workload, router=None, runtime_factory=None):
    dataset = workload.dataset
    builder = (
        ShardedEngine.builder()
        .with_ckb(dataset.kb)
        .with_anchors(dataset.anchors)
        .with_ppdb(dataset.ppdb)
        .with_config(CONFIG)
        .with_shard_triples(shard_partition(workload.seed_triples))
    )
    if router is not None:
        builder = builder.with_router(router)
    if runtime_factory is not None:
        builder = builder.with_runtime_factory(runtime_factory)
    return builder.build()


def _decisions(canonicalization, linking):
    return json.dumps(
        {"c": canonicalization.to_dict(), "l": linking.to_dict()},
        sort_keys=True,
    )


def _triple(triple_id, subject, predicate, obj):
    return OIETriple(
        triple_id=triple_id, subject=subject, predicate=predicate, object=obj
    )


# ----------------------------------------------------------------------
# Routers
# ----------------------------------------------------------------------
class TestRouters:
    def test_stable_hash_is_process_independent(self):
        # Pinned value: must never depend on PYTHONHASHSEED.
        assert stable_hash("university of maryland") == stable_hash(
            "university of maryland"
        )
        assert stable_hash("a") != stable_hash("b")

    def test_hash_router_routes_by_subject(self):
        router = HashShardRouter()
        shards = [OpenKB(()) for _ in range(4)]
        first = _triple("t1", "Alice", "works at", "Acme")
        second = _triple("t2", "Alice", "lives in", "Berlin")
        assert router.route_triple(first, shards) == router.route_triple(
            second, shards
        )

    def test_affinity_router_follows_vocabulary(self):
        router = VocabularyAffinityRouter()
        known = OpenKB([_triple("t1", "alice", "works at", "acme")])
        empty = OpenKB(())
        triple = _triple("t2", "alice", "works at", "acme labs")
        assert router.route_triple(triple, [empty, known]) == 1
        assert router.route_triple(triple, [known, empty]) == 0

    def test_affinity_router_tie_breaks_deterministically(self):
        router = VocabularyAffinityRouter()
        shards = [OpenKB(()) for _ in range(4)]
        triple = _triple("t1", "unseen phrase", "never seen", "also unseen")
        first = router.route_triple(triple, shards)
        assert router.route_triple(triple, shards) == first
        assert 0 <= first < 4

    def test_candidate_shards_exact_membership(self):
        router = HashShardRouter()
        shard_a = OpenKB([_triple("t1", "alice", "works at", "acme")])
        shard_b = OpenKB([_triple("t2", "bob", "works at", "initech")])
        shards = [shard_a, shard_b]
        assert router.candidate_shards("alice", ("S", "O"), shards) == (0,)
        assert router.candidate_shards("works at", ("P",), shards) == (0, 1)
        assert router.candidate_shards("alice", ("P",), shards) == ()
        assert router.candidate_shards("nobody", ("S", "P", "O"), shards) == ()

    def test_candidate_shards_are_slot_exact(self):
        """Regression: a shard holding the phrase only as an *object*
        used to be a candidate for a subject-restricted query, and its
        engine then failed the whole scatter with UnknownMentionError."""
        router = HashShardRouter()
        object_only = OpenKB([_triple("t1", "acme corp", "acquired", "widgetco")])
        subject_too = OpenKB([_triple("t2", "widgetco", "is based in", "berlin")])
        shards = [object_only, subject_too]
        assert router.candidate_shards("widgetco", ("S",), shards) == (1,)
        assert router.candidate_shards("widgetco", ("O",), shards) == (0,)
        assert router.candidate_shards("widgetco", ("S", "O"), shards) == (0, 1)

    def test_router_state_round_trip(self):
        for router in (HashShardRouter(), VocabularyAffinityRouter()):
            restored = router_from_state(router.to_state())
            assert type(restored) is type(router)

    def test_router_from_state_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="unknown shard router"):
            router_from_state({"type": "no-such-router"})


# ----------------------------------------------------------------------
# Builder validation
# ----------------------------------------------------------------------
class TestClusterBuilder:
    def test_requires_ckb(self):
        with pytest.raises(EngineBuildError, match="curated KB"):
            ShardedEngine.builder().with_n_shards(2).build()

    def test_stream_and_partition_are_exclusive(self, workload):
        builder = (
            ShardedEngine.builder()
            .with_ckb(workload.dataset.kb)
            .with_triples(workload.seed_triples[:2])
            .with_shard_triples([workload.seed_triples[2:4]])
        )
        with pytest.raises(EngineBuildError, match="mutually exclusive"):
            builder.build()

    def test_n_shards_conflict(self, workload):
        builder = (
            ShardedEngine.builder()
            .with_ckb(workload.dataset.kb)
            .with_n_shards(3)
            .with_shard_triples(shard_partition(workload.seed_triples))
        )
        with pytest.raises(EngineBuildError, match="conflicts"):
            builder.build()

    def test_rejects_non_router(self, workload):
        with pytest.raises(EngineBuildError, match="ShardRouter"):
            ShardedEngine.builder().with_router(object())

    def test_runtime_factory_must_produce_runtimes(self, workload):
        builder = (
            ShardedEngine.builder()
            .with_ckb(workload.dataset.kb)
            .with_n_shards(2)
            .with_triples(workload.seed_triples[:4])
            .with_runtime_factory(lambda: "not a runtime")
        )
        with pytest.raises(EngineBuildError, match="InferenceRuntime"):
            builder.build()

    def test_duplicate_ids_rejected_across_shards(self, workload):
        """Regression: a duplicate id whose copies route to *different*
        shards used to slip past the per-shard engines' checks."""
        first = _triple("dup", "alice", "works at", "acme")
        second = _triple("dup", "bob", "works at", "initech")
        with pytest.raises(EngineBuildError, match="duplicate triple id"):
            (
                ShardedEngine.builder()
                .with_ckb(workload.dataset.kb)
                .with_n_shards(4)
                .with_triples([first, second])
                .build()
            )
        with pytest.raises(EngineBuildError, match="duplicate triple id"):
            (
                ShardedEngine.builder()
                .with_ckb(workload.dataset.kb)
                .with_shard_triples([[first], [second]])
                .build()
            )

    def test_routed_stream_covers_every_triple(self, workload):
        cluster = (
            ShardedEngine.builder()
            .with_ckb(workload.dataset.kb)
            .with_n_shards(3)
            .with_triples(workload.seed_triples)
            .build()
        )
        stats = cluster.stats()
        assert stats.n_shards == 3
        assert stats.n_triples == len(workload.seed_triples)


# ----------------------------------------------------------------------
# Equivalence with a single engine
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def workload():
    return _workload()


@pytest.fixture(scope="module")
def single_report(workload):
    engine = _single(workload)
    return engine.run_joint(), engine


@pytest.fixture(scope="module")
def cluster_and_report(workload):
    cluster = _cluster(
        workload,
        router=VocabularyAffinityRouter(),
        runtime_factory=IncrementalRuntime,
    )
    return cluster, cluster.run_joint()


class TestClusterEquivalence:
    def test_seed_decisions_identical(self, single_report, cluster_and_report):
        report, _engine = single_report
        _cluster_engine, cluster_report = cluster_and_report
        assert _decisions(
            cluster_report.canonicalization, cluster_report.linking
        ) == _decisions(report.canonicalization, report.linking)

    def test_report_carries_per_shard_drill_down(self, cluster_and_report):
        cluster, report = cluster_and_report
        assert report.n_shards == cluster.n_shards
        assert sum(s.stats.n_triples for s in report.shards) == (
            cluster.stats().n_triples
        )

    def test_resolve_matches_single_engine(
        self, workload, single_report, cluster_and_report
    ):
        _report, engine = single_report
        cluster, _cluster_report = cluster_and_report
        mentions = [t.subject for t in workload.seed_triples[:12]]
        mentions += [t.predicate for t in workload.seed_triples[:6]]
        for mention in mentions:
            assert (
                cluster.resolve(mention).to_dict()
                == engine.resolve(mention).to_dict()
            )

    def test_resolve_many_matches_resolve_loop(
        self, workload, cluster_and_report
    ):
        cluster, _report = cluster_and_report
        mentions = [t.object for t in workload.seed_triples[:10]]
        batched = cluster.resolve_many(mentions)
        looped = [cluster.resolve(m) for m in mentions]
        assert [r.to_dict() for r in batched] == [r.to_dict() for r in looped]

    def test_resolve_many_accepts_generators(
        self, workload, cluster_and_report
    ):
        """Regression: the mentions iterable used to be consumed twice,
        so a generator input crashed with KeyError instead of
        resolving."""
        cluster, _report = cluster_and_report
        mentions = [t.subject for t in workload.seed_triples[:4]]
        from_generator = cluster.resolve_many(m for m in mentions)
        from_list = cluster.resolve_many(mentions)
        assert [r.to_dict() for r in from_generator] == [
            r.to_dict() for r in from_list
        ]

    def test_unknown_mention_raises(self, cluster_and_report):
        cluster, _report = cluster_and_report
        with pytest.raises(UnknownMentionError):
            cluster.resolve("no such phrase anywhere")
        with pytest.raises(UnknownMentionError):
            cluster.resolve_many(["no such phrase anywhere"])

    def test_kind_filter_respected(self, workload, cluster_and_report):
        cluster, _report = cluster_and_report
        predicate = workload.seed_triples[0].predicate
        answer = cluster.resolve(predicate, kind="relation")
        assert answer.kind == "P"
        with pytest.raises(UnknownMentionError):
            cluster.resolve(predicate, kind="entity")

    def test_slot_restricted_resolve_with_cross_shard_roles(self, workload):
        """Regression: a subject-restricted resolve used to fail when
        another shard held the mention only as an object (its engine
        raised UnknownMentionError and the scatter propagated it)."""
        cluster = (
            ShardedEngine.builder()
            .with_ckb(workload.dataset.kb)
            .with_config(CONFIG)
            .with_shard_triples(
                [
                    [_triple("x1", "acme corp", "acquired", "widgetco")],
                    [_triple("x2", "widgetco", "is based in", "berlin")],
                ]
            )
            .build()
        )
        answer = cluster.resolve("widgetco", kind="S")
        assert answer.kind == "S"
        service = JOCLClusterService(cluster)
        assert service.resolve("widgetco", kind="S").kind == "S"


@pytest.mark.parametrize("arrivals", ["repeat", "raw"])
def test_ingest_decisions_identical(arrivals):
    """Routed shard-parallel ingest stays decision-identical to one
    engine ingesting everything — including the ``raw`` regime, where
    new vocabulary entering one shard re-weights the corpus-global IDF
    tables and the drift broadcast must invalidate *other* shards."""
    workload = _workload(arrivals=arrivals)
    single = _single(workload, runtime=IncrementalRuntime())
    single.run_joint()
    cluster = _cluster(
        workload,
        router=VocabularyAffinityRouter(),
        runtime_factory=IncrementalRuntime,
    )
    cluster.run_joint()
    for batch in workload.batches:
        single.ingest(batch)
        report = cluster.ingest(batch)
        assert report.n_triples == len(batch)
        assert len(report.per_shard) == cluster.n_shards
    single_report = single.run_joint()
    cluster_report = cluster.run_joint()
    assert _decisions(
        cluster_report.canonicalization, cluster_report.linking
    ) == _decisions(single_report.canonicalization, single_report.linking)


class TestClusterIngest:
    def test_duplicate_id_rejected_atomically(self, workload):
        cluster = _cluster(workload)
        existing = workload.seed_triples[0].triple_id
        before = cluster.stats().n_triples
        batch = [
            _triple("brand-new", "new subject", "relates to", "new object"),
            _triple(existing, "another", "relates to", "thing"),
        ]
        with pytest.raises(IngestError, match="duplicate"):
            cluster.ingest(batch)
        assert cluster.stats().n_triples == before

    def test_empty_batch_is_a_noop(self, workload):
        cluster = _cluster(workload)
        report = cluster.ingest([])
        assert report.n_triples == 0
        assert cluster.stats().n_ingests == 1

    def test_ingest_report_shape(self, workload):
        cluster = _cluster(workload, router=VocabularyAffinityRouter())
        report = cluster.ingest(workload.batches[0])
        assert report.router == "vocabulary_affinity"
        assert report.n_triples == sum(report.per_shard)
        assert report.wall_time_s >= 0.0

    def test_batched_new_domain_co_locates(self, workload):
        """Regression: routing used to score every triple of a batch
        against the pre-batch vocabularies only, so a new domain
        arriving as one batch scattered on the cold tie-break instead
        of co-locating like the builder's stream routing."""
        cluster = _cluster(workload, router=VocabularyAffinityRouter())
        new_domain = [
            _triple("nd1", "zorblat inc", "manufactures", "zorblat widgets"),
            _triple("nd2", "zorblat inc", "is headquartered in", "zorblat city"),
            _triple("nd3", "zorblat widgets", "are sold by", "zorblat inc"),
            _triple("nd4", "zorblat labs", "supplies", "zorblat inc"),
        ]
        report = cluster.ingest(new_domain)
        # After the first tie-broken placement, affinity attracts the
        # rest of the domain to the same shard.
        assert sorted(report.per_shard, reverse=True)[0] == len(new_domain)


# ----------------------------------------------------------------------
# Empty shards
# ----------------------------------------------------------------------
class TestEmptyShards:
    def test_empty_shard_contributes_empty_report(self, workload):
        parts = shard_partition(workload.seed_triples)
        cluster = (
            ShardedEngine.builder()
            .with_ckb(workload.dataset.kb)
            .with_config(CONFIG)
            .with_shard_triples([parts[0], []])
            .build()
        )
        report = cluster.run_joint()
        assert report.shards[1].stats.n_triples == 0
        assert len(report.shards[1].canonicalization.clusters["S"]) == 0

    def test_all_empty_raises(self, workload):
        cluster = (
            ShardedEngine.builder()
            .with_ckb(workload.dataset.kb)
            .with_shard_triples([[], []])
            .build()
        )
        with pytest.raises(EngineStateError, match="empty"):
            cluster.run_joint()


# ----------------------------------------------------------------------
# The shard fan-out pool
# ----------------------------------------------------------------------
class TestShardFanOut:
    def test_with_max_workers_rejects_bad_counts(self):
        for bad in (0, -2):
            with pytest.raises(EngineBuildError, match="max_workers"):
                ShardedEngine.builder().with_max_workers(bad)

    def test_shard_failure_shuts_pool_down_and_recovers(
        self, workload, cluster_and_report, monkeypatch
    ):
        _cluster_engine, expected = cluster_and_report
        cluster = _cluster(workload)
        failing = cluster.shards[1]

        def injected_failure():
            raise RuntimeError("injected shard failure")

        baseline = {thread.ident for thread in threading.enumerate()}
        monkeypatch.setattr(failing, "run_joint", injected_failure)
        with pytest.raises(RuntimeError, match="injected shard failure"):
            cluster.run_joint()
        leaked = [
            thread
            for thread in threading.enumerate()
            if thread.ident not in baseline and thread.is_alive()
        ]
        assert leaked == []

        # Pools are per call, so a failed fan-out does not poison the
        # next one.
        monkeypatch.undo()
        report = cluster.run_joint()
        assert _decisions(report.canonicalization, report.linking) == _decisions(
            expected.canonicalization, expected.linking
        )


# ----------------------------------------------------------------------
# Result dataclasses
# ----------------------------------------------------------------------
class TestClusterResults:
    def test_ingest_report_round_trip(self):
        report = IngestReport(router="hash", per_shard=(3, 0, 2))
        restored = IngestReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert restored == report
        assert restored.n_triples == 5

    def test_cluster_report_round_trip(self, cluster_and_report):
        _cluster_engine, report = cluster_and_report
        wire = json.dumps(report.to_dict(), sort_keys=True)
        restored = ClusterReport.from_dict(json.loads(wire))
        assert restored == report

    def test_cluster_stats_round_trip(self, cluster_and_report):
        cluster, _report = cluster_and_report
        stats = cluster.stats()
        assert ClusterStats.from_dict(stats.to_dict()) == stats

    def test_schema_version_checked(self):
        payload = IngestReport(router="hash", per_shard=(1,)).to_dict()
        payload["schema_version"] = 999
        with pytest.raises(SchemaVersionError):
            IngestReport.from_dict(payload)

    def test_malformed_body_raises_schema_error(self):
        payload = IngestReport(router="hash", per_shard=(1,)).to_dict()
        payload["per_shard"] = "not-a-list-of-ints"
        with pytest.raises(SchemaError):
            IngestReport.from_dict(payload)

    def test_merge_first_shard_wins_on_conflict(self):
        from repro.api.results import (
            CanonicalizationResult,
            EngineReport,
            LinkingResult,
        )
        from repro.clustering.clusters import Clustering

        def report(groups, links):
            return EngineReport(
                canonicalization=CanonicalizationResult(
                    clusters={
                        "S": Clustering(groups),
                        "P": Clustering(()),
                        "O": Clustering(()),
                    }
                ),
                linking=LinkingResult(
                    links={"S": links, "P": {}, "O": {}}
                ),
                stats=EngineStats(),
            )

        first = report([("a", "b")], {"a": "e1", "b": "e1"})
        second = report([("b", "c")], {"b": "e2", "c": "e2"})
        canonicalization, linking = merge_shard_outputs((first, second))
        groups = {tuple(sorted(g)) for g in canonicalization.clusters["S"].groups}
        assert groups == {("a", "b"), ("c",)}   # "b" stays with shard 0
        assert linking.links["S"] == {"a": "e1", "b": "e1", "c": "e2"}


# ----------------------------------------------------------------------
# Durability
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["file", "sqlite"])
def test_cluster_save_gc_and_history_cap_safety(tmp_path, backend):
    """Regression: with a history-capped store, the per-shard saves used
    to prune the snapshot the still-current manifest referenced before
    the new manifest committed.  Shard namespaces no longer inherit the
    cap; unreachable shard snapshots are GC'd only after the commit."""
    workload = _workload()
    cluster = _cluster(workload)
    store = (
        FileStateStore(tmp_path / "ckpt", history=1)
        if backend == "file"
        else SQLiteStateStore(tmp_path / "ckpt.db", history=1)
    )
    cluster.save(store)
    first = cluster.run_joint()
    cluster.ingest(workload.batches[0])
    manifest = cluster.save(store)
    # Old shard snapshots are unreachable after the commit and GC'd;
    # exactly the referenced one remains per shard.
    for entry in manifest["shards"]:
        assert store.namespace(entry["namespace"]).snapshots() == [
            entry["snapshot"]
        ]
    restored = ShardedEngine.load(store)
    report = restored.run_joint()
    grown = cluster.run_joint()
    assert _decisions(report.canonicalization, report.linking) == _decisions(
        grown.canonicalization, grown.linking
    )
    assert _decisions(report.canonicalization, report.linking) != _decisions(
        first.canonicalization, first.linking
    )


@pytest.mark.parametrize("backend", ["file", "sqlite"])
def test_drop_snapshot_refuses_current(tmp_path, backend):
    workload = _workload()
    cluster = _cluster(workload)
    store = (
        FileStateStore(tmp_path / "ckpt")
        if backend == "file"
        else SQLiteStateStore(tmp_path / "ckpt.db")
    )
    sub = store.namespace("shard-00")
    snapshot = cluster.shards[0].save(sub)
    with pytest.raises(CheckpointError, match="refusing to drop"):
        sub.drop_snapshot(snapshot)
    assert sub.snapshots() == [snapshot]


@pytest.mark.parametrize("backend", ["file", "sqlite"])
def test_cluster_save_load_round_trip(tmp_path, backend):
    workload = _workload()
    cluster = _cluster(
        workload,
        router=VocabularyAffinityRouter(),
        runtime_factory=IncrementalRuntime,
    )
    original = cluster.run_joint()
    cluster.ingest(workload.batches[0])
    grown = cluster.run_joint()
    store = (
        FileStateStore(tmp_path / "cluster")
        if backend == "file"
        else SQLiteStateStore(tmp_path / "cluster.db")
    )
    manifest = cluster.save(store)
    assert manifest["n_shards"] == cluster.n_shards
    assert len(manifest["shards"]) == cluster.n_shards

    restored = ShardedEngine.load(store)
    assert restored.n_shards == cluster.n_shards
    assert type(restored.router) is VocabularyAffinityRouter
    assert restored.stats().n_ingests == cluster.stats().n_ingests
    report = restored.run_joint()
    assert _decisions(report.canonicalization, report.linking) == _decisions(
        grown.canonicalization, grown.linking
    )
    # Warm: the first post-restore inference splices every cached
    # component instead of re-running LBP.
    for profile in restored.last_profiles():
        assert profile.reused_components == profile.n_components
    # And decisions must differ from the pre-ingest state (the grown
    # snapshot was saved, not the seed one).
    assert _decisions(report.canonicalization, report.linking) != _decisions(
        original.canonicalization, original.linking
    )


class TestClusterLoadErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="no document"):
            ShardedEngine.load(FileStateStore(tmp_path / "empty"))

    def test_bad_schema_version(self, tmp_path):
        store = FileStateStore(tmp_path / "bad")
        store.save_document(
            "cluster", {"schema_version": 999, "type": "cluster_manifest"}
        )
        with pytest.raises(SchemaVersionError):
            ShardedEngine.load(store)

    def test_wrong_type(self, tmp_path):
        store = FileStateStore(tmp_path / "bad")
        store.save_document(
            "cluster", {"schema_version": 1, "type": "something-else"}
        )
        with pytest.raises(SchemaError, match="type"):
            ShardedEngine.load(store)

    def test_unknown_router_needs_override(self, tmp_path):
        workload = _workload()
        cluster = _cluster(workload)
        store = FileStateStore(tmp_path / "cluster")
        manifest = cluster.save(store)
        manifest = dict(manifest)
        manifest["router"] = {"type": "bespoke"}
        store.save_document("cluster", manifest)
        with pytest.raises(CheckpointError, match="router"):
            ShardedEngine.load(store)
        restored = ShardedEngine.load(store, router=HashShardRouter())
        assert type(restored.router) is HashShardRouter


# ----------------------------------------------------------------------
# The cluster service
# ----------------------------------------------------------------------
class TestClusterService:
    def test_threaded_resolve_matches_serial_loop(self, workload):
        cluster = _cluster(
            workload,
            router=VocabularyAffinityRouter(),
            runtime_factory=IncrementalRuntime,
        )
        service = JOCLClusterService(cluster)
        mentions = [t.subject for t in workload.seed_triples[:24]]
        serial = [service.resolve(m).to_dict() for m in mentions]
        answers = [None] * len(mentions)
        errors = []

        def worker(offset):
            try:
                for index in range(offset, len(mentions), 6):
                    answers[index] = service.resolve(mentions[index]).to_dict()
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert answers == serial

    def test_vocab_bearing_ingest_is_atomic_under_readers(self, workload):
        """An ingest carrying new vocabulary must never let a reader
        observe post-batch IDF weights against a pre-batch OKB: the
        fold, drift broadcast and per-shard ingests happen under the
        all-shards exclusion, so every answer matches either the
        pre-ingest or the post-ingest engine state."""
        service = JOCLClusterService(
            _cluster(workload, router=VocabularyAffinityRouter())
        )
        mention = workload.seed_triples[0].subject
        before = service.resolve(mention).to_dict()
        batch = [
            _triple("vb1", "brandnewco", "emerged in", "newville"),
            _triple("vb2", "brandnewco", "acquired", mention),
        ]
        answers = []
        errors = []

        def reader():
            try:
                for _ in range(30):
                    answers.append(service.resolve(mention).to_dict())
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        thread = threading.Thread(target=reader)
        thread.start()
        service.ingest(batch)
        thread.join()
        assert not errors
        after = service.resolve(mention).to_dict()
        assert all(answer in (before, after) for answer in answers)

    def test_service_ingest_matches_engine_ingest(self, workload):
        service = JOCLClusterService(
            _cluster(workload, router=VocabularyAffinityRouter())
        )
        direct = _cluster(workload, router=VocabularyAffinityRouter())
        for batch in workload.batches:
            via_service = service.ingest(batch)
            via_engine = direct.ingest(batch)
            assert via_service.per_shard == via_engine.per_shard
        service_report = service.run_joint()
        direct_report = direct.run_joint()
        assert _decisions(
            service_report.canonicalization, service_report.linking
        ) == _decisions(
            direct_report.canonicalization, direct_report.linking
        )

    def test_run_joint_and_stats(self, workload):
        service = JOCLClusterService(_cluster(workload))
        report = service.run_joint()
        stats = service.stats()
        assert report.n_shards == stats.n_shards
        assert stats.n_triples == len(workload.seed_triples)
        assert len(service.serving_stats()) == stats.n_shards

    def test_save_requires_store(self, workload):
        service = JOCLClusterService(_cluster(workload))
        with pytest.raises(CheckpointError, match="no state store"):
            service.save()

    def test_save_and_restore(self, workload, tmp_path):
        store = FileStateStore(tmp_path / "svc")
        cluster = _cluster(workload, runtime_factory=IncrementalRuntime)
        service = JOCLClusterService(cluster, store=store)
        before = service.run_joint()
        manifest = service.save()
        assert manifest["n_shards"] == cluster.n_shards
        restored = ShardedEngine.load(store)
        report = restored.run_joint()
        assert _decisions(
            report.canonicalization, report.linking
        ) == _decisions(before.canonicalization, before.linking)

    def test_resolve_many_no_partial_results(self, workload):
        service = JOCLClusterService(_cluster(workload))
        known = workload.seed_triples[0].subject
        with pytest.raises(UnknownMentionError):
            service.resolve_many([known, "absolutely unknown phrase"])

    def test_resolve_many_accepts_generators(self, workload):
        """Regression: same double-consumption bug as the engine's."""
        service = JOCLClusterService(_cluster(workload))
        mentions = [t.subject for t in workload.seed_triples[:4]]
        from_generator = service.resolve_many(m for m in mentions)
        from_list = service.resolve_many(mentions)
        assert [r.to_dict() for r in from_generator] == [
            r.to_dict() for r in from_list
        ]

    def test_run_joint_tolerates_empty_shards(self, workload):
        """Regression: the service used to crash with EngineStateError
        when any shard was empty, unlike the engine's run_joint."""
        parts = shard_partition(workload.seed_triples)
        cluster = (
            ShardedEngine.builder()
            .with_ckb(workload.dataset.kb)
            .with_config(CONFIG)
            .with_shard_triples([parts[0], []])
            .build()
        )
        service = JOCLClusterService(cluster)
        report = service.run_joint()
        assert report.shards[1].stats.n_triples == 0
        empty = JOCLClusterService(
            ShardedEngine.builder()
            .with_ckb(workload.dataset.kb)
            .with_shard_triples([[], []])
            .build()
        )
        with pytest.raises(EngineStateError, match="empty"):
            empty.run_joint()
