"""Checkpoint/StateStore behaviour: round-trip identity, warm restore,
store layouts, schema evolution and the committed golden fixture.

The golden fixture under ``tests/data/golden_checkpoint`` is a
FileStateStore directory saved from the deterministic Figure-1 micro
world; regenerate it (only after a deliberate schema bump) with::

    PYTHONPATH=src python tests/test_persist.py regenerate-golden
"""

import json
import shutil
import sqlite3
from pathlib import Path

import pytest

from repro.api import (
    CheckpointError,
    JOCLEngine,
    SchemaError,
    SchemaVersionError,
)
from repro.ckb.kb import CuratedKB, Entity, Fact, Relation
from repro.core import JOCLConfig
from repro.datasets import StreamingIngestConfig, generate_streaming_ingest
from repro.embeddings.base import WordEmbedding
from repro.persist import (
    PERSIST_SCHEMA_VERSION,
    FileStateStore,
    SQLiteStateStore,
)
from repro.runtime import (
    IncrementalRuntime,
    PartitionedRuntime,
    runtime_from_state,
)

FAST = JOCLConfig(lbp_iterations=20)

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_STORE = DATA_DIR / "golden_checkpoint"
GOLDEN_REPORT = DATA_DIR / "golden_checkpoint_report.json"


def decisions(report) -> str:
    """The runtime-independent decision payload, as a canonical string."""
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
        StreamingIngestConfig(n_shards=4, triples_per_shard=25, seed=11)
    )


@pytest.fixture()
def warm_engine(workload):
    """An engine in serving steady state (decoded once, runtime warm)."""
    engine = workload.engine(FAST, IncrementalRuntime())
    engine.run_joint()
    return engine


def make_store(backend: str, tmp_path: Path):
    if backend == "file":
        return FileStateStore(tmp_path / "ckpt")
    return SQLiteStateStore(tmp_path / "ckpt.db")


# ----------------------------------------------------------------------
# Round-trip identity (the acceptance gate) — both backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["file", "sqlite"])
class TestRoundTrip:
    def test_decisions_byte_identical(self, backend, tmp_path, warm_engine):
        store = make_store(backend, tmp_path)
        original = warm_engine.run_joint()
        warm_engine.save(store)
        restored = JOCLEngine.load(store)
        assert decisions(restored.run_joint()) == decisions(original)

    def test_restore_is_warm_not_cosmetic(self, backend, tmp_path, warm_engine):
        """The restored IncrementalRuntime splices every clean component
        on the very first post-restore inference — zero LBP re-runs."""
        store = make_store(backend, tmp_path)
        warm_engine.save(store)
        restored = JOCLEngine.load(store)
        restored.run_joint()
        profile = restored.last_profile()
        assert profile.reused_components == profile.n_components
        assert profile.recomputed_components == 0

    def test_stats_provenance_restored(self, backend, tmp_path, workload):
        store = make_store(backend, tmp_path)
        engine = workload.engine(FAST, IncrementalRuntime())
        engine.ingest(workload.batches[0][:3])
        engine.run_joint()
        engine.save(store)
        restored = JOCLEngine.load(store)
        assert restored.stats() == engine.stats()

    def test_post_restore_ingest_reuses_components(
        self, backend, tmp_path, warm_engine, workload
    ):
        """The streaming acceptance criterion: restored incremental
        state is live — the first post-restore ingest re-runs LBP only
        on dirty components, decision-identical to a cold union run."""
        store = make_store(backend, tmp_path)
        warm_engine.save(store)
        restored = JOCLEngine.load(store)
        for batch in workload.batches:
            restored.ingest(batch)
        report = restored.run_joint()
        profile = restored.last_profile()
        assert profile.reused_components > 0
        assert profile.recomputed_components > 0
        cold = (
            JOCLEngine.builder()
            .with_side_information(
                workload.side_information(workload.all_triples)
            )
            .with_config(FAST)
            .build()
            .run_joint()
        )
        assert decisions(report) == decisions(cold)

    def test_trained_weights_round_trip(self, backend, tmp_path, small_dataset):
        store = make_store(backend, tmp_path)
        config = JOCLConfig(lbp_iterations=10, learn_iterations=2)
        engine = small_dataset.engine("test", config=config)
        engine.fit(
            small_dataset.validation_triples,
            side=small_dataset.side_information("validation"),
        )
        original = engine.run_joint()
        engine.save(store)
        restored = JOCLEngine.load(store)
        assert restored.trained
        assert restored.export_weights() == engine.export_weights()
        assert decisions(restored.run_joint()) == decisions(original)


# ----------------------------------------------------------------------
# Store mechanics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["file", "sqlite"])
class TestStores:
    def test_empty_store_raises(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        with pytest.raises(CheckpointError, match="no checkpoint"):
            store.load_state()

    def test_unknown_snapshot_raises(self, backend, tmp_path, warm_engine):
        store = make_store(backend, tmp_path)
        warm_engine.save(store)
        with pytest.raises(CheckpointError, match="no snapshot"):
            store.load_state("snapshot-999999")

    def test_snapshots_accumulate_and_load_by_id(
        self, backend, tmp_path, warm_engine, workload
    ):
        store = make_store(backend, tmp_path)
        first = warm_engine.save(store)
        n_before = len(warm_engine.okb)
        warm_engine.ingest(workload.batches[0][:2])
        warm_engine.run_joint()
        second = warm_engine.save(store)
        assert store.snapshots() == [first, second]
        assert len(JOCLEngine.load(store).okb) == n_before + 2  # current
        assert len(JOCLEngine.load(store, first).okb) == n_before

    def test_history_cap_prunes_oldest(self, backend, tmp_path, warm_engine):
        if backend == "file":
            store = FileStateStore(tmp_path / "ckpt", history=2)
        else:
            store = SQLiteStateStore(tmp_path / "ckpt.db", history=2)
        names = [warm_engine.save(store) for _ in range(3)]
        assert store.snapshots() == names[1:]
        # The newest snapshot is still the default load target.
        assert decisions(JOCLEngine.load(store).run_joint()) == decisions(
            warm_engine.run_joint()
        )

    def test_rejects_bad_history(self, backend, tmp_path):
        with pytest.raises(ValueError, match="history"):
            if backend == "file":
                FileStateStore(tmp_path / "ckpt", history=0)
            else:
                SQLiteStateStore(tmp_path / "ckpt.db", history=0)

    def test_current_tracks_load_default(self, backend, tmp_path, warm_engine):
        store = make_store(backend, tmp_path)
        assert store.current() is None
        first = warm_engine.save(store)
        assert store.current() == first
        second = warm_engine.save(store)
        assert store.current() == second

    @pytest.mark.parametrize(
        "bad",
        [123, ["snapshot-000001"], b"snapshot-000001", object()],
        ids=["int", "list", "bytes", "object"],
    )
    def test_malformed_snapshot_type_raises_schema_error(
        self, backend, tmp_path, bad
    ):
        """Regression: non-string snapshot ids used to leak the raw
        backend exception (``TypeError`` from pathlib,
        ``sqlite3.ProgrammingError`` from parameter binding).  They are
        schema violations and must surface as :class:`SchemaError`
        naming the store."""
        store = make_store(backend, tmp_path)
        with pytest.raises(SchemaError, match="malformed snapshot id"):
            store.load_state(bad)

    @pytest.mark.parametrize(
        "bad",
        ["snap\x00shot", "../escape", "a/b", "a\\b", "..", "."],
        ids=["nul", "dotdot-slash", "slash", "backslash", "dotdot", "dot"],
    )
    def test_malformed_snapshot_string_raises_schema_error(
        self, backend, tmp_path, bad
    ):
        """NUL bytes and path separators are never part of a snapshot id
        — and on the file backend a separator would escape the store
        directory entirely."""
        store = make_store(backend, tmp_path)
        with pytest.raises(SchemaError) as excinfo:
            store.load_state(bad)
        # The message names the store so operators can find the culprit.
        assert "ckpt" in str(excinfo.value)

    def test_unknown_but_well_formed_id_still_not_found(
        self, backend, tmp_path, warm_engine
    ):
        """The bugfix must not reclassify ordinary not-found lookups."""
        store = make_store(backend, tmp_path)
        warm_engine.save(store)
        with pytest.raises(CheckpointError, match="no snapshot"):
            store.load_state("snapshot-424242")


@pytest.mark.parametrize("backend", ["file", "sqlite"])
class TestNamespacesAndDocuments:
    def test_namespaces_isolate_snapshot_sequences(
        self, backend, tmp_path, warm_engine
    ):
        store = make_store(backend, tmp_path)
        shard_a = store.namespace("shard-00")
        shard_b = store.namespace("shard-01")
        name_a = warm_engine.save(shard_a)
        assert name_a == "snapshot-000001"
        assert warm_engine.save(shard_a) == "snapshot-000002"
        # An independent sequence, not a continuation of shard-00's.
        assert warm_engine.save(shard_b) == "snapshot-000001"
        assert store.snapshots() == []          # the root is untouched
        assert shard_a.snapshots() == ["snapshot-000001", "snapshot-000002"]
        assert shard_b.snapshots() == ["snapshot-000001"]
        restored = JOCLEngine.load(shard_b)
        assert decisions(restored.run_joint()) == decisions(
            warm_engine.run_joint()
        )

    def test_nested_namespaces(self, backend, tmp_path, warm_engine):
        store = make_store(backend, tmp_path)
        nested = store.namespace("cluster-a").namespace("shard-00")
        warm_engine.save(nested)
        assert nested.snapshots() == ["snapshot-000001"]
        assert store.namespace("cluster-a").snapshots() == []

    def test_invalid_namespace_name_rejected(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        for bad in ("", "snapshot-000001", "CURRENT", "../up", "a/b", ".x"):
            with pytest.raises(CheckpointError, match="invalid namespace"):
                store.namespace(bad)

    def test_documents_round_trip_and_overwrite(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        store.save_document("cluster", {"n_shards": 2})
        assert store.load_document("cluster") == {"n_shards": 2}
        store.save_document("cluster", {"n_shards": 4})
        assert store.load_document("cluster") == {"n_shards": 4}

    def test_documents_scoped_per_namespace(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        store.save_document("cluster", {"scope": "root"})
        sub = store.namespace("shard-00")
        sub.save_document("cluster", {"scope": "shard"})
        assert store.load_document("cluster") == {"scope": "root"}
        assert sub.load_document("cluster") == {"scope": "shard"}

    def test_missing_document_raises(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        with pytest.raises(CheckpointError, match="no document"):
            store.load_document("cluster")

    def test_invalid_document_name_rejected(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        with pytest.raises(CheckpointError, match="invalid document"):
            store.save_document("../evil", {})

    def test_namespace_cannot_collide_with_document_files(
        self, backend, tmp_path
    ):
        """Regression: a namespace named ``x.doc.json`` used to collide
        on disk with document ``x`` (FileStateStore), leaking raw
        IsADirectoryError/FileExistsError from the OS."""
        store = make_store(backend, tmp_path)
        with pytest.raises(CheckpointError, match="invalid namespace"):
            store.namespace("x.doc.json")
        store.save_document("x", {"fine": True})
        assert store.load_document("x") == {"fine": True}


class TestFileStoreLayout:
    def test_atomic_layout_and_current_pointer(self, tmp_path, warm_engine):
        store = FileStateStore(tmp_path / "ckpt")
        name = warm_engine.save(store)
        root = tmp_path / "ckpt"
        assert (root / "CURRENT").read_text().strip() == name
        assert (root / name / "manifest.json").exists()
        manifest = json.loads((root / name / "manifest.json").read_text())
        assert manifest["schema_version"] == PERSIST_SCHEMA_VERSION
        for section in manifest["sections"]:
            assert (root / name / f"{section}.json").exists()
        # No staging debris left behind.
        assert not [p for p in root.iterdir() if p.name.startswith(".tmp-")]

    def test_current_ignores_orphan_snapshot_dirs(self, tmp_path, warm_engine):
        """A snapshot directory whose save never committed CURRENT (a
        crash between the rename and the pointer swap) must not become
        the default load target."""
        store = FileStateStore(tmp_path / "ckpt")
        name = warm_engine.save(store)
        orphan = tmp_path / "ckpt" / "snapshot-000099"
        shutil.copytree(tmp_path / "ckpt" / name, orphan)
        assert store.current() == name
        assert store.snapshots()[-1] == "snapshot-000099"
        restored = JOCLEngine.load(store)  # reads CURRENT, not newest dir
        assert decisions(restored.run_joint()) == decisions(
            warm_engine.run_joint()
        )

    def test_sqlite_save_is_transactional(self, tmp_path, warm_engine):
        """A save that fails mid-write leaves no partial snapshot."""
        store = SQLiteStateStore(tmp_path / "ckpt.db")
        warm_engine.save(store)

        class ExplodingState:
            def to_sections(self):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            store.save_state(ExplodingState())
        assert store.snapshots() == ["snapshot-000001"]
        with sqlite3.connect(tmp_path / "ckpt.db") as connection:
            rows = connection.execute("SELECT COUNT(*) FROM snapshots").fetchone()
        assert rows[0] == 1


# ----------------------------------------------------------------------
# Schema evolution
# ----------------------------------------------------------------------
class TestSchemaEvolution:
    @pytest.fixture()
    def saved_dir(self, tmp_path, warm_engine):
        store = FileStateStore(tmp_path / "ckpt")
        name = warm_engine.save(store)
        return store, tmp_path / "ckpt" / name

    def _edit_manifest(self, snapshot_dir: Path, mutate) -> None:
        path = snapshot_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        mutate(manifest)
        path.write_text(json.dumps(manifest))

    def test_unknown_schema_version_rejected(self, saved_dir):
        store, snapshot_dir = saved_dir
        self._edit_manifest(
            snapshot_dir, lambda m: m.update(schema_version=99)
        )
        with pytest.raises(SchemaVersionError):
            store.load_state()

    def test_missing_schema_version_rejected(self, saved_dir):
        store, snapshot_dir = saved_dir
        self._edit_manifest(snapshot_dir, lambda m: m.pop("schema_version"))
        with pytest.raises(SchemaVersionError):
            store.load_state()

    def test_wrong_type_discriminator_rejected(self, saved_dir):
        store, snapshot_dir = saved_dir
        self._edit_manifest(
            snapshot_dir, lambda m: m.update(type="engine_report")
        )
        with pytest.raises(SchemaError, match="type"):
            store.load_state()

    def test_missing_required_section_rejected(self, saved_dir):
        store, snapshot_dir = saved_dir
        self._edit_manifest(
            snapshot_dir,
            lambda m: m.update(
                sections=[s for s in m["sections"] if s != "okb"]
            ),
        )
        with pytest.raises(SchemaError, match="okb"):
            store.load_state()

    def test_listed_but_missing_section_file(self, saved_dir):
        store, snapshot_dir = saved_dir
        (snapshot_dir / "side.json").unlink()
        with pytest.raises(CheckpointError, match="missing"):
            store.load_state()

    def test_corrupt_section_json_rejected(self, saved_dir):
        store, snapshot_dir = saved_dir
        (snapshot_dir / "config.json").write_text("{not json")
        with pytest.raises(SchemaError, match="not valid JSON"):
            store.load_state()

    def test_optional_sections_forward_filled(self, saved_dir):
        """A version-1 payload written without the optional sections
        (older/leaner writers) loads with their defaults."""
        store, snapshot_dir = saved_dir

        def strip(manifest):
            manifest["sections"] = [
                s
                for s in manifest["sections"]
                if s not in ("weights", "build_cache")
            ]
            manifest.pop("n_ingests", None)

        self._edit_manifest(snapshot_dir, strip)
        engine = JOCLEngine.load(store)
        assert not engine.trained
        assert engine.stats().n_ingests == 0
        engine.run_joint()  # still a working engine

    def test_untrained_engine_has_no_weights_section(self, saved_dir):
        _store, snapshot_dir = saved_dir
        manifest = json.loads((snapshot_dir / "manifest.json").read_text())
        assert "weights" not in manifest["sections"]


# ----------------------------------------------------------------------
# Save-time refusals and runtime payloads
# ----------------------------------------------------------------------
class TestSaveRefusals:
    def test_custom_signal_registry_refused(self, tmp_path, small_dataset):
        from repro.core.signals.registry import default_registry

        engine = (
            JOCLEngine.builder()
            .with_ckb(small_dataset.kb)
            .with_triples(small_dataset.test_triples)
            .with_signals(lambda side, variant: default_registry(side, variant))
            .build()
        )
        with pytest.raises(CheckpointError, match="custom signal registry"):
            engine.save(FileStateStore(tmp_path / "ckpt"))

    def test_unserializable_embedding_refused(self, tmp_path, small_dataset):
        class OpaqueEmbedding(WordEmbedding):
            @property
            def dimension(self):
                return 4

            def vector(self, word):
                import numpy as np

                return np.zeros(4)

        engine = (
            JOCLEngine.builder()
            .with_ckb(small_dataset.kb)
            .with_embedding(OpaqueEmbedding())
            .with_triples(small_dataset.test_triples)
            .build()
        )
        with pytest.raises(CheckpointError, match="to_state"):
            engine.save(FileStateStore(tmp_path / "ckpt"))


class TestRuntimePayloads:
    @pytest.fixture()
    def parallel_checkpoint(self, tmp_path, workload):
        """A checkpoint whose runtime section is the 1.x thread-pool
        runtime's payload, plus the saving engine's decisions."""
        store = FileStateStore(tmp_path / "ckpt")
        engine = workload.engine(FAST, PartitionedRuntime())
        saved = decisions(engine.run_joint())
        name = engine.save(store)
        (tmp_path / "ckpt" / name / "runtime.json").write_text(
            json.dumps({"type": "parallel", "max_workers": 2, "backend": "thread"})
        )
        return store, saved

    def test_parallel_runtime_checkpoint_needs_override(self, parallel_checkpoint):
        store, _saved = parallel_checkpoint
        with pytest.raises(CheckpointError, match="'parallel'.*runtime="):
            JOCLEngine.load(store)

    def test_parallel_runtime_checkpoint_restores_with_override(
        self, parallel_checkpoint
    ):
        store, saved = parallel_checkpoint
        restored = JOCLEngine.load(store, runtime=PartitionedRuntime())
        assert restored.runtime.name == "partitioned"
        assert decisions(restored.run_joint()) == saved

    def test_unknown_runtime_type_needs_override(self, tmp_path, warm_engine):
        store = FileStateStore(tmp_path / "ckpt")
        name = warm_engine.save(store)
        runtime_path = tmp_path / "ckpt" / name / "runtime.json"
        payload = json.loads(runtime_path.read_text())
        payload["type"] = "quantum"
        runtime_path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="unknown runtime"):
            JOCLEngine.load(store)
        # ... but an explicit runtime override restores fine.
        restored = JOCLEngine.load(store, runtime=IncrementalRuntime())
        restored.run_joint()

    def test_runtime_from_state_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown runtime"):
            runtime_from_state({"type": "quantum"})


# ----------------------------------------------------------------------
# Golden fixture
# ----------------------------------------------------------------------
def _golden_engine() -> JOCLEngine:
    """The Figure-1 micro world, built hand-deterministically (no RNG)."""
    from repro.ckb.anchors import AnchorStatistics
    from repro.okb.triples import OIETriple
    from repro.paraphrase.ppdb import ParaphraseDB

    kb = CuratedKB()
    kb.add_entity(
        Entity(
            "e:umd",
            "university of maryland",
            aliases=frozenset({"umd", "maryland university"}),
            types=frozenset({"organization"}),
        )
    )
    kb.add_entity(Entity("e:maryland", "maryland", aliases=frozenset({"md"})))
    kb.add_entity(Entity("e:u21", "universitas 21", aliases=frozenset({"u21"})))
    kb.add_relation(
        Relation(
            "r:contained_by",
            "location.contained_by",
            lexicalizations=frozenset({"locate in", "be located in"}),
            category="location",
        )
    )
    kb.add_relation(
        Relation(
            "r:founded",
            "organizations_founded",
            lexicalizations=frozenset({"be a member of"}),
            category="founding",
        )
    )
    kb.add_fact(Fact("e:umd", "r:contained_by", "e:maryland"))
    kb.add_fact(Fact("e:umd", "r:founded", "e:u21"))
    anchors = AnchorStatistics()
    anchors.record("university of maryland", "e:umd", 50)
    anchors.record("umd", "e:umd", 20)
    anchors.record("maryland", "e:maryland", 60)
    ppdb = ParaphraseDB(seed=0)
    ppdb.add_pair("be a member of", "be an early member of")
    triples = [
        OIETriple("t1", "University of Maryland", "locate in", "Maryland"),
        OIETriple("t2", "UMD", "be a member of", "Universitas 21"),
        OIETriple("t3", "UMD", "be an early member of", "U21"),
    ]
    engine = (
        JOCLEngine.builder()
        .with_ckb(kb)
        .with_anchors(anchors)
        .with_ppdb(ppdb)
        .with_config(JOCLConfig(lbp_iterations=15))
        .with_triples(triples)
        .with_runtime(IncrementalRuntime())
        .build()
    )
    engine.run_joint()
    return engine


def regenerate_golden() -> None:
    """Rebuild the committed fixture (schema bumps only; see module doc)."""
    if GOLDEN_STORE.exists():
        shutil.rmtree(GOLDEN_STORE)
    engine = _golden_engine()
    engine.save(FileStateStore(GOLDEN_STORE))
    GOLDEN_REPORT.write_text(
        decisions(engine.run_joint()) + "\n", encoding="utf-8"
    )


class TestGoldenFixture:
    def test_golden_checkpoint_loads_and_reproduces(self):
        """The committed version-1 checkpoint stays readable by every
        future build, and reproduces its committed decisions."""
        engine = JOCLEngine.load(FileStateStore(GOLDEN_STORE))
        report = engine.run_joint()
        assert decisions(report) == GOLDEN_REPORT.read_text().strip()
        profile = engine.last_profile()
        assert profile.reused_components == profile.n_components

    def test_golden_checkpoint_matches_fresh_build(self):
        """Guards the fixture against drift: a from-source build of the
        same micro world makes the same decisions."""
        fresh = _golden_engine()
        assert decisions(fresh.run_joint()) == GOLDEN_REPORT.read_text().strip()


if __name__ == "__main__":
    import sys

    if sys.argv[1:] == ["regenerate-golden"]:
        regenerate_golden()
        print(f"regenerated {GOLDEN_STORE}")
    else:
        raise SystemExit(__doc__)
