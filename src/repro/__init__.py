"""JOCL reproduction: Joint Open Knowledge Base Canonicalization and Linking.

This package is a from-scratch reproduction of the SIGMOD 2021 paper
*Joint Open Knowledge Base Canonicalization and Linking* (Liu, Shen,
Wang, Wang, Yang, Yuan).  It contains:

* the service-grade engine API (:mod:`repro.api`) — the supported
  public surface: a long-lived :class:`JOCLEngine` with incremental
  ingest, serving-time ``resolve``/``resolve_many`` and
  JSON-serializable results,
* pluggable execution runtimes (:mod:`repro.runtime`) — serial,
  partitioned and incremental LBP behind one plan/execute/merge
  contract, selected per engine via ``with_runtime(...)``,
* durable checkpoints (:mod:`repro.persist`) — schema-versioned
  :class:`EngineState` snapshots in file-directory or SQLite
  :class:`StateStore` backends, restored warm via
  :meth:`JOCLEngine.load`,
* concurrent serving sessions (:mod:`repro.serving`) —
  :class:`JOCLService` with thread-safe micro-batched ``resolve``,
  serialized writes and ``checkpoint()``/``rollback()`` —
  and :class:`JOCLClusterService`, the same discipline per shard,
* horizontal scale-out (:mod:`repro.cluster`) — a
  :class:`ShardedEngine` owning N engines behind one surface: pluggable
  :class:`ShardRouter` placement, scatter/gather ``resolve``,
  shard-parallel ``ingest``/``run_joint``, corpus-global IDF statistics
  and namespaced cluster checkpoints,
* the JOCL factor-graph framework itself (:mod:`repro.core`),
* every substrate the paper depends on (curated KB, OKB triple store,
  embeddings, paraphrase DB, AMIE rule mining, KBP-style relation
  categorizer, string similarity, clustering, metrics),
* every baseline system used in the paper's evaluation
  (:mod:`repro.baselines`),
* synthetic dataset generators shaped like ReVerb45K and NYTimes2018
  (:mod:`repro.datasets`), and
* the experiment helpers (:mod:`repro.pipeline`) that score systems
  and format the paper's tables for the benchmark harness.

Quickstart::

    from repro import JOCLConfig, JOCLEngine, PartitionedRuntime
    from repro.datasets import ReVerb45KConfig, generate_reverb45k

    dataset = generate_reverb45k(ReVerb45KConfig(n_entities=32, seed=7))
    engine = (
        JOCLEngine.builder()
        .with_ckb(dataset.kb)
        .with_anchors(dataset.anchors)
        .with_ppdb(dataset.ppdb)
        .with_config(JOCLConfig(lbp_iterations=10))
        .with_triples(dataset.test_triples)
        .with_runtime(PartitionedRuntime())  # per-component LBP
        .build()
    )
    report = engine.run_joint()
    print(report.canonicalization.np_clusters)   # canonicalization groups
    print(report.linking.entity_links)           # NP -> CKB entity
    print(report.profile.n_components)           # how inference executed
    engine.ingest(dataset.validation_triples)    # incremental OKB growth
    batch = engine.resolve_many(
        [t.subject for t in dataset.test_triples[:3]]
    )                                            # batched serving
    print([r.target for r in batch])
"""

from repro.api import (
    CanonicalizationResult,
    EngineBuilder,
    EngineReport,
    EngineStats,
    ExecutionProfile,
    JOCLEngine,
    LinkingResult,
    ResolveResult,
)
from repro.cluster import (
    ClusterReport,
    ClusterStats,
    HashShardRouter,
    IngestReport,
    ShardRouter,
    ShardedEngine,
    VocabularyAffinityRouter,
)
from repro.core import JOCL, JOCLConfig, JOCLOutput
from repro.datasets import (
    Dataset,
    NYTimes2018Config,
    ReVerb45KConfig,
    ShardedOKBConfig,
    StreamingIngestConfig,
    generate_nytimes2018,
    generate_reverb45k,
    generate_sharded_reverb45k,
    generate_streaming_ingest,
    shard_partition,
)
from repro.persist import (
    EngineState,
    FileStateStore,
    SQLiteStateStore,
    StateStore,
)
from repro.runtime import (
    IncrementalRuntime,
    InferenceRuntime,
    PartitionedRuntime,
    SerialRuntime,
)
from repro.serving import JOCLClusterService, JOCLService, ServingStats
from repro.version import __version__

__all__ = [
    "CanonicalizationResult",
    "ClusterReport",
    "ClusterStats",
    "Dataset",
    "EngineBuilder",
    "EngineReport",
    "EngineState",
    "EngineStats",
    "ExecutionProfile",
    "FileStateStore",
    "HashShardRouter",
    "IncrementalRuntime",
    "InferenceRuntime",
    "IngestReport",
    "JOCL",
    "JOCLConfig",
    "JOCLClusterService",
    "JOCLEngine",
    "JOCLOutput",
    "JOCLService",
    "LinkingResult",
    "NYTimes2018Config",
    "PartitionedRuntime",
    "ReVerb45KConfig",
    "ResolveResult",
    "SQLiteStateStore",
    "SerialRuntime",
    "ServingStats",
    "ShardRouter",
    "ShardedEngine",
    "ShardedOKBConfig",
    "StateStore",
    "StreamingIngestConfig",
    "VocabularyAffinityRouter",
    "__version__",
    "generate_nytimes2018",
    "generate_reverb45k",
    "generate_sharded_reverb45k",
    "generate_streaming_ingest",
    "shard_partition",
]
