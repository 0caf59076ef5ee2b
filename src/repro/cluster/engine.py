"""The :class:`ShardedEngine`: N engines, one surface, global statistics.

A sharded cluster owns one :class:`repro.api.JOCLEngine` per shard and
re-exposes the engine surface — ``ingest`` / ``run_joint`` /
``canonicalize`` / ``link`` / ``resolve`` / ``resolve_many`` /
``save`` / ``load`` / ``stats`` — with three cluster-only behaviors:

**Routing.**  A pluggable :class:`~repro.cluster.router.ShardRouter`
places every ingested triple on exactly one shard (write path) and
narrows every mention query to the shards that can answer it (read
path, scatter/gather with a documented merge order).

**Shard-parallel execution.**  Per-shard ingest and per-shard joint
inference fan out over the shared executor machinery
(:func:`repro.runtime.pool.scatter`); each shard engine keeps its own
runtime (serial, partitioned, parallel or incremental — supplied by a
*factory*, since stateful runtimes are one-per-engine).

**Corpus-global statistics.**  The paper's ``f_idf`` signal weights
token overlap by corpus-wide word frequencies.  Splitting the OKB
would silently re-weight every similarity, so the cluster maintains
*one* pair of IDF tables spanning all shards
(:meth:`repro.okb.store.OpenKB.adopt_shared_idf`), folds new
vocabulary in exactly once cluster-wide, and broadcasts vocabulary
drift to every shard
(:meth:`repro.api.JOCLEngine.note_vocabulary_drift`) so incremental
runtimes invalidate precisely the components a remote shard's new
vocabulary can reach.  This is what makes a cluster whose router keeps
co-vocabulary evidence co-located (e.g.
:class:`~repro.cluster.router.VocabularyAffinityRouter` on
domain-partitioned streams) produce decisions *identical* to one big
engine over the union — the equivalence
``benchmarks/test_cluster_scaling.py`` gates in CI.

Build one through the fluent builder::

    cluster = (
        ShardedEngine.builder()
        .with_ckb(kb)
        .with_n_shards(4)
        .with_router(VocabularyAffinityRouter())
        .with_shard_triples(per_shard_triples)
        .with_runtime_factory(IncrementalRuntime)
        .build()
    )
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Mapping, Sequence
from contextlib import nullcontext
from time import perf_counter
from typing import TYPE_CHECKING

from repro.api.engine import JOCLEngine, _resolve_kinds
from repro.api.errors import (
    CheckpointError,
    EngineBuildError,
    EngineStateError,
    IngestError,
    SchemaError,
    SchemaVersionError,
    UnknownMentionError,
)
from repro.api.results import (
    CanonicalizationResult,
    EngineReport,
    LinkingResult,
    ResolveResult,
)
from repro.ckb.anchors import AnchorStatistics
from repro.ckb.kb import CuratedKB
from repro.cluster.results import ClusterReport, ClusterStats, IngestReport
from repro.cluster.router import (
    HashShardRouter,
    ShardRouter,
    router_from_state,
)
from repro.clustering.clusters import Clustering
from repro.core.config import JOCLConfig
from repro.embeddings.base import WordEmbedding
from repro.okb.store import OpenKB
from repro.okb.triples import OIETriple
from repro.paraphrase.ppdb import ParaphraseDB
from repro.runtime.base import InferenceRuntime
from repro.runtime.pool import scatter
from repro.strings.idf import IdfStatistics
from repro.strings.tokenize import normalize_text

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.persist.store import StateStore

#: Version of the cluster manifest layout.  Bump on any change a
#: version-1 reader could not forward-fill.
CLUSTER_SCHEMA_VERSION = 1

_MANIFEST_TYPE = "cluster_manifest"

#: Document name the cluster manifest is stored under.
_MANIFEST_DOCUMENT = "cluster"


def _shard_namespace(index: int) -> str:
    return f"shard-{index:02d}"


class ClusterBuilder:
    """Fluent assembly of a :class:`ShardedEngine`.

    Mirrors :class:`repro.api.engine.EngineBuilder` one level up: every
    ``with_*`` returns the builder.  A CKB is mandatory; seed triples
    arrive either as one stream (:meth:`with_triples`, placed by the
    router) or pre-partitioned (:meth:`with_shard_triples`, one list per
    shard — the natural shape for tenant/domain-partitioned corpora).

    Example::

        cluster = (
            ShardedEngine.builder()
            .with_ckb(dataset.kb)
            .with_n_shards(2)
            .with_triples(dataset.test_triples)
            .build()
        )
    """

    def __init__(self) -> None:
        self._kb: CuratedKB | None = None
        self._config: JOCLConfig | None = None
        self._anchors: AnchorStatistics | None = None
        self._ppdb: ParaphraseDB | None = None
        self._embedding: WordEmbedding | None = None
        self._router: ShardRouter | None = None
        self._n_shards: int | None = None
        self._stream: list[OIETriple] = []
        self._shard_triples: list[list[OIETriple]] | None = None
        self._runtime_factory: Callable[[], InferenceRuntime] | None = None
        self._weights: Mapping | None = None
        self._max_workers: int | None = None

    def with_ckb(self, kb: CuratedKB) -> ClusterBuilder:
        """The curated KB every shard links against (required, shared)."""
        self._kb = kb
        return self

    def with_config(self, config: JOCLConfig) -> ClusterBuilder:
        """Hyper-parameters, applied to every shard engine."""
        self._config = config
        return self

    def with_anchors(self, anchors: AnchorStatistics) -> ClusterBuilder:
        """Anchor statistics, shared by every shard."""
        self._anchors = anchors
        return self

    def with_ppdb(self, ppdb: ParaphraseDB) -> ClusterBuilder:
        """Paraphrase database, shared by every shard."""
        self._ppdb = ppdb
        return self

    def with_embedding(self, embedding: WordEmbedding) -> ClusterBuilder:
        """Word embedding, shared by every shard."""
        self._embedding = embedding
        return self

    def with_router(self, router: ShardRouter) -> ClusterBuilder:
        """The placement policy (default: :class:`HashShardRouter`)."""
        if not isinstance(router, ShardRouter):
            raise EngineBuildError(
                f"with_router expects a ShardRouter, got "
                f"{type(router).__name__}"
            )
        self._router = router
        return self

    def with_n_shards(self, n_shards: int) -> ClusterBuilder:
        """How many shards the cluster owns (>= 1)."""
        if n_shards < 1:
            raise EngineBuildError(f"n_shards must be >= 1, got {n_shards}")
        self._n_shards = n_shards
        return self

    def with_triples(self, triples: Iterable[OIETriple]) -> ClusterBuilder:
        """Seed triples as one stream; the router places each one.

        May be called repeatedly; batches append.  Mutually exclusive
        with :meth:`with_shard_triples`.
        """
        self._stream.extend(triples)
        return self

    def with_shard_triples(
        self, shard_triples: Sequence[Iterable[OIETriple]]
    ) -> ClusterBuilder:
        """Seed triples with explicit placement: one iterable per shard.

        Fixes ``n_shards`` to ``len(shard_triples)`` unless
        :meth:`with_n_shards` says the same.  Mutually exclusive with
        :meth:`with_triples`.
        """
        self._shard_triples = [list(batch) for batch in shard_triples]
        return self

    def with_runtime_factory(
        self, runtime_factory: Callable[[], InferenceRuntime]
    ) -> ClusterBuilder:
        """How each shard builds its runtime (a class or zero-arg callable).

        A *factory*, not an instance: stateful runtimes
        (:class:`~repro.runtime.IncrementalRuntime`) are one-per-engine,
        so every shard must get its own.  Example:
        ``.with_runtime_factory(IncrementalRuntime)`` or
        ``.with_runtime_factory(lambda: IncrementalRuntime(warm_start=True))``.
        """
        self._runtime_factory = runtime_factory
        return self

    def with_trained_weights(self, weights: Mapping) -> ClusterBuilder:
        """Install learned template weights on every shard engine."""
        self._weights = weights
        return self

    def with_max_workers(self, max_workers: int) -> ClusterBuilder:
        """Cap the shard fan-out pool (default: one worker per shard)."""
        if max_workers < 1:
            raise EngineBuildError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self._max_workers = max_workers
        return self

    # ------------------------------------------------------------------
    def build(self) -> ShardedEngine:
        """Validate the configuration and assemble the cluster."""
        if self._kb is None:
            raise EngineBuildError(
                "a cluster needs a curated KB: call with_ckb(...)"
            )
        if self._stream and self._shard_triples is not None:
            raise EngineBuildError(
                "with_triples and with_shard_triples are mutually "
                "exclusive: pass one stream for the router to place, or "
                "the explicit per-shard partition, not both"
            )
        router = self._router or HashShardRouter()
        # Triple ids must be unique cluster-wide (the invariant ingest
        # enforces later); per-shard engines can only check their own
        # slice, so a duplicate routed across two shards would otherwise
        # slip through where a single engine rejects it.
        try:
            seeds = JOCLEngine._validated_batch(
                self._stream
                if self._shard_triples is None
                else (t for batch in self._shard_triples for t in batch)
            )
        except IngestError as error:
            raise EngineBuildError(str(error)) from error
        seen_ids: set[str] = set()
        for triple in seeds:
            if triple.triple_id in seen_ids:
                raise EngineBuildError(
                    f"duplicate triple id {triple.triple_id!r}"
                )
            seen_ids.add(triple.triple_id)
        if self._shard_triples is not None:
            n_shards = len(self._shard_triples)
            if self._n_shards is not None and self._n_shards != n_shards:
                raise EngineBuildError(
                    f"with_n_shards({self._n_shards}) conflicts with the "
                    f"{n_shards} lists given to with_shard_triples"
                )
            if n_shards < 1:
                raise EngineBuildError(
                    "with_shard_triples needs at least one shard list"
                )
            placed = self._shard_triples
        else:
            n_shards = self._n_shards if self._n_shards is not None else 4
            # Route the stream against incrementally growing shard OKBs,
            # so affinity routing sees earlier placements.
            routing_okbs = [OpenKB(()) for _ in range(n_shards)]
            placed = [[] for _ in range(n_shards)]
            for triple in self._stream:
                index = router.route_triple(triple, routing_okbs)
                if not 0 <= index < n_shards:
                    raise EngineBuildError(
                        f"router {router.name!r} routed triple "
                        f"{triple.triple_id!r} to shard {index}, outside "
                        f"0..{n_shards - 1}"
                    )
                placed[index].append(triple)
                routing_okbs[index].extend([triple])
        engines = []
        for shard_triples in placed:
            shard = JOCLEngine.builder().with_ckb(self._kb)
            if self._config is not None:
                shard = shard.with_config(self._config)
            if self._anchors is not None:
                shard = shard.with_anchors(self._anchors)
            if self._ppdb is not None:
                shard = shard.with_ppdb(self._ppdb)
            if self._embedding is not None:
                shard = shard.with_embedding(self._embedding)
            if self._weights is not None:
                shard = shard.with_trained_weights(self._weights)
            if self._runtime_factory is not None:
                runtime = self._runtime_factory()
                if not isinstance(runtime, InferenceRuntime):
                    raise EngineBuildError(
                        f"runtime factory returned "
                        f"{type(runtime).__name__}, not an InferenceRuntime"
                    )
                shard = shard.with_runtime(runtime)
            engines.append(shard.with_triples(shard_triples).build())
        return ShardedEngine(
            engines=engines,
            router=router,
            max_workers=self._max_workers,
        )


class _RoutingView:
    """A shard's OKB plus the triples already routed to it this batch.

    Routing a batch must see its own earlier placements (exactly like
    the builder's stream routing) — otherwise a batched ingest of a
    brand-new domain would scatter across shards on the affinity
    router's cold tie-break instead of co-locating, and placement would
    depend on how the stream happens to be chopped into batches.
    Exposes the OKB query surface routers use.
    """

    __slots__ = ("_base", "_overlay")

    def __init__(self, base: OpenKB) -> None:
        self._base = base
        self._overlay = OpenKB(())

    def add(self, triple: OIETriple) -> None:
        self._overlay.extend([triple])

    def np_frequency(self, phrase: str) -> int:
        return self._base.np_frequency(phrase) + self._overlay.np_frequency(
            phrase
        )

    def rp_frequency(self, phrase: str) -> int:
        return self._base.rp_frequency(phrase) + self._overlay.rp_frequency(
            phrase
        )

    def np_mentions(self, phrase: str):
        return self._base.np_mentions(phrase) + self._overlay.np_mentions(
            phrase
        )

    def rp_mentions(self, phrase: str):
        return self._base.rp_mentions(phrase) + self._overlay.rp_mentions(
            phrase
        )


def _empty_report(shard) -> EngineReport:
    """The report of a shard whose OKB holds no triples yet.

    Vacuously converged, so one cold shard does not mark the whole
    cluster report unconverged.  ``shard`` is any view exposing
    ``stats()`` (an engine, or a session proxy).
    """
    kinds = ("S", "P", "O")
    return EngineReport(
        canonicalization=CanonicalizationResult(
            clusters={kind: Clustering(()) for kind in kinds}, converged=True
        ),
        linking=LinkingResult(
            links={kind: {} for kind in kinds}, converged=True
        ),
        stats=shard.stats(),
    )


def _merge_rank(result: ResolveResult, shard_index: int):
    """Sort key of the documented scatter/gather total order."""
    top_score = result.candidates[0][1] if result.candidates else float("-inf")
    return (
        0 if result.target is not None else 1,
        -top_score,
        -len(result.cluster),
        shard_index,
    )


class ShardedEngine:
    """A horizontally sharded JOCL cluster behind the engine surface.

    Construct through :meth:`ShardedEngine.builder` (or restore through
    :meth:`ShardedEngine.load`); see the module docstring for the
    design.  Like :class:`~repro.api.JOCLEngine`, a bare cluster is safe
    for concurrent *reads* but needs a session layer
    (:class:`repro.serving.JOCLClusterService`) for coherent
    reads-during-writes semantics.

    Example::

        cluster = (
            ShardedEngine.builder()
            .with_ckb(dataset.kb)
            .with_n_shards(4)
            .with_triples(dataset.test_triples)
            .build()
        )
        report = cluster.run_joint()         # shard-parallel, merged
        answer = cluster.resolve("umd")      # scatter/gather
        cluster.ingest(arrival_batch)        # routed, shard-parallel
    """

    def __init__(
        self,
        engines: Sequence[JOCLEngine],
        router: ShardRouter,
        max_workers: int | None = None,
        _n_ingests: int = 0,
    ) -> None:
        if not engines:
            raise EngineBuildError("a cluster needs at least one shard")
        self._engines = list(engines)
        self._router = router
        self._max_workers = max_workers
        self._n_ingests = _n_ingests
        # Serializes cluster-level ingests with each other: routing, the
        # shared-IDF fold and the drift broadcast mutate cluster-global
        # state.  Per-shard readers are unaffected (they take no cluster
        # lock); the per-shard session locks of JOCLClusterService keep
        # reads coherent against the per-shard writes underneath.
        self._ingest_lock = threading.Lock()
        # Cluster-global IDF: one table pair spanning every shard, with
        # each distinct surface form counted exactly once cluster-wide —
        # precisely what a single merged OpenKB would hold.
        self._np_idf = IdfStatistics()
        self._rp_idf = IdfStatistics()
        self._np_vocab: set[str] = set()
        self._rp_vocab: set[str] = set()
        for engine in self._engines:
            okb = engine.okb
            new_nps = [
                phrase
                for phrase in okb.noun_phrases
                if phrase not in self._np_vocab
            ]
            new_rps = [
                phrase
                for phrase in okb.relation_phrases
                if phrase not in self._rp_vocab
            ]
            self._np_idf.update(new_nps)
            self._rp_idf.update(new_rps)
            self._np_vocab.update(new_nps)
            self._rp_vocab.update(new_rps)
            okb.adopt_shared_idf(self._np_idf, self._rp_idf)

    @classmethod
    def builder(cls) -> ClusterBuilder:
        """Start a fluent :class:`ClusterBuilder` chain."""
        return ClusterBuilder()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """How many shards the cluster owns."""
        return len(self._engines)

    @property
    def shards(self) -> tuple[JOCLEngine, ...]:
        """The shard engines, in shard order (read-only view)."""
        return tuple(self._engines)

    @property
    def router(self) -> ShardRouter:
        """The placement policy routing triples and mention queries."""
        return self._router

    @property
    def n_ingests(self) -> int:
        """Cluster-level ingest batches absorbed so far."""
        return self._n_ingests

    def stats(self) -> ClusterStats:
        """Per-shard engine stats plus cluster totals.

        Example::

            stats = cluster.stats()
            assert stats.n_triples == sum(
                s.n_triples for s in stats.per_shard
            )
        """
        return ClusterStats(
            router=self._router.name,
            per_shard=tuple(engine.stats() for engine in self._engines),
            n_ingests=self._n_ingests,
        )

    def last_profiles(self):
        """Per-shard :class:`~repro.api.results.ExecutionProfile` of the
        most recent inference (``None`` entries for shards that have not
        inferred yet), in shard order."""
        return [engine.last_profile() for engine in self._engines]

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, triples: Iterable[OIETriple]) -> IngestReport:
        """Route a batch across the shards and ingest shard-parallel.

        Each triple is placed on exactly one shard by the router; the
        per-shard batches then run the engines' incremental
        :meth:`~repro.api.JOCLEngine.ingest` concurrently on the shared
        executor pool.  Before any shard ingests, vocabulary that is new
        *cluster-wide* is folded once into the global IDF tables and
        broadcast to every shard as drift
        (:meth:`~repro.api.JOCLEngine.note_vocabulary_drift`), so shards
        that received no triples still invalidate exactly the components
        the re-weighted token statistics can reach.

        The batch is validated as a whole (triple ids must be new to the
        *cluster*, not just to their target shard); on
        :class:`~repro.api.errors.IngestError` no shard changes.
        Returns the routed :class:`~repro.cluster.results.IngestReport`.

        Example::

            report = cluster.ingest(batch)
            print(report.per_shard)   # e.g. (0, 12, 0, 3)
        """
        return self.ingest_with(self._engines, triples)

    def ingest_with(
        self,
        shards: Sequence,
        triples: Iterable[OIETriple],
        exclusive_all: Callable | None = None,
    ) -> IngestReport:
        """:meth:`ingest` through caller-supplied shard views.

        ``shards`` must expose ``okb``, ``ingest(batch)`` and
        ``note_vocabulary_drift(new_nps, new_rps)`` for each shard, in
        shard order — normally the engines themselves; a session layer
        (:class:`repro.serving.JOCLClusterService`) passes proxies that
        wrap each ingest in that shard's writer lock (plus an
        ``ingest_exclusive(batch)`` hook bypassing the lock for the
        already-excluded vocabulary-drift path), so cluster-level
        routing and IDF bookkeeping stay here in one place.
        ``exclusive_all``, when given, is a zero-arg context
        manager factory excluding *every* shard's readers and writers;
        the shared-IDF fold and the drift broadcast run inside it, so
        no concurrent decode can observe the corpus-global tables
        mid-update (the session layer supplies its all-shards writer
        lock; the bare engine runs without one, matching its
        reads-only concurrency contract).
        """
        with self._ingest_lock:
            return self._ingest_locked(shards, triples, exclusive_all)

    def _ingest_locked(
        self,
        shards: Sequence,
        triples: Iterable[OIETriple],
        exclusive_all: Callable | None,
    ) -> IngestReport:
        start = perf_counter()
        batch = JOCLEngine._validated_batch(triples)
        okbs = [shard.okb for shard in shards]
        seen: set[str] = set()
        for triple in batch:
            if triple.triple_id in seen:
                raise IngestError(f"duplicate triple id {triple.triple_id!r}")
            seen.add(triple.triple_id)
            for okb in okbs:
                if okb.has_triple(triple.triple_id):
                    raise IngestError(
                        f"duplicate triple id {triple.triple_id!r}"
                    )
        per_shard: list[list[OIETriple]] = [[] for _ in shards]
        # Route against views that include the batch's own earlier
        # placements, matching the builder's stream routing.
        routing_views = [_RoutingView(okb) for okb in okbs]
        for triple in batch:
            index = self._router.route_triple(triple, routing_views)
            if not 0 <= index < len(shards):
                raise IngestError(
                    f"router {self._router.name!r} routed triple "
                    f"{triple.triple_id!r} to shard {index}, outside "
                    f"0..{len(shards) - 1}"
                )
            per_shard[index].append(triple)
            routing_views[index].add(triple)
        # Cluster-new vocabulary (computed against the vocab sets, which
        # only this _ingest_lock-holding thread mutates).
        new_nps: list[str] = []
        new_rps: list[str] = []
        seen_nps: set[str] = set()
        seen_rps: set[str] = set()
        for triple in batch:
            for phrase in (triple.subject_norm, triple.object_norm):
                if phrase not in self._np_vocab and phrase not in seen_nps:
                    seen_nps.add(phrase)
                    new_nps.append(phrase)
            predicate = triple.predicate_norm
            if predicate not in self._rp_vocab and predicate not in seen_rps:
                seen_rps.add(predicate)
                new_rps.append(predicate)
        if new_nps or new_rps:
            # New vocabulary re-weights the corpus-global IDF tables,
            # which every shard's decode reads lock-free — so the fold,
            # the drift broadcast AND the per-shard ingests must appear
            # atomically: a reader must never observe post-batch word
            # weights against a pre-batch OKB (an answer matching no
            # serial schedule).  The whole step runs with every shard
            # quiescent; per-shard ingests go through the views' raw
            # ``ingest_exclusive`` path because the caller already
            # holds each shard's writer lock.
            guard = (
                exclusive_all() if exclusive_all is not None else nullcontext()
            )
            with guard:
                self._np_vocab.update(new_nps)
                self._rp_vocab.update(new_rps)
                self._np_idf.update(new_nps)
                self._rp_idf.update(new_rps)
                # Through the shard views, so a session layer's swapped
                # (rolled-back) engines still receive the drift.
                for shard in shards:
                    shard.note_vocabulary_drift(new_nps, new_rps)
                self._scatter_ingests(shards, per_shard, locked=True)
        else:
            # No shared-statistics drift: per-shard ingests are
            # independent, every interleaving with readers is
            # per-shard serializable, so only the shards' own writer
            # locks (inside the views) are needed.
            self._scatter_ingests(shards, per_shard, locked=False)
        self._n_ingests += 1
        return IngestReport(
            router=self._router.name,
            per_shard=tuple(len(shard_batch) for shard_batch in per_shard),
            wall_time_s=perf_counter() - start,
        )

    def _scatter_ingests(
        self, shards: Sequence, per_shard: Sequence, locked: bool
    ) -> None:
        """Fan the non-empty per-shard batches out on the pool.

        ``locked=True`` means the caller already excluded every shard
        (the vocabulary-drift path), so the views' ``ingest_exclusive``
        hook — engine-level ingest without re-taking the session lock —
        is used where available; plain engines expose only ``ingest``,
        which is the same thing for them.
        """
        tasks = []
        for shard, shard_batch in zip(shards, per_shard, strict=True):
            if not shard_batch:
                continue
            ingest = (
                getattr(shard, "ingest_exclusive", shard.ingest)
                if locked
                else shard.ingest
            )
            tasks.append(
                lambda ingest=ingest, shard_batch=shard_batch: ingest(
                    shard_batch
                )
            )
        # The ingest lock is *deliberately* held across this fan-out:
        # it serializes whole cluster ingests, and the shard tasks only
        # take per-shard locks, which no pooled task re-enters.
        # repro: disable=SAN03 -- ingest lock ordering documented above
        scatter(tasks, max_workers=self._max_workers)

    # ------------------------------------------------------------------
    # Batch inference
    # ------------------------------------------------------------------
    def run_joint(self) -> ClusterReport:
        """Joint canonicalization + linking, shard-parallel.

        Every non-empty shard runs its engine's
        :meth:`~repro.api.JOCLEngine.run_joint` concurrently on the
        executor pool (each reusing its own cached decoding when it is
        still valid); empty shards contribute empty reports.  The
        per-shard reports concatenate under a
        :class:`~repro.cluster.results.ClusterReport` whose merged views
        follow the documented shard-order merge.

        Raises :class:`~repro.api.errors.EngineStateError` when *every*
        shard is empty.

        Example::

            report = cluster.run_joint()
            print(report.canonicalization.np_clusters)
        """
        return self.run_joint_with(self._engines, stats=self.stats())

    def run_joint_with(
        self, shards: Sequence, stats: ClusterStats
    ) -> ClusterReport:
        """:meth:`run_joint` through caller-supplied shard views.

        ``shards`` must expose ``okb``, ``run_joint()`` and ``stats()``
        in shard order — the engines themselves, or session proxies
        wrapping each call in that shard's read lock
        (:class:`repro.serving.JOCLClusterService`).  Keeps the
        empty-shard handling and the fan-out cap in one place for both
        callers.
        """
        if all(len(shard.okb) == 0 for shard in shards):
            raise EngineStateError(
                "every shard's OKB is empty; seed triples at build time "
                "or call ingest before running inference"
            )
        reports = scatter(
            [
                (
                    lambda shard=shard: shard.run_joint()
                    if len(shard.okb)
                    else _empty_report(shard)
                )
                for shard in shards
            ],
            max_workers=self._max_workers,
        )
        return ClusterReport.from_shards(tuple(reports), stats=stats)

    def canonicalize(self) -> CanonicalizationResult:
        """Cluster-wide canonicalization groups (shares the decodings)."""
        return self.run_joint().canonicalization

    def link(self) -> LinkingResult:
        """Cluster-wide linking decisions (shares the decodings)."""
        return self.run_joint().linking

    # ------------------------------------------------------------------
    # Serving-time queries
    # ------------------------------------------------------------------
    def resolve(self, mention: str, kind: str | None = None) -> ResolveResult:
        """Scatter/gather :meth:`~repro.api.JOCLEngine.resolve`.

        The router narrows the fan-out to the shards that actually
        mention the phrase (usually one); each candidate shard resolves
        against its own decoding and the answers merge under the
        documented total order — linked (non-NIL) answers beat NIL, then
        higher top retrieval score, then larger canonical cluster, then
        lower shard index.  Raises
        :class:`~repro.api.errors.UnknownMentionError` when no shard
        knows the mention.

        Example::

            answer = cluster.resolve("university of maryland")
            print(answer.target, answer.cluster)
        """
        merged = self.resolve_many([mention], kind)
        return merged[0]

    def resolve_many(
        self, mentions: Iterable[str], kind: str | None = None
    ) -> list[ResolveResult]:
        """Batched scatter/gather resolve (one sub-batch per shard).

        Answer-for-answer identical to calling :meth:`resolve` per
        mention, but each shard is visited once with all the mentions
        routed to it, amortizing the per-shard decoding and index
        lookups.  Like the engine's
        :meth:`~repro.api.JOCLEngine.resolve_many`, unknown mentions
        fail the whole batch (no partial results escape).

        Example::

            answers = cluster.resolve_many(["umd", "college park"])
        """
        return self.resolve_many_with(self._engines, mentions, kind)

    def resolve_many_with(
        self,
        shards: Sequence,
        mentions: Iterable[str],
        kind: str | None = None,
    ) -> list[ResolveResult]:
        """:meth:`resolve_many` through caller-supplied shard views.

        ``shards`` must expose ``okb`` and ``resolve_many(mentions,
        kind)`` in shard order — the engines themselves, or session
        proxies serving each sub-batch under that shard's read lock.
        Keeps the routing, per-shard batching and the documented merge
        order in one place for both callers.
        """
        mentions = list(mentions)
        requests = [normalize_text(mention) for mention in mentions]
        kinds = _resolve_kinds(kind) if kind is not None else ("S", "P", "O")
        okbs = [shard.okb for shard in shards]
        candidate_lists: list[tuple[int, ...]] = []
        for raw, phrase in zip(mentions, requests, strict=True):
            candidates = self._router.candidate_shards(phrase, kinds, okbs)
            if not candidates:
                raise UnknownMentionError(raw, kind)
            candidate_lists.append(candidates)
        # One sub-batch per shard, preserving request order within it.
        per_shard: dict[int, list[int]] = {}
        for position, candidates in enumerate(candidate_lists):
            for shard_index in candidates:
                per_shard.setdefault(shard_index, []).append(position)
        shard_indices = sorted(per_shard)
        answer_sets = scatter(
            [
                (
                    lambda shard_index=shard_index: shards[
                        shard_index
                    ].resolve_many(
                        [requests[p] for p in per_shard[shard_index]], kind
                    )
                )
                for shard_index in shard_indices
            ],
            max_workers=self._max_workers,
        )
        by_position: dict[int, list[tuple[int, ResolveResult]]] = {}
        for shard_index, answers in zip(shard_indices, answer_sets, strict=True):
            for position, answer in zip(per_shard[shard_index], answers, strict=True):
                by_position.setdefault(position, []).append(
                    (shard_index, answer)
                )
        merged: list[ResolveResult] = []
        for position in range(len(requests)):
            ranked = sorted(
                by_position[position],
                key=lambda entry: _merge_rank(entry[1], entry[0]),
            )
            merged.append(ranked[0][1])
        return merged

    # ------------------------------------------------------------------
    # Durability (repro.persist)
    # ------------------------------------------------------------------
    def save(self, store: StateStore) -> dict:
        """Checkpoint the whole cluster into ``store``.

        Each shard engine saves a full
        :class:`~repro.persist.EngineState` snapshot into its own
        namespace (``shard-00``, ``shard-01``, ...), then a cluster
        manifest — topology, router configuration, per-shard snapshot
        ids, schema version — is committed as the store document
        ``"cluster"`` *last*, so a crash mid-save leaves the previous
        manifest pointing at the previous consistent set (shard
        namespaces never inherit the store's ``history`` cap, so no
        referenced snapshot can be pruned out from under the manifest).
        Only after the commit are shard snapshots no manifest can reach
        anymore garbage-collected, best-effort.  Returns the manifest
        payload (JSON-safe).

        Example::

            manifest = cluster.save(store)
            print(manifest["shards"])   # namespace + snapshot id per shard
        """
        entries = []
        for index, engine in enumerate(self._engines):
            namespace = _shard_namespace(index)
            snapshot = engine.save(store.namespace(namespace))
            entries.append({"namespace": namespace, "snapshot": snapshot})
        manifest = {
            "schema_version": CLUSTER_SCHEMA_VERSION,
            "type": _MANIFEST_TYPE,
            "n_shards": len(self._engines),
            "router": self._router.to_state(),
            "shards": entries,
            "n_ingests": self._n_ingests,
        }
        store.save_document(_MANIFEST_DOCUMENT, manifest)
        # GC: snapshot names order lexicographically by sequence, so
        # everything older than the just-committed reference is
        # unreachable by any manifest.  A crash anywhere in here only
        # leaves extra snapshots behind, never a dangling manifest.
        for entry in entries:
            shard_store = store.namespace(entry["namespace"])
            for old in shard_store.snapshots():
                if old >= entry["snapshot"]:
                    break
                try:
                    shard_store.drop_snapshot(old)
                except CheckpointError:
                    break  # store without GC support: retain everything
        return manifest

    @classmethod
    def load(
        cls,
        store: StateStore,
        *,
        router: ShardRouter | None = None,
        runtime_factory: Callable[[], InferenceRuntime] | None = None,
        embedding: WordEmbedding | None = None,
        max_workers: int | None = None,
    ) -> ShardedEngine:
        """Restore a cluster from the manifest committed by :meth:`save`.

        Every shard engine restores decision-identical and *warm* (see
        :meth:`repro.api.JOCLEngine.load`), the corpus-global IDF tables
        are rebuilt from the union of the restored shard vocabularies
        (bit-identical to the tables the saving cluster held), and the
        router is reconstructed from its manifest configuration —
        ``router`` / ``runtime_factory`` / ``embedding`` override the
        serialized specs for deployments using custom types.

        Example::

            cluster = ShardedEngine.load(store)
            report = cluster.run_joint()   # splices, no cold LBP
        """
        manifest = store.load_document(_MANIFEST_DOCUMENT)
        if not isinstance(manifest, Mapping):
            raise SchemaError(
                f"cluster manifest must be a mapping, got "
                f"{type(manifest).__name__}"
            )
        version = manifest.get("schema_version")
        if version != CLUSTER_SCHEMA_VERSION:
            raise SchemaVersionError(version, CLUSTER_SCHEMA_VERSION)
        if manifest.get("type") != _MANIFEST_TYPE:
            raise SchemaError(
                f"cluster manifest type {manifest.get('type')!r} does not "
                f"match expected {_MANIFEST_TYPE!r}"
            )
        entries = manifest.get("shards")
        if not isinstance(entries, list) or not entries:
            raise SchemaError(
                "cluster manifest is missing its shard list"
            )
        if router is None:
            try:
                router = router_from_state(manifest.get("router") or {})
            except ValueError as error:
                raise CheckpointError(
                    f"cluster router could not be restored: {error} "
                    f"(pass an explicit router= override)"
                ) from error
        engines = []
        for entry in entries:
            try:
                namespace = entry["namespace"]
                snapshot = entry["snapshot"]
            except (KeyError, TypeError) as error:
                raise SchemaError(
                    f"malformed cluster manifest shard entry {entry!r}: "
                    f"{error}"
                ) from error
            engines.append(
                JOCLEngine.load(
                    store.namespace(namespace),
                    snapshot,
                    runtime=(
                        runtime_factory() if runtime_factory is not None else None
                    ),
                    embedding=embedding,
                )
            )
        return cls(
            engines=engines,
            router=router,
            max_workers=max_workers,
            _n_ingests=int(manifest.get("n_ingests", 0)),
        )
