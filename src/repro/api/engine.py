"""The :class:`JOCLEngine`: a long-lived, service-grade JOCL instance.

Where :class:`repro.core.model.JOCL` is a stateless facade over one
factor-graph build, the engine is the deployment surface: it *owns*
the curated KB, the configuration, the learned template weights and all
cached side information across calls, and exposes

* :meth:`JOCLEngine.ingest` — incremental OKB growth: the typed
  :class:`~repro.okb.store.IngestDelta` drives in-place extension of
  the OKB-derived state (AMIE rules, KBP supervision), targeted
  feature-table invalidation, and — with
  :class:`~repro.runtime.IncrementalRuntime` — re-inference of only
  the dirty factor-graph components, while every CKB-derived resource
  (candidate indexes, anchors, embeddings, paraphrases) stays warm;
* :meth:`JOCLEngine.run_joint` / :meth:`JOCLEngine.canonicalize` /
  :meth:`JOCLEngine.link` — batch inference returning the typed,
  JSON-serializable results of :mod:`repro.api.results`, executed on
  the pluggable :mod:`repro.runtime` selected via
  :meth:`EngineBuilder.with_runtime` (profiled in
  :meth:`JOCLEngine.last_profile`);
* :meth:`JOCLEngine.resolve` — a single-mention serving-time query —
  and :meth:`JOCLEngine.resolve_many`, its request-batched equivalent
  that amortizes decoding and index lookups across the batch;
* :meth:`JOCLEngine.fit` — weight learning from gold annotations;
* :meth:`JOCLEngine.export_weights` — JSON-safe weight snapshots that
  :meth:`EngineBuilder.with_trained_weights` restores in another
  process.

Engines are assembled through the fluent builder::

    engine = (
        JOCLEngine.builder()
        .with_ckb(kb)
        .with_config(JOCLConfig(lbp_iterations=20))
        .with_triples(triples)
        .build()
    )
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.api.errors import (
    CheckpointError,
    EngineBuildError,
    EngineStateError,
    IngestError,
    InvalidRequestError,
    TrainingError,
    UnknownMentionError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (persist is downstream)
    from repro.core.config import FeatureVariant
    from repro.core.signals.base import SignalRegistry
    from repro.factorgraph.learner import LearningHistory
    from repro.persist.store import StateStore
from repro.api.results import (
    CanonicalizationResult,
    EngineReport,
    EngineStats,
    ExecutionProfile,
    LinkingResult,
    ResolveResult,
)
from repro.ckb.anchors import AnchorStatistics
from repro.ckb.candidates import CandidateGenerator
from repro.ckb.kb import CuratedKB
from repro.core.builder import BuildCache
from repro.core.config import JOCLConfig
from repro.core.inference import JOCLOutput
from repro.core.learning import GoldAnnotations
from repro.core.model import JOCL
from repro.core.side_info import SideInformation
from repro.embeddings.base import WordEmbedding
from repro.kbp.categorizer import RelationCategorizer
from repro.okb.normalize import morph_normalize
from repro.okb.store import IngestDelta, OpenKB
from repro.okb.triples import OIETriple
from repro.paraphrase.ppdb import ParaphraseDB
from repro.rules.amie import AmieMiner
from repro.runtime.base import InferenceRuntime
from repro.runtime.serial import SerialRuntime
from repro.strings.tokenize import normalize_text, word_set

#: Friendly aliases accepted wherever a slot kind is expected.  Each
#: maps to the tuple of slots it covers: noun-phrase-flavored aliases
#: span both NP slots, since an NP may occur only as an object.
_KIND_ALIASES = {
    "S": ("S",),
    "P": ("P",),
    "O": ("O",),
    "subject": ("S",),
    "entity": ("S", "O"),
    "np": ("S", "O"),
    "predicate": ("P",),
    "relation": ("P",),
    "rp": ("P",),
    "object": ("O",),
}


def _resolve_kinds(kind: str) -> tuple[str, ...]:
    for key in (kind, kind.upper(), kind.lower()):
        if key in _KIND_ALIASES:
            return _KIND_ALIASES[key]
    raise InvalidRequestError(
        f"unknown slot kind {kind!r}; expected one of "
        f"{sorted(set(_KIND_ALIASES))}"
    )


class EngineBuilder:
    """Fluent assembly of a :class:`JOCLEngine`.

    Every ``with_*`` method returns the builder, so construction chains.
    A CKB is mandatory (via :meth:`with_ckb` or implicitly through
    :meth:`with_side_information`); everything else defaults the way
    :meth:`repro.core.side_info.SideInformation.build` does.
    """

    def __init__(self) -> None:
        self._kb: CuratedKB | None = None
        self._config: JOCLConfig | None = None
        self._triples: list[OIETriple] = []
        self._anchors: AnchorStatistics | None = None
        self._ppdb: ParaphraseDB | None = None
        self._embedding: WordEmbedding | None = None
        self._amie: AmieMiner | None = None
        self._kbp: RelationCategorizer | None = None
        self._registry_factory = None
        self._weights: Mapping[str, Sequence[float] | np.ndarray] | None = None
        self._side: SideInformation | None = None
        self._model: JOCL | None = None
        self._runtime: InferenceRuntime | None = None

    # ------------------------------------------------------------------
    # Core resources
    # ------------------------------------------------------------------
    def with_ckb(self, kb: CuratedKB) -> EngineBuilder:
        """The curated KB the engine links against (required)."""
        self._kb = kb
        return self

    def with_config(self, config: JOCLConfig) -> EngineBuilder:
        """Hyper-parameters; defaults to the paper's constants."""
        self._config = config
        return self

    def with_triples(self, triples: Iterable[OIETriple]) -> EngineBuilder:
        """Seed OIE triples (may be called repeatedly; batches append)."""
        self._triples.extend(triples)
        return self

    def with_signals(
        self,
        registry_factory: Callable[[SideInformation, FeatureVariant], SignalRegistry],
    ) -> EngineBuilder:
        """A ``(side, variant) -> SignalRegistry`` feature-set override."""
        self._registry_factory = registry_factory
        return self

    def with_trained_weights(
        self, weights: Mapping[str, Sequence[float] | np.ndarray]
    ) -> EngineBuilder:
        """Install previously learned template weights.

        Accepts the JSON-safe mapping :meth:`JOCLEngine.export_weights`
        produces (template name -> list of floats) or raw numpy arrays.
        """
        self._weights = weights
        return self

    def with_runtime(self, runtime: InferenceRuntime) -> EngineBuilder:
        """Select how inference executes (see :mod:`repro.runtime`).

        Defaults to :class:`~repro.runtime.SerialRuntime` (whole-graph
        LBP); pass :class:`~repro.runtime.PartitionedRuntime` to exploit
        the factor graph's connected components, or
        :class:`~repro.runtime.IncrementalRuntime` (stateful — one
        engine per instance) to additionally reuse converged components
        across :meth:`JOCLEngine.ingest` cycles.  All shipped runtimes
        share the
        same fixed points; per-component early stopping can shift
        marginals only below the LBP convergence tolerance (see
        :class:`~repro.runtime.PartitionedRuntime`), which the seeded
        equivalence tests pin to identical decisions.
        """
        if not isinstance(runtime, InferenceRuntime):
            raise EngineBuildError(
                f"with_runtime expects an InferenceRuntime, got "
                f"{type(runtime).__name__}"
            )
        self._runtime = runtime
        return self

    # ------------------------------------------------------------------
    # Optional side-information resources
    # ------------------------------------------------------------------
    def with_anchors(self, anchors: AnchorStatistics) -> EngineBuilder:
        """Anchor statistics for the candidate popularity prior."""
        self._anchors = anchors
        return self

    def with_ppdb(self, ppdb: ParaphraseDB) -> EngineBuilder:
        """Paraphrase database consumed by the PPDB signals."""
        self._ppdb = ppdb
        return self

    def with_embedding(self, embedding: WordEmbedding) -> EngineBuilder:
        """Word embedding backing the ``f_emb`` signals."""
        self._embedding = embedding
        return self

    def with_amie(self, amie: AmieMiner) -> EngineBuilder:
        """A pre-mined AMIE rule set (kept verbatim across ingests)."""
        self._amie = amie
        return self

    def with_kbp(self, kbp: RelationCategorizer) -> EngineBuilder:
        """A pre-built KBP categorizer (kept verbatim across ingests)."""
        self._kbp = kbp
        return self

    def with_side_information(self, side: SideInformation) -> EngineBuilder:
        """Adopt a fully assembled side-information bundle.

        Mutually exclusive with the per-resource ``with_*`` methods and
        :meth:`with_triples`: the bundle already fixes the OKB and every
        resource.  Its OKB-derived resources are treated as refreshable
        on ingest.
        """
        self._side = side
        return self

    def with_model(self, model: JOCL) -> EngineBuilder:
        """Adopt an existing core model (back-compat / advanced use).

        The engine will train and infer through *this* instance, so
        weights learned via :meth:`JOCLEngine.fit` become visible on the
        adopted model.  Overrides :meth:`with_config` and
        :meth:`with_signals`.
        """
        self._model = model
        return self

    # ------------------------------------------------------------------
    def build(self) -> JOCLEngine:
        """Validate the configuration and assemble the engine."""
        if self._side is not None:
            conflicts = [
                name
                for name, value in (
                    ("with_ckb", self._kb),
                    ("with_anchors", self._anchors),
                    ("with_ppdb", self._ppdb),
                    ("with_embedding", self._embedding),
                    ("with_amie", self._amie),
                    ("with_kbp", self._kbp),
                )
                if value is not None
            ]
            if self._triples:
                conflicts.append("with_triples")
            if conflicts:
                raise EngineBuildError(
                    "with_side_information fixes every resource; also calling "
                    + ", ".join(conflicts)
                    + " is ambiguous"
                )
        elif self._kb is None:
            raise EngineBuildError(
                "an engine needs a curated KB: call with_ckb(...) or adopt a "
                "bundle via with_side_information(...)"
            )
        config = self._config or JOCLConfig()
        if self._model is not None:
            model = self._model
            config = model.config
        else:
            model = JOCL(config, registry_factory=self._registry_factory)
        if self._weights is not None:
            model.weights = _coerce_weights(self._weights)
        return JOCLEngine(
            kb=self._side.kb if self._side is not None else self._kb,
            config=config,
            model=model,
            triples=self._triples,
            anchors=self._anchors,
            ppdb=self._ppdb,
            embedding=self._embedding,
            amie=self._amie,
            kbp=self._kbp,
            side=self._side,
            runtime=self._runtime,
        )


def _coerce_weights(
    weights: Mapping[str, Sequence[float] | np.ndarray],
) -> dict[str, np.ndarray]:
    if not weights:
        raise EngineBuildError(
            "trained weights mapping is empty; pass the snapshot from "
            "export_weights or omit with_trained_weights entirely"
        )
    coerced: dict[str, np.ndarray] = {}
    for name, values in weights.items():
        array = np.asarray(values, dtype=float)
        if array.ndim != 1 or array.size == 0:
            raise EngineBuildError(
                f"trained weights for template {name!r} must be a non-empty "
                f"1-d vector, got shape {array.shape}"
            )
        coerced[name] = array
    return coerced


class JOCLEngine:
    """A stateful joint canonicalization + linking service.

    Construct through :meth:`JOCLEngine.builder`; see the module
    docstring for the lifecycle.  All inference entry points share one
    cached decoding, so ``canonicalize()`` after ``run_joint()`` (or a
    burst of ``resolve()`` calls) costs a dictionary lookup, not another
    LBP run.
    """

    def __init__(
        self,
        *,
        kb: CuratedKB,
        config: JOCLConfig,
        model: JOCL,
        triples: Iterable[OIETriple] = (),
        anchors: AnchorStatistics | None = None,
        ppdb: ParaphraseDB | None = None,
        embedding: WordEmbedding | None = None,
        amie: AmieMiner | None = None,
        kbp: RelationCategorizer | None = None,
        side: SideInformation | None = None,
        runtime: InferenceRuntime | None = None,
    ) -> None:
        self._kb = kb
        self._config = config
        self._model = model
        self._runtime = runtime or SerialRuntime()
        if side is not None:
            self._okb = side.okb
        else:
            try:
                self._okb = OpenKB(self._validated_batch(triples))
            except (IngestError, ValueError) as error:
                raise EngineBuildError(str(error)) from error
        # CKB-derived resources survive every ingest.  None means "use
        # the defaults of SideInformation.build" — the single source of
        # truth for default resources.
        self._anchors = anchors
        self._embedding = embedding
        self._ppdb = ppdb
        self._candidates: CandidateGenerator | None = (
            side.candidates if side is not None else None
        )
        # OKB-derived resources: extended in place on ingest unless
        # user-pinned (pinned resources are kept verbatim).
        self._custom_amie = amie
        self._custom_kbp = kbp
        self._side = side
        self._output: JOCLOutput | None = None
        self._n_ingests = 0
        # Incremental-ingest bookkeeping.  Triples not yet folded into
        # the side-info bundle's AMIE/KBP state, and the merged typed
        # delta not yet turned into invalidations — both flushed lazily
        # so N ingest batches before the next inference cost one pass.
        self._pending_side_triples: list[OIETriple] = []
        self._pending_delta: IngestDelta | None = None
        # Feature tables memoized across graph rebuilds; sound only for
        # the default signal registry (see BuildCache), whose per-table
        # inputs the delta-to-dirty-phrase mapping covers exactly.
        self._build_cache: BuildCache | None = (
            BuildCache() if model.uses_default_signals else None
        )
        # Morph-normalization memo for the AMIE dirty-key computation.
        self._morph_keys: dict[str, str] = {}
        # Guards every lazy mutation reads can trigger (bundle assembly,
        # delta flushes, the memoized decoding), making concurrent
        # resolve/run_joint calls safe: exactly one thread runs the
        # inference, the rest reuse its decoding.  Reentrant because
        # _decoded -> side_information nests.  Writes (ingest/fit) also
        # take it, but a write concurrent with reads still needs an
        # external session discipline (repro.serving.JOCLService) for
        # coherent before/after semantics.
        self._state_lock = threading.RLock()

    @classmethod
    def builder(cls) -> EngineBuilder:
        """Start a fluent :class:`EngineBuilder` chain."""
        return EngineBuilder()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> JOCLConfig:
        """The engine's immutable hyper-parameter set."""
        return self._config

    @property
    def kb(self) -> CuratedKB:
        """The curated KB the engine links against."""
        return self._kb

    @property
    def okb(self) -> OpenKB:
        """The OKB accumulated so far (build-time triples + ingests)."""
        return self._okb

    @property
    def trained(self) -> bool:
        """Whether learned template weights are active."""
        return self._model.weights is not None

    @property
    def runtime(self) -> InferenceRuntime:
        """The execution runtime inference runs on."""
        return self._runtime

    def last_profile(self) -> ExecutionProfile | None:
        """The :class:`ExecutionProfile` of the most recent inference.

        ``None`` until the first (non-cached) inference ran; invalidated
        together with the decoding cache on :meth:`ingest` / :meth:`fit`.
        """
        # Snapshot the reference once: a concurrent ingest may null the
        # cache between the check and the attribute access (the torn
        # read this method used to race on).
        output = self._output
        return output.profile if output is not None else None

    def stats(self) -> EngineStats:
        """Current OKB size and run provenance."""
        return EngineStats(
            n_triples=len(self._okb),
            n_noun_phrases=len(self._okb.noun_phrases),
            n_relation_phrases=len(self._okb.relation_phrases),
            n_ingests=self._n_ingests,
            trained=self.trained,
        )

    def export_weights(self) -> dict[str, list[float]]:
        """Learned template weights as a JSON-safe mapping.

        Feed the result to :meth:`EngineBuilder.with_trained_weights` to
        reconstruct a trained engine in another process.  Raises
        :class:`EngineStateError` when the engine has never been fitted.
        """
        if self._model.weights is None:
            raise EngineStateError("engine holds no learned weights; call fit first")
        return {
            name: [float(value) for value in weights]
            for name, weights in self._model.weights.items()
        }

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    @staticmethod
    def _validated_batch(triples: Iterable[OIETriple]) -> list[OIETriple]:
        batch = list(triples)
        for triple in batch:
            if not isinstance(triple, OIETriple):
                raise IngestError(
                    f"ingest expects OIETriple instances, got "
                    f"{type(triple).__name__}"
                )
        return batch

    def ingest(self, triples: Iterable[OIETriple]) -> int:
        """Add OIE triples to the engine's OKB incrementally.

        Truly incremental end to end: the OKB indexes grow in place and
        return a typed :class:`~repro.okb.store.IngestDelta`; the
        OKB-derived side information (AMIE rules, KBP distant
        supervision) is *extended* with the batch instead of re-derived
        from the full OKB; the feature-table build cache drops exactly
        the tables whose signal inputs the delta touched; and a
        delta-aware runtime (:class:`repro.runtime.IncrementalRuntime`)
        is told which phrases went dirty so the next inference re-runs
        LBP only on the touched factor-graph components.  Everything
        CKB-derived (candidate indexes, anchors, embeddings, PPDB)
        stays warm.  All of it is decision-identical to rebuilding from
        the union — only the decoding cache is unconditionally dropped.

        The flush is lazy: N ingest batches before the next inference
        cost one invalidation/extension pass, not N.  The batch is
        validated as a whole: on :class:`IngestError` (duplicate triple
        id, non-triple input) no state changes.

        Returns the number of triples added.  Example::

            added = engine.ingest(arrival_batch)
            report = engine.run_joint()   # recomputes only what changed
        """
        batch = self._validated_batch(triples)
        if not batch:
            return 0
        with self._state_lock:
            try:
                delta = self._okb.extend(batch)
            except ValueError as error:
                raise IngestError(str(error)) from error
            self._n_ingests += 1
            self._output = None
            if self._side is not None:
                # A not-yet-built bundle derives from the full OKB anyway.
                self._pending_side_triples.extend(batch)
            self._pending_delta = (
                delta
                if self._pending_delta is None
                else self._pending_delta.merge(delta)
            )
            return len(batch)

    def note_vocabulary_drift(
        self,
        new_noun_phrases: Iterable[str] = (),
        new_relation_phrases: Iterable[str] = (),
    ) -> None:
        """Tell the engine its corpus-global statistics drifted externally.

        A single engine learns about vocabulary growth from its own
        :meth:`ingest` deltas.  In a sharded cluster the IDF tables are
        corpus-*global* (see :meth:`repro.okb.store.OpenKB.adopt_shared_idf`),
        so a phrase entering the cluster at shard B re-weights token
        overlap scores at shard A too — even though shard A ingested
        nothing.  The cluster calls this on every shard after folding
        new vocabulary into the shared tables; the engine folds the
        phrases into its pending delta exactly as if they were its own
        new vocabulary, so the next inference drops the decoding cache,
        invalidates token-sharing feature tables, and (with an
        :class:`~repro.runtime.IncrementalRuntime`) re-runs LBP only on
        the components the drift can actually reach.

        No-op when both iterables are empty.  Example::

            engine.note_vocabulary_drift(
                new_noun_phrases=["acme corp"],
                new_relation_phrases=[],
            )
        """
        delta = IngestDelta(
            new_noun_phrases=tuple(dict.fromkeys(new_noun_phrases)),
            new_relation_phrases=tuple(dict.fromkeys(new_relation_phrases)),
        )
        if not delta.new_noun_phrases and not delta.new_relation_phrases:
            return
        with self._state_lock:
            self._output = None
            self._pending_delta = (
                delta
                if self._pending_delta is None
                else self._pending_delta.merge(delta)
            )

    # ------------------------------------------------------------------
    # Side information / inference plumbing
    # ------------------------------------------------------------------
    def side_information(self) -> SideInformation:
        """The engine's (lazily assembled, cached) side-info bundle."""
        with self._state_lock:
            if self._side is None:
                self._side = SideInformation.build(
                    okb=self._okb,
                    kb=self._kb,
                    anchors=self._anchors,
                    candidates=self._candidates,
                    embedding=self._embedding,
                    ppdb=self._ppdb,
                    amie=self._custom_amie,
                    kbp=self._custom_kbp,
                    max_candidates=self._config.max_candidates,
                )
                # Candidate indexes are CKB-derived: keep them for the
                # engine's lifetime even if the bundle is rebuilt.
                self._candidates = self._side.candidates
                # A fresh bundle already derives from the full OKB.
                self._pending_side_triples.clear()
            elif self._pending_side_triples:
                # Pinned resources are kept verbatim — and skipped
                # entirely, not extended-and-discarded.  Extension is
                # provably equivalent to a rebuild from the union
                # (additive stats).
                self._side.extend_okb_derived(
                    self._pending_side_triples,
                    amie=self._custom_amie is None,
                    kbp=self._custom_kbp is None,
                )
                self._pending_side_triples.clear()
            return self._side

    def _dirty_phrases(self, delta: IngestDelta) -> dict[str, set[str]]:
        """Per-kind phrases whose factor-table inputs the delta changed.

        Covers every OKB-derived input of the default signal set:

        * phrases the batch mentions (their mention lists, AMIE/KBP
          evidence, and pair/link feature rows all may change);
        * IDF drift — phrases sharing a token with a *new* vocabulary
          entry, whose ``f_idf`` scores (and pair admission) may shift
          because the token's corpus frequency grew;
        * AMIE key drift — RPs that morph-normalize onto the same
          mining key as a touched predicate, whose rule evidence grew
          even though their own surface never occurs in the batch.

        Everything else feeding the default signals (CKB, anchors,
        embedding, PPDB, config) is engine-lifetime constant.
        """
        np_dirty = set(delta.touched_noun_phrases)
        rp_dirty = set(delta.touched_relation_phrases)
        new_np_tokens: set[str] = set()
        for phrase in delta.new_noun_phrases:
            new_np_tokens |= word_set(phrase)
        if new_np_tokens:
            for phrase in self._okb.noun_phrases:
                if phrase not in np_dirty and word_set(phrase) & new_np_tokens:
                    np_dirty.add(phrase)
        new_rp_tokens: set[str] = set()
        for phrase in delta.new_relation_phrases:
            new_rp_tokens |= word_set(phrase)
        touched_keys = {
            morph_normalize(phrase) for phrase in delta.touched_relation_phrases
        }
        for phrase in self._okb.relation_phrases:
            if phrase in rp_dirty:
                continue
            if new_rp_tokens and word_set(phrase) & new_rp_tokens:
                rp_dirty.add(phrase)
                continue
            key = self._morph_keys.get(phrase)
            if key is None:
                key = morph_normalize(phrase)
                self._morph_keys[phrase] = key
            if key in touched_keys:
                rp_dirty.add(phrase)
        return {"S": np_dirty, "P": rp_dirty, "O": set(np_dirty)}

    def _flush_delta(self) -> None:
        """Turn accumulated ingest deltas into targeted invalidations."""
        delta = self._pending_delta
        if delta is None:
            return
        self._pending_delta = None
        dirty = self._dirty_phrases(delta)
        if self._build_cache is not None:
            self._build_cache.invalidate(dirty)
        mark_dirty = getattr(self._runtime, "mark_dirty", None)
        if mark_dirty is not None:
            mark_dirty(dirty)

    def _decoded(self) -> JOCLOutput:
        if len(self._okb) == 0:
            raise EngineStateError(
                "the engine's OKB is empty; seed triples at build time or "
                "call ingest before running inference"
            )
        # Fast path without the lock: once computed, the decoding is
        # immutable and shared freely.  The lock closes the double-run
        # race (two concurrent resolves both observing None and both
        # running inference — corrupting stateful runtimes like
        # IncrementalRuntime).
        output = self._output
        if output is not None:
            return output
        with self._state_lock:
            if self._output is None:
                side = self.side_information()
                self._flush_delta()
                try:
                    graph, index, builder = self._model.build_graph(
                        side, cache=self._build_cache
                    )
                except ValueError as error:
                    if self._model.weights:
                        # Typically a weight snapshot whose vectors do
                        # not match this engine's feature set (wrong
                        # variant / signals).
                        message = (
                            f"installed template weights do not fit this "
                            f"engine's factor graph: {error}"
                        )
                    else:
                        message = (
                            f"failed to build the factor graph for this "
                            f"engine's OKB: {error}"
                        )
                    raise EngineStateError(message) from error
                if self._model.weights:
                    unknown = sorted(
                        set(self._model.weights) - set(graph.templates)
                    )
                    if unknown:
                        raise EngineStateError(
                            f"trained weights name unknown templates "
                            f"{unknown}; this graph has "
                            f"{sorted(graph.templates)}"
                        )
                self._output = self._model.infer_built(
                    graph, index, builder, runtime=self._runtime
                )
            return self._output

    # ------------------------------------------------------------------
    # Batch inference
    # ------------------------------------------------------------------
    def run_joint(self) -> EngineReport:
        """Joint canonicalization + linking over the current OKB."""
        output = self._decoded()
        return EngineReport.from_output(output, stats=self.stats())

    def canonicalize(self) -> CanonicalizationResult:
        """Canonicalization groups only (shares the joint decoding)."""
        return self.run_joint().canonicalization

    def link(self) -> LinkingResult:
        """Linking decisions only (shares the joint decoding)."""
        return self.run_joint().linking

    # ------------------------------------------------------------------
    # Serving-time queries
    # ------------------------------------------------------------------
    def _resolve_one(
        self,
        output: JOCLOutput,
        generator: CandidateGenerator,
        mention: str,
        kind: str | None,
    ) -> ResolveResult:
        """Resolve one mention against an already computed decoding."""
        phrase = normalize_text(mention)
        kinds = _resolve_kinds(kind) if kind is not None else ("S", "P", "O")
        found: str | None = None
        for candidate_kind in kinds:
            if phrase in output.clusters.get(candidate_kind, ()):  # Clustering
                found = candidate_kind
                break
        if found is None:
            raise UnknownMentionError(mention, kind)
        cluster = tuple(sorted(output.clusters[found].cluster_of(phrase)))
        if found == "P":
            retrieved = generator.relation_candidates(phrase)
            scored = tuple((c.relation_id, c.score) for c in retrieved)
        else:
            retrieved = generator.entity_candidates(phrase)
            scored = tuple((c.entity_id, c.score) for c in retrieved)
        return ResolveResult(
            mention=phrase,
            kind=found,
            target=output.links[found].get(phrase),
            cluster=cluster,
            candidates=scored,
        )

    def resolve(self, mention: str, kind: str | None = None) -> ResolveResult:
        """Resolve one mention against the current joint decoding.

        ``kind`` may be ``"S"``/``"P"``/``"O"`` or a friendly alias
        (``"subject"``, ``"relation"``, ``"object"``, ...; the
        NP-flavored aliases ``"entity"``/``"np"`` span both the subject
        and object slots); when omitted, the slots are searched in S, P,
        O order.  Raises :class:`UnknownMentionError` when the mention
        does not occur in the OKB (in the requested slots).

        Example::

            answer = engine.resolve("University of Maryland", kind="entity")
            print(answer.target, answer.cluster, answer.candidates)
        """
        return self._resolve_one(
            self._decoded(), self.side_information().candidates, mention, kind
        )

    def resolve_many(
        self, mentions: Iterable[str], kind: str | None = None
    ) -> list[ResolveResult]:
        """Resolve a batch of mentions in one pass.

        Answer-for-answer identical to calling :meth:`resolve` per
        mention, but the joint decoding, the side-information bundle
        and the candidate indexes are looked up once and amortized
        across the whole batch — the serving entry point for
        request-batched traffic.  Raises :class:`UnknownMentionError`
        on the first unknown mention (no partial results escape).
        """
        output = self._decoded()
        generator = self.side_information().candidates
        return [
            self._resolve_one(output, generator, mention, kind)
            for mention in mentions
        ]

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def fit(
        self,
        gold: GoldAnnotations | Iterable[OIETriple],
        side: SideInformation | None = None,
    ) -> LearningHistory:
        """Learn template weights from gold annotations.

        ``gold`` is either phrase-level :class:`GoldAnnotations` or an
        iterable of gold-annotated :class:`OIETriple` (the validation
        split), from which annotations are collected.  ``side``
        optionally supplies a dedicated training OKB (the paper's
        protocol: learn on the validation split, infer on the test
        split); by default the engine trains on its own OKB.

        Learned weights stay on the engine and apply to every subsequent
        inference; the inference cache is invalidated.  Raises
        :class:`TrainingError` when no gold label maps onto the training
        graph.
        """
        if not isinstance(gold, GoldAnnotations):
            gold = GoldAnnotations.from_triples(gold)
        with self._state_lock:
            training_side = side if side is not None else self.side_information()
            try:
                history = self._model.fit(training_side, gold)
            except ValueError as error:
                raise TrainingError(str(error)) from error
            self._output = None
            return history

    # ------------------------------------------------------------------
    # Durability (repro.persist)
    # ------------------------------------------------------------------
    def save(self, store: StateStore) -> str:
        """Checkpoint the engine's full state into ``store``.

        The snapshot covers the OKB, every side-information resource
        (AMIE rule evidence, KBP votes, anchors, IDF statistics, the
        CKB, PPDB and embedding spec), the configuration, learned
        weights, the feature-table build cache and the runtime's state
        — for an :class:`~repro.runtime.IncrementalRuntime`, its cached
        converged components travel too, so the restored engine's first
        inference splices them instead of re-running LBP.  Any ingests
        pending lazy absorption are folded in first; the engine is left
        exactly as if an inference were about to run.

        Returns the snapshot id (pass it to :meth:`load` /
        :meth:`repro.serving.JOCLService.rollback` to pin a version).

        Raises :class:`CheckpointError` when the engine holds state
        without a serialization hook: a custom signal registry, or an
        embedding type without ``to_state``.

        Example::

            store = FileStateStore("checkpoints/")
            snapshot = engine.save(store)   # e.g. "snapshot-000001"
        """
        from repro.persist.state import EngineState, config_to_state

        if not self._model.uses_default_signals:
            raise CheckpointError(
                "engines with a custom signal registry cannot be "
                "checkpointed: the registry closes over arbitrary state "
                "with no serialization hook"
            )
        with self._state_lock:
            side = self.side_information()
            self._flush_delta()
            try:
                side_payload = side.to_state()
            except ValueError as error:
                raise CheckpointError(str(error)) from error
            state = EngineState(
                config=config_to_state(self._config),
                okb=self._okb.to_state(),
                side=side_payload,
                runtime=self._runtime.to_state(),
                weights=(
                    self.export_weights() if self._model.weights else None
                ),
                build_cache=(
                    self._build_cache.to_state()
                    if self._build_cache is not None
                    else None
                ),
                n_ingests=self._n_ingests,
            )
        return store.save_state(state)

    @classmethod
    def load(
        cls,
        store: StateStore,
        snapshot: str | None = None,
        *,
        runtime: InferenceRuntime | None = None,
        embedding: WordEmbedding | None = None,
    ) -> JOCLEngine:
        """Restore an engine from a checkpoint in ``store``.

        The restored engine is decision-identical to the one that called
        :meth:`save` — same OKB, side information, weights and config —
        and *warm*: a restored :class:`~repro.runtime.IncrementalRuntime`
        still holds its converged components, so the first post-restore
        inference splices everything clean and the first
        :meth:`ingest` re-runs LBP only on the components the batch
        dirties.

        ``snapshot`` selects an older snapshot (default: the store's
        current one).  ``runtime`` overrides the serialized runtime —
        required when the checkpoint was saved with a custom runtime
        type this build cannot reconstruct.  ``embedding`` likewise
        overrides the serialized embedding spec.

        Example::

            engine = JOCLEngine.load(store)             # current snapshot
            pinned = JOCLEngine.load(store, "snapshot-000001")
        """
        from repro.persist.state import config_from_state
        from repro.runtime import runtime_from_state

        state = store.load_state(snapshot)
        try:
            config = config_from_state(state.config)
            okb = OpenKB.from_state(state.okb)
            side = SideInformation.from_state(
                state.side, okb=okb, embedding=embedding
            )
            if runtime is None:
                runtime = runtime_from_state(state.runtime)
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointError(
                f"checkpoint payload could not be restored: {error}"
            ) from error
        model = JOCL(config)
        if state.weights is not None:
            model.weights = _coerce_weights(state.weights)
        engine = cls(
            kb=side.kb,
            config=config,
            model=model,
            side=side,
            runtime=runtime,
        )
        engine._n_ingests = state.n_ingests
        if state.build_cache is not None and engine._build_cache is not None:
            try:
                engine._build_cache = BuildCache.from_state(state.build_cache)
            except (KeyError, TypeError, ValueError) as error:
                raise CheckpointError(
                    f"checkpoint build cache could not be restored: {error}"
                ) from error
        return engine
