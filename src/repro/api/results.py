"""Typed request/response dataclasses of the engine API.

Every result the engine returns is a frozen dataclass with a
schema-versioned ``to_dict()`` / ``from_dict()`` pair, so results can
cross a process boundary as plain JSON and be reconstructed losslessly
on the other side:

* :class:`CanonicalizationResult` — the decoded clusterings per slot
  kind (subjects "S", predicates "P", objects "O");
* :class:`LinkingResult` — the decoded phrase -> CKB-identifier maps
  per slot kind (``None`` = NIL);
* :class:`EngineStats` — OKB size and run provenance;
* :class:`ExecutionProfile` — how the inference executed (runtime
  name, components, per-component iterations, wall time, workers);
* :class:`EngineReport` — the full ``run_joint`` response, nesting the
  above (the profile is carried but excluded from the default
  ``to_dict()`` payload: wall times are not deterministic, and the
  report payload is promised to be runtime-independent);
* :class:`ResolveResult` — the single-mention serving-time answer.

``from_dict`` validates the envelope (``schema_version`` and ``type``
discriminator) and raises :class:`repro.api.errors.SchemaVersionError`
/ :class:`repro.api.errors.SchemaError` rather than producing a
half-parsed object.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from repro.api.errors import SchemaError, SchemaVersionError
from repro.clustering.clusters import Clustering
from repro.core.inference import JOCLOutput

#: Version of the wire format produced by every ``to_dict`` below.
#: Bump on any backward-incompatible payload change.
SCHEMA_VERSION = 1


def check_envelope(payload: object, expected_type: str) -> Mapping:
    """Validate the common payload envelope; return the payload mapping.

    Raises :class:`SchemaError` when the payload is not a mapping or is
    of the wrong result type, :class:`SchemaVersionError` when the
    declared schema version is not the one this build writes.
    """
    if not isinstance(payload, Mapping):
        raise SchemaError(
            f"expected a mapping payload, got {type(payload).__name__}"
        )
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(version, SCHEMA_VERSION)
    found_type = payload.get("type")
    if found_type != expected_type:
        raise SchemaError(
            f"payload type {found_type!r} does not match expected "
            f"{expected_type!r}"
        )
    return payload


def _envelope(type_name: str) -> dict:
    return {"schema_version": SCHEMA_VERSION, "type": type_name}


def _clustering_to_lists(clusters: Clustering) -> list[list[str]]:
    """Deterministic JSON shape: sorted list of sorted member lists."""
    return sorted(sorted(group) for group in clusters.groups)


def _require(payload: Mapping, key: str, type_name: str) -> Any:
    try:
        return payload[key]
    except KeyError:
        raise SchemaError(f"{type_name} payload is missing field {key!r}") from None


@contextmanager
def _parsing(type_name: str) -> Iterator[None]:
    """Context manager translating body-parse failures into SchemaError.

    ``from_dict`` promises to raise :class:`SchemaError` rather than a
    half-parsed object; without this, a malformed body (e.g. an item
    repeated across clusters, a scalar where a mapping belongs) would
    leak the underlying ValueError/TypeError/KeyError/AttributeError.
    """
    try:
        yield
    except SchemaError:
        raise
    except (TypeError, ValueError, KeyError, AttributeError) as error:
        raise SchemaError(f"malformed {type_name} payload: {error}") from error


@dataclass(frozen=True)
class CanonicalizationResult:
    """Decoded canonicalization groups for every slot kind."""

    TYPE = "canonicalization_result"

    #: Slot kind ("S" / "P" / "O") -> clustering of its surface forms.
    clusters: dict[str, Clustering]
    #: LBP iterations the decoding was based on.
    iterations: int = 0
    #: Whether LBP message passing converged within the iteration cap.
    converged: bool = False

    # Convenience accessors matching the paper's task names ------------
    @property
    def np_clusters(self) -> Clustering:
        """Subject-NP canonicalization groups (the Table 1 task)."""
        return self.clusters["S"]

    @property
    def rp_clusters(self) -> Clustering:
        """RP canonicalization groups (the Table 2 task)."""
        return self.clusters["P"]

    @property
    def object_clusters(self) -> Clustering:
        """Object-NP canonicalization groups."""
        return self.clusters["O"]

    def to_dict(self) -> dict:
        payload = _envelope(self.TYPE)
        payload["iterations"] = self.iterations
        payload["converged"] = self.converged
        payload["clusters"] = {
            kind: _clustering_to_lists(clusters)
            for kind, clusters in self.clusters.items()
        }
        return payload

    @classmethod
    def from_dict(cls, payload: object) -> CanonicalizationResult:
        payload = check_envelope(payload, cls.TYPE)
        raw = _require(payload, "clusters", cls.TYPE)
        with _parsing(cls.TYPE):
            return cls(
                clusters={kind: Clustering(groups) for kind, groups in raw.items()},
                iterations=int(payload.get("iterations", 0)),
                converged=bool(payload.get("converged", False)),
            )


@dataclass(frozen=True)
class LinkingResult:
    """Decoded phrase -> CKB-identifier maps for every slot kind."""

    TYPE = "linking_result"

    #: Slot kind -> {surface form -> CKB id or None (NIL)}.
    links: dict[str, dict[str, str | None]]
    iterations: int = 0
    converged: bool = False

    # Convenience accessors matching the paper's task names ------------
    @property
    def entity_links(self) -> dict[str, str | None]:
        """Subject NP -> entity id (the Table 3 task)."""
        return self.links["S"]

    @property
    def relation_links(self) -> dict[str, str | None]:
        """RP -> relation id (the Figure 3 task)."""
        return self.links["P"]

    @property
    def object_links(self) -> dict[str, str | None]:
        """Object NP -> entity id."""
        return self.links["O"]

    def to_dict(self) -> dict:
        payload = _envelope(self.TYPE)
        payload["iterations"] = self.iterations
        payload["converged"] = self.converged
        payload["links"] = {
            kind: dict(sorted(mapping.items()))
            for kind, mapping in self.links.items()
        }
        return payload

    @classmethod
    def from_dict(cls, payload: object) -> LinkingResult:
        payload = check_envelope(payload, cls.TYPE)
        raw = _require(payload, "links", cls.TYPE)
        with _parsing(cls.TYPE):
            return cls(
                links={kind: dict(mapping) for kind, mapping in raw.items()},
                iterations=int(payload.get("iterations", 0)),
                converged=bool(payload.get("converged", False)),
            )


@dataclass(frozen=True)
class EngineStats:
    """Size and provenance of one engine inference run."""

    TYPE = "engine_stats"

    n_triples: int = 0
    n_noun_phrases: int = 0
    n_relation_phrases: int = 0
    #: Number of ``ingest`` batches the OKB grew through (0 = all
    #: triples arrived at build time).
    n_ingests: int = 0
    #: Whether learned template weights were active during inference.
    trained: bool = False

    def to_dict(self) -> dict:
        payload = _envelope(self.TYPE)
        payload.update(
            n_triples=self.n_triples,
            n_noun_phrases=self.n_noun_phrases,
            n_relation_phrases=self.n_relation_phrases,
            n_ingests=self.n_ingests,
            trained=self.trained,
        )
        return payload

    @classmethod
    def from_dict(cls, payload: object) -> EngineStats:
        payload = check_envelope(payload, cls.TYPE)
        with _parsing(cls.TYPE):
            return cls(
                n_triples=int(payload.get("n_triples", 0)),
                n_noun_phrases=int(payload.get("n_noun_phrases", 0)),
                n_relation_phrases=int(payload.get("n_relation_phrases", 0)),
                n_ingests=int(payload.get("n_ingests", 0)),
                trained=bool(payload.get("trained", False)),
            )


@dataclass(frozen=True)
class ExecutionProfile:
    """How one inference run executed (the runtime's telemetry).

    Produced by every :class:`repro.runtime.InferenceRuntime`; attached
    to :class:`EngineReport` and available from
    :meth:`repro.api.engine.JOCLEngine.last_profile`.  ``wall_time_s``
    covers plan + execute (graph segmentation and all LBP passes).
    """

    TYPE = "execution_profile"

    #: Runtime identifier ("serial", "partitioned", "incremental", ...).
    runtime: str
    #: Number of independent work units the plan produced.
    n_components: int = 1
    #: Variables per component, in plan (largest-first) order.
    component_sizes: tuple[int, ...] = ()
    #: LBP iterations each component ran, in plan order.
    component_iterations: tuple[int, ...] = ()
    #: Merged iteration count (the slowest component).
    iterations: int = 0
    #: Whether every component converged within the iteration cap.
    converged: bool = False
    #: Wall-clock seconds for plan + execute.
    wall_time_s: float = 0.0
    #: Components spliced from a previous run's converged state without
    #: re-running LBP (always 0 for the stateless runtimes; > 0 is the
    #: observable win of :class:`repro.runtime.IncrementalRuntime`).
    #: Reused entries in ``component_iterations`` report the iteration
    #: count of the run that originally computed them.
    reused_components: int = 0
    #: Components that actually ran LBP in this call
    #: (``reused_components + recomputed_components == n_components``).
    recomputed_components: int = 0

    def to_dict(self) -> dict:
        payload = _envelope(self.TYPE)
        payload.update(
            runtime=self.runtime,
            n_components=self.n_components,
            component_sizes=list(self.component_sizes),
            component_iterations=list(self.component_iterations),
            iterations=self.iterations,
            converged=self.converged,
            wall_time_s=self.wall_time_s,
            reused_components=self.reused_components,
            recomputed_components=self.recomputed_components,
        )
        return payload

    @classmethod
    def from_dict(cls, payload: object) -> ExecutionProfile:
        # 1.x payloads also carry "max_workers" and "backend", which
        # described the removed thread-pool runtime; they are ignored.
        payload = check_envelope(payload, cls.TYPE)
        with _parsing(cls.TYPE):
            return cls(
                runtime=str(_require(payload, "runtime", cls.TYPE)),
                n_components=int(payload.get("n_components", 1)),
                component_sizes=tuple(
                    int(size) for size in payload.get("component_sizes", ())
                ),
                component_iterations=tuple(
                    int(count) for count in payload.get("component_iterations", ())
                ),
                iterations=int(payload.get("iterations", 0)),
                converged=bool(payload.get("converged", False)),
                wall_time_s=float(payload.get("wall_time_s", 0.0)),
                reused_components=int(payload.get("reused_components", 0)),
                # Payloads written before the incremental runtime carry
                # no split; back-fill "everything was recomputed".
                recomputed_components=int(
                    payload.get(
                        "recomputed_components",
                        int(payload.get("n_components", 1))
                        - int(payload.get("reused_components", 0)),
                    )
                ),
            )


@dataclass(frozen=True)
class EngineReport:
    """The full response of :meth:`repro.api.engine.JOCLEngine.run_joint`.

    ``profile`` carries the runtime's :class:`ExecutionProfile`.  It is
    excluded from equality and from the default ``to_dict()`` payload:
    the report body is promised to be identical whichever runtime
    executed the inference, while wall times never are.  Serialize it
    with ``to_dict(include_profile=True)`` when the telemetry should
    travel with the report.
    """

    TYPE = "engine_report"

    canonicalization: CanonicalizationResult
    linking: LinkingResult
    stats: EngineStats = field(default_factory=EngineStats)
    profile: ExecutionProfile | None = field(default=None, compare=False)

    @property
    def iterations(self) -> int:
        return self.canonicalization.iterations

    @property
    def converged(self) -> bool:
        return self.canonicalization.converged

    def as_output(self) -> JOCLOutput:
        """Reconstruct the core :class:`JOCLOutput` for metric code."""
        return JOCLOutput(
            clusters=dict(self.canonicalization.clusters),
            links={kind: dict(links) for kind, links in self.linking.links.items()},
            iterations=self.iterations,
            converged=self.converged,
        )

    @classmethod
    def from_output(
        cls,
        output: JOCLOutput,
        stats: EngineStats | None = None,
        profile: ExecutionProfile | None = None,
    ) -> EngineReport:
        """Wrap a core :class:`JOCLOutput` into the API response shape."""
        return cls(
            canonicalization=CanonicalizationResult(
                clusters=dict(output.clusters),
                iterations=output.iterations,
                converged=output.converged,
            ),
            linking=LinkingResult(
                links={kind: dict(links) for kind, links in output.links.items()},
                iterations=output.iterations,
                converged=output.converged,
            ),
            stats=stats or EngineStats(),
            profile=profile if profile is not None else output.profile,
        )

    def to_dict(self, include_profile: bool = False) -> dict:
        payload = _envelope(self.TYPE)
        payload["canonicalization"] = self.canonicalization.to_dict()
        payload["linking"] = self.linking.to_dict()
        payload["stats"] = self.stats.to_dict()
        if include_profile and self.profile is not None:
            payload["profile"] = self.profile.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: object) -> EngineReport:
        payload = check_envelope(payload, cls.TYPE)
        with _parsing(cls.TYPE):
            raw_profile = payload.get("profile")
            return cls(
                canonicalization=CanonicalizationResult.from_dict(
                    _require(payload, "canonicalization", cls.TYPE)
                ),
                linking=LinkingResult.from_dict(
                    _require(payload, "linking", cls.TYPE)
                ),
                stats=EngineStats.from_dict(_require(payload, "stats", cls.TYPE)),
                profile=(
                    ExecutionProfile.from_dict(raw_profile)
                    if raw_profile is not None
                    else None
                ),
            )


@dataclass(frozen=True)
class ResolveResult:
    """Serving-time answer for one mention.

    ``target`` is the CKB identifier the joint model links the mention
    to (``None`` = NIL), ``cluster`` the co-canonical surface forms
    (always including the mention itself), ``candidates`` the ranked
    ``(ckb_id, retrieval_score)`` list the linking variable chose from.
    """

    TYPE = "resolve_result"

    mention: str
    kind: str
    target: str | None
    cluster: tuple[str, ...]
    candidates: tuple[tuple[str, float], ...] = ()

    def to_dict(self) -> dict:
        payload = _envelope(self.TYPE)
        payload.update(
            mention=self.mention,
            kind=self.kind,
            target=self.target,
            cluster=list(self.cluster),
            candidates=[
                {"id": ckb_id, "score": score} for ckb_id, score in self.candidates
            ],
        )
        return payload

    @classmethod
    def from_dict(cls, payload: object) -> ResolveResult:
        payload = check_envelope(payload, cls.TYPE)
        with _parsing(cls.TYPE):
            return cls(
                mention=_require(payload, "mention", cls.TYPE),
                kind=_require(payload, "kind", cls.TYPE),
                target=payload.get("target"),
                cluster=tuple(_require(payload, "cluster", cls.TYPE)),
                candidates=tuple(
                    (entry["id"], float(entry["score"]))
                    for entry in payload.get("candidates", ())
                ),
            )
