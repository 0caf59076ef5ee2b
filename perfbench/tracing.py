"""Per-layer tracing of the library, installed from the outside.

The traced run wraps the library's layer entry points where they are
*referenced*: methods on the class that defines them, module-level
functions in every module that imported them with ``from ... import``
(the name is bound at the call site, so patching the defining module
alone would miss those calls).  Nothing in ``src/`` knows about the
tracer; :meth:`Tracer.uninstall` puts every patched attribute back, so
the untraced run executes the library's own objects.

Each span records its name, start, end, parent span and the op it ran
in.  Spans are kept in memory and written out by :meth:`Tracer.dump`
when the run ends; :func:`layer_metrics` folds them into the per-layer
metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import weakref
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from pathlib import Path


class Span:
    """One timed call: ``[start, end)`` in ``perf_counter`` seconds."""

    __slots__ = ("name", "op", "parent", "start", "end")

    def __init__(
        self,
        name: str,
        op: object,
        parent: Span | None,
        start: float = 0.0,
        end: float = 0.0,
    ) -> None:
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = end

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def children_of(spans: Iterable[Span]) -> dict[int, list[Span]]:
    """Direct children of every span, keyed by the parent's ``id``."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    return children


def self_time(span: Span, children: dict[int, list[Span]]) -> float:
    """The span's duration minus the part its direct children cover."""
    covered = union_length(
        (max(child.start, span.start), min(child.end, span.end))
        for child in children.get(id(span), ())
        if child.end > span.start and child.start < span.end
    )
    return span.duration - covered


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        #: Identifier of the op in progress; the harness sets it.
        self.op: object = None
        self._local = threading.local()
        # Shard and server threads count concurrently; ``+=`` on a
        # Counter is not atomic.
        self._count_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._seen: dict[str, weakref.WeakKeyDictionary] = defaultdict(
            weakref.WeakKeyDictionary
        )

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` body as a span of the current thread."""
        stack = self._stack()
        span = Span(name, self.op, stack[-1] if stack else None)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def traced(
        self,
        name: str,
        function: Callable,
        after: Callable[[Tracer, tuple, object], None] | None = None,
    ) -> Callable:
        """``function`` wrapped in a span; ``after(tracer, args, result)``
        records counts from a call's arguments and result."""
        tracer = self
        clock = time.perf_counter

        # Inlines span() rather than entering it: string similarity
        # calls run thousands of times per op.
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, tracer.op, stack[-1] if stack else None)
            tracer.spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def count(self, name: str, amount: int = 1) -> None:
        with self._count_lock:
            self.counts[name] += amount

    def first_seen(self, family: str, owner: object, key: object) -> bool:
        """Whether ``key`` is new for ``owner`` (per-object distinct count)."""
        with self._count_lock:
            seen = self._seen[family].setdefault(owner, set())
            if key in seen:
                return False
            seen.add(key)
            return True

    # -- patching ------------------------------------------------------
    def patch(self, owner: object, attribute: str, wrap: Callable) -> None:
        """Replace ``owner.attribute`` with ``wrap(original)``.

        ``owner`` must define the attribute itself (a class that
        inherits it would shadow, not replace, the definition).
        Static and class methods keep their descriptor type.
        """
        raw = vars(owner).get(attribute)
        if raw is None:
            raise AttributeError(
                f"{getattr(owner, '__name__', owner)!r} does not define "
                f"{attribute!r}"
            )
        if isinstance(raw, (staticmethod, classmethod)):
            replacement = type(raw)(wrap(raw.__func__))
        else:
            replacement = wrap(raw)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        after: Callable[[Tracer, tuple, object], None] | None = None,
    ) -> None:
        """Patch ``owner.attribute`` with a span named ``name``."""
        self.patch(
            owner, attribute, lambda original: self.traced(name, original, after)
        )

    def uninstall(self) -> None:
        """Restore every patched attribute, latest patch first."""
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    def __enter__(self) -> Tracer:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- output --------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (parent by line index)."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        [
                            span.name,
                            span.op,
                            None if span.parent is None else index[id(span.parent)],
                            round(span.start, 9),
                            round(span.end, 9),
                        ]
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# What the traced run instruments
# ---------------------------------------------------------------------------
def _count(name: str) -> Callable[[Tracer, tuple, object], None]:
    def after(tracer: Tracer, args: tuple, result: object) -> None:
        tracer.count(name)

    return after


def _candidates(kind: str) -> Callable[[Tracer, tuple, object], None]:
    def after(tracer: Tracer, args: tuple, result: object) -> None:
        tracer.count("candidates.calls")
        if tracer.first_seen("candidates", args[0], (kind, args[1])):
            tracer.count("candidates.computed")

    return after


def _phrase_vector(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.count("embeddings.phrase_vector_calls")
    if tracer.first_seen("embeddings", args[0], args[1]):
        tracer.count("embeddings.phrase_vector_distinct")


def _graph_built(tracer: Tracer, args: tuple, result) -> None:
    graph = result[0]
    tracer.count("graph.variables", len(graph.variables))
    tracer.count("graph.factors", len(graph.factors))


def _partitioned(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("partition.components", len(result))


def _runtime_ran(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("runtime.components_recomputed", result.profile.recomputed_components)
    tracer.count("runtime.components_reused", result.profile.reused_components)


def _lbp_ran(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("lbp.iterations", result.iterations)


def install(tracer: Tracer) -> Tracer:
    """Patch every layer entry point the per-layer metrics read."""
    from repro.api.engine import JOCLEngine
    from repro.ckb import candidates as ckb_candidates
    from repro.ckb.candidates import CandidateGenerator
    from repro.cluster.engine import ShardedEngine
    from repro.cluster.router import VocabularyAffinityRouter
    from repro.core import model as core_model
    from repro.core.builder import BuildCache, GraphBuilder
    from repro.core.side_info import SideInformation
    from repro.core.signals import relation_linking
    from repro.embeddings.base import WordEmbedding
    from repro.factorgraph.lbp import LoopyBP
    from repro.http.app import ServingApp
    from repro.okb.store import OpenKB
    from repro.runtime import partitioned
    from repro.runtime.base import InferenceRuntime
    from repro.serving.service import JOCLService

    # ckb.candidates, and the string similarity at its two call sites.
    tracer.wrap(CandidateGenerator, "entity_candidates", "candidates", _candidates("E"))
    tracer.wrap(CandidateGenerator, "relation_candidates", "candidates", _candidates("R"))
    for module in (ckb_candidates, relation_linking):
        tracer.wrap(
            module,
            "normalized_levenshtein_similarity",
            "similarity",
            _count("similarity.levenshtein_calls"),
        )
        tracer.wrap(module, "ngram_jaccard", "similarity", _count("similarity.ngram_calls"))
    tracer.wrap(WordEmbedding, "phrase_vector", "embeddings", _phrase_vector)

    # core.builder: the whole build, and the feature tables inside it.
    tracer.wrap(GraphBuilder, "build", "builder.build", _graph_built)

    def cached_tables(original):
        def get_or_compute(cache, key, compute):
            tracer.count("builder.cache_lookups")

            def timed_compute():
                tracer.count("builder.cache_misses")
                with tracer.span("builder.feature_table"):
                    return compute()

            return original(cache, key, timed_compute)

        return functools.wraps(original)(get_or_compute)

    tracer.patch(BuildCache, "get_or_compute", cached_tables)

    # factorgraph.partition (referenced by the partitioned runtimes),
    # the runtime template method, LBP and decoding.
    tracer.wrap(partitioned, "partition_graph", "partition", _partitioned)
    tracer.wrap(InferenceRuntime, "run", "runtime.run", _runtime_ran)
    tracer.wrap(LoopyBP, "run", "lbp", _lbp_ran)
    tracer.wrap(core_model, "decode", "decode")

    # okb and side information.
    tracer.wrap(OpenKB, "extend", "okb.extend")
    tracer.wrap(SideInformation, "build", "side_info.build")
    tracer.wrap(SideInformation, "extend_okb_derived", "side_info.extend")

    # api.engine: the public entry points, plus the two internal calls
    # the serving layer makes instead of resolve_many.
    tracer.wrap(JOCLEngine, "run_joint", "engine.run_joint")
    tracer.wrap(JOCLEngine, "ingest", "engine.ingest")
    tracer.wrap(JOCLEngine, "resolve_many", "engine.resolve_many")
    tracer.wrap(JOCLEngine, "_resolve_one", "engine.resolve_one")
    tracer.wrap(JOCLEngine, "_decoded", "engine.refresh")

    # serving, http, cluster.
    tracer.wrap(JOCLService, "resolve", "service.resolve")
    tracer.wrap(ServingApp, "handle", "http.handle")
    tracer.wrap(VocabularyAffinityRouter, "route_triple", "cluster.route")
    # The cluster's public calls and the serving session both go
    # through the ``*_with`` fan-outs.
    tracer.wrap(ShardedEngine, "ingest_with", "cluster.ingest")
    tracer.wrap(ShardedEngine, "run_joint_with", "cluster.run_joint")
    tracer.wrap(ShardedEngine, "resolve_many_with", "cluster.resolve_many")
    return tracer


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------
#: Per-layer time metrics: metric name -> span name (outermost spans of
#: that name, summed, per op).
TIME_METRICS = {
    "candidates.ms": "candidates",
    "similarity.ms": "similarity",
    "embeddings.ms": "embeddings",
    "builder.build_ms": "builder.build",
    "builder.feature_table_ms": "builder.feature_table",
    "partition.ms": "partition",
    "runtime.run_ms": "runtime.run",
    "lbp.ms": "lbp",
    "decode.ms": "decode",
    "okb.extend_ms": "okb.extend",
    "side_info.extend_ms": "side_info.extend",
    "engine.ingest_ms": "engine.ingest",
    "service.resolve_ms": "service.resolve",
    "http.handle_ms": "http.handle",
    "cluster.route_ms": "cluster.route",
    "cluster.ingest_ms": "cluster.ingest",
    "cluster.resolve_many_ms": "cluster.resolve_many",
}

#: Per-layer count metrics, per op.
COUNT_METRICS = (
    "candidates.calls",
    "candidates.computed",
    "similarity.levenshtein_calls",
    "similarity.ngram_calls",
    "embeddings.phrase_vector_calls",
    "embeddings.phrase_vector_distinct",
    "builder.cache_lookups",
    "builder.cache_misses",
    "graph.variables",
    "graph.factors",
    "partition.components",
    "lbp.iterations",
    "runtime.components_recomputed",
    "runtime.components_reused",
)

#: Metrics that only the serving or cluster harness can fill in.
OTHER_METRICS = (
    "builder.assembly_ms",
    "engine.resolve_many_ms",
    "service.wait_ms",
    "http.transport_ms",
    "cluster.shard_refresh_max_ms",
    "cluster.shard_refresh_sum_ms",
    "cluster.shards_refreshed",
    "trace.overhead",
    "trace.uncovered_frac",
    "host.calib_ms",
)


def _outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans named ``name`` with no ancestor of the same name."""
    chosen = []
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and parent.name != name:
            parent = parent.parent
        if parent is None:
            chosen.append(span)
    return chosen


def _inside(span: Span, outer: Span) -> bool:
    return span.op == outer.op and outer.start <= span.start and span.end <= outer.end


def uncovered_fraction(spans: list[Span]) -> float:
    """Share of op wall time no top-level layer span covers.

    Ops are the harness's ``op`` spans; top-level layer spans are those
    directly under an op or, when a worker thread ran them, under none.
    """
    ops = [(span.start, span.end) for span in spans if span.name == "op"]
    op_wall = union_length(ops)
    if op_wall <= 0.0:
        return 0.0
    top = [
        (span.start, span.end)
        for span in spans
        if span.name != "op" and (span.parent is None or span.parent.name == "op")
    ]
    covered = union_length(
        (max(start, op_start), min(end, op_end))
        for start, end in top
        for op_start, op_end in ops
        if start < op_end and end > op_start
    )
    return max(0.0, 1.0 - covered / op_wall)


def layer_metrics(
    tracer: Tracer, n_ops: int, count_ops: int | None = None
) -> dict[str, float]:
    """Per-op per-layer metrics from one traced phase of ``n_ops`` ops.

    Times are milliseconds per op, counts are per op, or per
    ``count_ops`` when the op count itself depends on timing.  Serving,
    cluster and harness metrics the spans cannot give on their own
    start at 0 and are filled in by the workload.
    """
    spans = tracer.spans
    metrics: dict[str, float] = {}
    for metric, name in TIME_METRICS.items():
        total = sum(span.duration for span in _outermost(spans, name))
        metrics[metric] = total * 1e3 / n_ops
    for metric in COUNT_METRICS:
        metrics[metric] = tracer.counts[metric] / (count_ops or n_ops)
    for metric in OTHER_METRICS:
        metrics[metric] = 0.0

    children = children_of(spans)
    metrics["builder.assembly_ms"] = (
        sum(self_time(span, children) for span in _outermost(spans, "builder.build"))
        * 1e3
        / n_ops
    )
    metrics["service.wait_ms"] = (
        sum(self_time(span, children) for span in _outermost(spans, "service.resolve"))
        * 1e3
        / n_ops
    )
    resolve_many = _outermost(spans, "engine.resolve_many")
    resolve_one = [
        span
        for span in _outermost(spans, "engine.resolve_one")
        if not any(_inside(span, outer) for outer in resolve_many)
    ]
    metrics["engine.resolve_many_ms"] = (
        sum(span.duration for span in resolve_many + resolve_one) * 1e3 / n_ops
    )

    # Shard work inside the cluster fan-outs: each shard engine's decode
    # (``_decoded``, which refreshes it when stale) and graph build.
    # Shard spans run on worker threads, so they are matched to a
    # fan-out by time; concurrent fan-outs overlap, so each shard span
    # goes to the first fan-out that holds it and is counted once.
    fan_outs = sorted(
        _outermost(spans, "cluster.run_joint") + _outermost(spans, "cluster.resolve_many"),
        key=lambda span: span.start,
    )
    if fan_outs:
        shard_decodes = _outermost(spans, "engine.refresh")
        longest = total = 0.0
        taken: set[int] = set()
        for fan_out in fan_outs:
            inside = [
                span
                for span in shard_decodes
                if id(span) not in taken and _inside(span, fan_out)
            ]
            taken.update(id(span) for span in inside)
            longest += max((span.duration for span in inside), default=0.0)
            total += sum(span.duration for span in inside)
        refreshed = sum(
            1
            for span in _outermost(spans, "builder.build")
            if any(_inside(span, fan_out) for fan_out in fan_outs)
        )
        metrics["cluster.shard_refresh_max_ms"] = longest * 1e3 / n_ops
        metrics["cluster.shard_refresh_sum_ms"] = total * 1e3 / n_ops
        metrics["cluster.shards_refreshed"] = refreshed / (count_ops or n_ops)

    metrics["trace.uncovered_frac"] = uncovered_fraction(spans)
    return metrics


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in ``BENCHMARK.json`` order."""
    return list(TIME_METRICS) + list(COUNT_METRICS) + list(OTHER_METRICS)
