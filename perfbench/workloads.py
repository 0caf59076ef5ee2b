"""The two benchmark workloads.

Each workload owns its inputs (drawn with the ``--seed`` argument from
a fixed synthetic world), a set-up step, a timed phase, a correctness
check run outside the timed region, and the paper's quality scores of
its final decisions.  Both drive the HTTP front-end with a closed loop
on one keep-alive connection: 98% ``/v1/resolve`` (80% of reads on 8
hot keys), 2% one-triple ``/v1/ingest``.  With one request in flight,
the process CPU time a request spans is the CPU the system spent on it,
which is what the timing metrics are made of.

* ``serve-mixed`` — ``JOCLService`` over a warm ``IncrementalRuntime``
  engine on the 8-world x 50-triple streaming workload, written with
  its ``"repeat"`` arrivals.
* ``serve-cluster`` — ``JOCLClusterService`` over a 2-shard
  ``ShardedEngine`` on 4 worlds x 100 triples, written with its
  ``"raw"`` arrivals.

The world is the one the repository's benchmarks use (generator seed
7); the ``--seed`` argument draws the arrival order and the request
plan from it.  Letting the seed pick the world instead moved the median
op latency by about 20% from seed to seed, which no regression bound
could absorb.
"""

from __future__ import annotations

import gc
import http.client
import json
import random
import time
from dataclasses import dataclass, field

from repro.api import EngineReport, JOCLEngine
from repro.cluster import ClusterReport, ShardedEngine, VocabularyAffinityRouter
from repro.core import JOCLConfig
from repro.core.side_info import SideInformation
from repro.datasets import (
    StreamingIngestConfig,
    generate_streaming_ingest,
    shard_partition,
)
from repro.datasets.base import EvaluationGold
from repro.embeddings.hashed import HashedCharNgramEmbedding
from repro.http import (
    HTTPServingServer,
    IngestRequest,
    ResolveRequest,
    ServerConfig,
    ServingApp,
)
from repro.metrics import linking_accuracy
from repro.okb.store import OpenKB
from repro.pipeline.experiment import score_clustering
from repro.runtime import IncrementalRuntime
from repro.serving import JOCLClusterService, JOCLService

from perfbench.measure import LoopbackProbe, probe_ms, slowdown
from perfbench.tracing import Tracer, install, layer_metrics

#: The configuration the repository's benchmarks use.
CONFIG = JOCLConfig(lbp_iterations=20, learn_iterations=10)

#: A run never times more traffic than this.
MAX_MEASURE_S = 100.0


@dataclass(frozen=True)
class Scale:
    """Input sizes of every workload."""

    #: serve-mixed's world.
    stream: StreamingIngestConfig
    #: serve-cluster's world.
    cluster: StreamingIngestConfig
    #: Write blocks per phase of a traced run.
    traced_ops: int


FULL = Scale(
    stream=StreamingIngestConfig(n_shards=8, triples_per_shard=50, seed=7),
    cluster=StreamingIngestConfig(
        n_shards=4,
        triples_per_shard=100,
        entities_per_shard=30,
        facts_per_shard=65,
        arrivals="raw",
        seed=7,
    ),
    traced_ops=12,
)

#: A seconds-long version of every workload, for the harness tests.
SMOKE = Scale(
    stream=StreamingIngestConfig(
        n_shards=2, triples_per_shard=20, ingest_fraction=0.2, seed=7
    ),
    cluster=StreamingIngestConfig(
        n_shards=2,
        triples_per_shard=20,
        entities_per_shard=8,
        facts_per_shard=16,
        arrivals="raw",
        seed=7,
    ),
    traced_ops=2,
)


def decisions(canonicalization, linking) -> dict:
    """The decisions of a report: clusters and links, nothing else."""
    return {
        "clusters": canonicalization.to_dict()["clusters"],
        "links": linking.to_dict()["links"],
    }


QUALITY_KEYS = ("np_avg_f1", "rp_avg_f1", "entity_link_acc", "relation_link_acc")


def quality(canonicalization, linking, triples) -> dict[str, float]:
    """The paper's scores of one decision set against the triples' gold."""
    gold = EvaluationGold.from_triples(list(triples))
    return {
        "np_avg_f1": score_clustering(
            "JOCL", canonicalization.np_clusters, gold.np_clusters
        ).average_f1,
        "rp_avg_f1": score_clustering(
            "JOCL", canonicalization.rp_clusters, gold.rp_clusters
        ).average_f1,
        "entity_link_acc": linking_accuracy(
            linking.entity_links, gold.entity_links
        ),
        "relation_link_acc": linking_accuracy(
            linking.relation_links, gold.relation_links
        ),
    }


def cold_engine(dataset, triples) -> JOCLEngine:
    """A default-runtime engine over ``triples`` with fresh side info."""
    side = SideInformation.build(
        okb=OpenKB(list(triples)),
        kb=dataset.kb,
        anchors=dataset.anchors,
        ppdb=dataset.ppdb,
        embedding=HashedCharNgramEmbedding(dimension=64),
        max_candidates=CONFIG.max_candidates,
    )
    return JOCLEngine.builder().with_side_information(side).with_config(CONFIG).build()


@dataclass
class Measured:
    """What one timed phase observed."""

    #: The wall latencies of the completed ops.
    latencies_s: list[float] = field(default_factory=list)
    #: The process CPU time of each completed op.
    cpu_s: list[float] = field(default_factory=list)
    #: How many times slower than the reference host each op in
    #: ``cpu_s`` ran (see :func:`perfbench.measure.slowdown`).
    slowdown: list[float] = field(default_factory=list)
    #: The wall time the ops took.
    wall_s: float = 0.0
    attempted: int = 0
    #: Exceptions and non-2xx answers.
    errors: int = 0
    #: Facts about the run for the diagnostics line.
    notes: dict = field(default_factory=dict)


@dataclass
class Checked:
    """Outcome of the correctness check and the quality scores."""

    mismatches: int
    checks: int
    quality: dict[str, float]


def traced_run(
    workload_cls: type[ServeMixed], seed: int, scale: Scale = FULL
) -> tuple[dict[str, float], int, int, Checked, Tracer]:
    """The per-layer metrics of one workload.

    Two instances are set up identically; the first runs a fixed phase
    untraced, the second the same ops traced, so ``trace.overhead``
    compares the same work.  Returns the metrics, ops attempted, ops
    failed, the traced instance's check and the tracer.
    """
    n_ops = scale.traced_ops
    reference = workload_cls(seed, scale)
    reference.setup()
    try:
        untraced = reference.phase(n_ops)
    finally:
        reference.close()
    workload = workload_cls(seed, scale)
    workload.setup()
    tracer = Tracer()
    try:
        install(tracer)
        try:
            traced = workload.phase(n_ops, tracer)
        finally:
            tracer.uninstall()
        checked = workload.final_check()
    finally:
        workload.close()
    metrics = workload.layer_metrics(tracer, traced)
    metrics["trace.overhead"] = traced.wall_s / untraced.wall_s
    attempted = untraced.attempted + traced.attempted + checked.checks
    failed = untraced.errors + traced.errors + checked.mismatches
    return metrics, attempted, failed, checked, tracer


# ---------------------------------------------------------------------------
def build_cluster(stream) -> ShardedEngine:
    """A warm 2-shard cluster over ``stream``'s seed triples: affinity
    router, one ``IncrementalRuntime`` per shard, 2 workers."""
    dataset = stream.dataset
    groups: list[list] = [[], []]
    for index, part in enumerate(shard_partition(stream.seed_triples)):
        groups[index % 2].extend(part)
    cluster = (
        ShardedEngine.builder()
        .with_ckb(dataset.kb)
        .with_anchors(dataset.anchors)
        .with_ppdb(dataset.ppdb)
        .with_config(CONFIG)
        .with_router(VocabularyAffinityRouter())
        .with_shard_triples(groups)
        .with_runtime_factory(IncrementalRuntime)
        .with_max_workers(2)
        .build()
    )
    cluster.run_joint()
    return cluster


class ServeMixed:
    """Closed-loop HTTP traffic against the serving session.

    One connection replays a fixed plan: blocks of ``BLOCK`` requests,
    each with exactly one one-triple ingest at a seeded position (never
    first or last), the rest reads.  Every write is therefore followed
    by a read before the next write, so each write costs exactly one
    refresh; and every run makes the same requests, so the cost mix and
    the traced counts do not depend on host speed.  With one connection
    no two requests can share a batch (see :meth:`build_target`).

    After every request, and before the first, the host speed probes
    run (outside any request), so each op is paired with how fast the
    host ran its kind of work around it.

    An episode replays the plan once against a fresh engine and server,
    writing every arrival once in a seeded order (see :meth:`arrivals`).
    A run replays episodes until ``--seconds`` of traffic were timed;
    starting and checking an episode are not timed.
    """

    name = "serve-mixed"
    #: The percentile ``op_tail_cpu_ms`` reports: it leaves >= 10 samples
    #: beyond it and sits inside the refresh mode.
    tail_pct = 99.0
    #: Which world of the :class:`Scale` the workload streams.
    config = "stream"
    #: Requests per write: 2% of the requests are writes.
    BLOCK = 50
    HOT_KEYS = 8
    HOT_SHARE = 0.8
    #: The short interpreter probe run between requests (~0.2 ms on an
    #: idle host): the host's speed flips within a second, so each op is
    #: paired with the speed measured right before and right after it.
    PROBE_ITERATIONS = 500
    #: Arrivals are shuffled only within blocks of this many.
    SHUFFLE_BLOCK = 8
    #: How ``/v1/run_joint`` answers are parsed.
    report_type = EngineReport

    def __init__(self, seed: int, scale: Scale = FULL) -> None:
        self.seed = seed
        self.scale = scale

    def setup(self) -> None:
        self.stream = generate_streaming_ingest(getattr(self.scale, self.config))
        self.pool = self.arrivals(self.stream)
        self.earlier_mismatches = self.earlier_checks = 0
        self.reference: dict | None = None
        self.start_episode()

    def start_episode(self) -> None:
        """A fresh engine and server; the old ones must be closed."""
        self.n_ops = 0
        self.blocks_sent = 0
        # Release the old engine first, so only one is ever alive.
        self.target = self.service = self.server = None
        gc.collect()
        self.target = self.build_target()

    def build_target(self):
        """A warm engine (or cluster) over the seed triples, served."""
        engine = self.stream.engine(CONFIG, IncrementalRuntime())
        engine.run_joint()
        # The eager leader (no batching window): with one request in
        # flight a window only adds idle time, and after each idle wait
        # a read's CPU cost followed the host's load.
        self.serve(JOCLService(engine, max_batch_size=8))
        return engine

    def serve(self, service) -> None:
        """Start the HTTP server over ``service`` and draw the read keys."""
        self.service = service
        self.server = HTTPServingServer(
            ServingApp(self.service), ServerConfig(max_in_flight=32)
        ).start()
        self.mentions = sorted(
            {(t.subject_norm, "np") for t in self.stream.seed_triples}
            | {(t.object_norm, "np") for t in self.stream.seed_triples}
            | {(t.predicate_norm, "rp") for t in self.stream.seed_triples}
        )
        self.hot = random.Random(f"{self.seed}:hot").sample(self.mentions, self.HOT_KEYS)

    def close(self) -> None:
        """Stop the server."""
        self.server.stop()

    def arrivals(self, workload) -> list:
        """The arrival batches as single triples, in stream order
        shuffled within consecutive blocks of :attr:`SHUFFLE_BLOCK`.

        Refresh cost depends on how far into the stream an arrival
        comes: on the cluster, a free shuffle of the whole tail moved the
        median one-triple ingest + ``run_joint`` latency by about 10% from
        seed to seed, a shuffle within blocks by about 2%.
        """
        pool = [triple for batch in workload.batches for triple in batch]
        rng = random.Random(f"{self.seed}:arrivals")
        ordered = []
        for start in range(0, len(pool), self.SHUFFLE_BLOCK):
            block = pool[start : start + self.SHUFFLE_BLOCK]
            rng.shuffle(block)
            ordered.extend(block)
        return ordered

    def _read(self, rng: random.Random) -> tuple[str, dict]:
        mention, kind = rng.choice(self.hot if rng.random() < self.HOT_SHARE else self.mentions)
        return "/v1/resolve", ResolveRequest(mention, kind).to_dict()

    def _plan(self, writes: int):
        """The episode's requests: ``writes`` blocks of ``BLOCK``."""
        rng = random.Random(f"{self.seed}:reads")
        for _ in range(writes):
            block = self.blocks_sent
            self.blocks_sent += 1
            position = random.Random(f"{self.seed}:block:{block}").randrange(1, self.BLOCK - 1)
            for slot in range(self.BLOCK):
                if slot == position:
                    triple = self.pool[self.n_ops]
                    self.n_ops += 1
                    yield "/v1/ingest", IngestRequest((triple,)).to_dict()
                else:
                    yield self._read(rng)

    @staticmethod
    def _post(conn: http.client.HTTPConnection, path: str, body: bytes) -> int:
        conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        response.read()
        return response.status

    def _drive(self, writes: int, tracer: Tracer | None = None) -> Measured:
        """Send ``writes`` blocks over one keep-alive connection.

        One request is in flight at a time, so the process CPU time a
        request spans is that request's CPU cost: the server's threads
        are otherwise idle.
        """
        hot = set(self.hot)
        counts = dict.fromkeys(("reads", "writes", "hot_reads"), 0)
        measured = Measured()
        conn = http.client.HTTPConnection(self.server.host, self.server.port, timeout=60)
        with LoopbackProbe() as loopback:
            probes = [(probe_ms(self.PROBE_ITERATIONS), loopback.ms())]
            # The request after a write pays the refresh.
            refresh = False
            try:
                for path, payload in self._plan(writes):
                    if path == "/v1/ingest":
                        counts["writes"] += 1
                    else:
                        counts["reads"] += 1
                        counts["hot_reads"] += (payload["mention"], payload["kind"]) in hot
                    body = json.dumps(payload).encode("utf-8")
                    wall_start = time.perf_counter()
                    cpu_start = time.process_time()
                    if tracer is None:
                        status = self._post(conn, path, body)
                    else:
                        with tracer.span("op"):
                            status = self._post(conn, path, body)
                    cpu = time.process_time() - cpu_start
                    wall = time.perf_counter() - wall_start
                    probes.append((probe_ms(self.PROBE_ITERATIONS), loopback.ms()))
                    measured.attempted += 1
                    measured.wall_s += wall
                    if 200 <= status < 300:
                        measured.latencies_s.append(wall)
                        measured.cpu_s.append(cpu)
                        # The host speed measured on both sides of the op.
                        (interp_before, loop_before), (interp_after, loop_after) = probes[-2:]
                        measured.slowdown.append(
                            slowdown(
                                (interp_before + interp_after) / 2.0,
                                (loop_before + loop_after) / 2.0,
                                refresh,
                            )
                        )
                    else:
                        measured.errors += 1
                    refresh = path == "/v1/ingest"
            finally:
                conn.close()
        measured.notes = counts
        return measured

    def measure(self, seconds: float) -> Measured:
        """Episodes until ``seconds`` of traffic were timed.

        The plan, not the clock, sets an episode's length, so every
        episode makes the same requests and the same refreshes.
        """
        measured = Measured()
        counts = dict.fromkeys(("reads", "writes", "hot_reads"), 0)
        episodes = 0
        while True:
            if episodes:
                self.next_episode()
            episode = self._drive(len(self.pool))
            episodes += 1
            measured.latencies_s += episode.latencies_s
            measured.cpu_s += episode.cpu_s
            measured.slowdown += episode.slowdown
            measured.wall_s += episode.wall_s
            measured.attempted += episode.attempted
            measured.errors += episode.errors
            for key, count in episode.notes.items():
                counts[key] += count
            if measured.wall_s >= seconds or measured.wall_s >= MAX_MEASURE_S:
                break
        reads, writes = counts["reads"], counts["writes"]
        measured.notes = {
            "episodes": episodes,
            "reads": reads,
            "writes": writes,
            "write_share": writes / max(1, reads + writes),
            "hot_key_share": counts["hot_reads"] / max(1, reads),
        }
        return measured

    def next_episode(self) -> None:
        """Check the episode just replayed and start the next one."""
        checked = self.check()
        self.earlier_mismatches += checked.mismatches
        self.earlier_checks += checked.checks
        self.close()
        self.start_episode()

    def phase(self, n_ops: int, tracer: Tracer | None = None) -> Measured:
        """``n_ops`` write blocks."""
        if tracer is not None:
            tracer.op = "traced"
        measured = self._drive(n_ops, tracer)
        self.blocks_in_phase = n_ops
        return measured

    def layer_metrics(self, tracer: Tracer, measured: Measured) -> dict[str, float]:
        """Times per request; counts per write block (one refresh each)."""
        requests = measured.attempted
        metrics = layer_metrics(tracer, requests, count_ops=self.blocks_in_phase)
        client_ms = sum(span.duration for span in tracer.spans if span.name == "op") * 1e3
        metrics["http.transport_ms"] = client_ms / requests - metrics["http.handle_ms"]
        return metrics

    def check(self) -> Checked:
        conn = http.client.HTTPConnection(self.server.host, self.server.port, timeout=60)
        try:
            conn.request("POST", "/v1/run_joint", body=b"{}")
            response = conn.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()
        if response.status != 200:
            return Checked(1, 1, dict.fromkeys(QUALITY_KEYS, 0.0))
        return self.union_check(self.report_type.from_dict(payload["report"]))


    def final_check(self) -> Checked:
        """The check of the last episode, with the earlier ones'."""
        checked = self.check()
        return Checked(
            checked.mismatches + self.earlier_mismatches,
            checked.checks + self.earlier_checks,
            checked.quality,
        )

    def union_check(self, report) -> Checked:
        """The final decisions against a cold engine over the union.

        Every whole episode ingests the same triples, so one cold
        engine serves them all.
        """
        triples = list(self.stream.seed_triples) + self.pool[: self.n_ops]
        whole = self.n_ops == len(self.pool)
        if whole and self.reference is not None:
            reference = self.reference
        else:
            cold = cold_engine(self.stream.dataset, triples).run_joint()
            reference = decisions(cold.canonicalization, cold.linking)
            if whole:
                self.reference = reference
        same = decisions(report.canonicalization, report.linking) == reference
        return Checked(
            0 if same else 1,
            1,
            quality(report.canonicalization, report.linking, triples),
        )



class ServeCluster(ServeMixed):
    """The serve-mixed traffic against the 2-shard cluster session, with
    the 4-world stream's raw arrivals as the writes.

    The session reads through the cluster's ``resolve_many`` fan-out,
    which bypasses the shard services' batching; like serve-mixed, the
    shard services run the eager leader.
    """

    name = "serve-cluster"
    config = "cluster"
    report_type = ClusterReport

    def build_target(self):
        cluster = build_cluster(self.stream)
        self.serve(JOCLClusterService(cluster, max_batch_size=8))
        return cluster


WORKLOADS: dict[str, type[ServeMixed]] = {
    workload.name: workload for workload in (ServeMixed, ServeCluster)
}
