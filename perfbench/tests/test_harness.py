"""Tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from perfbench import run
from perfbench.measure import (
    LOOPBACK_REF_MS,
    PROBE_REF_MS,
    TAIL_LADDER,
    LoopbackProbe,
    SpeedSampler,
    min_samples,
    percentile,
    slowdown,
    tail_percentile,
)
from perfbench.tracing import (
    Span,
    Tracer,
    children_of,
    install,
    per_layer_names,
    self_time,
    uncovered_fraction,
    union_length,
)
from perfbench.workloads import SMOKE, WORKLOADS, ServeMixed, traced_run

ROOT = Path(__file__).resolve().parents[2]


# -- the tracer leaves nothing behind ------------------------------------
def test_uninstall_restores_every_patched_attribute():
    tracer = install(Tracer())
    patched = list(tracer._patches)
    assert len(patched) >= 25
    for owner, attribute, raw in patched:
        assert vars(owner)[attribute] is not raw, (owner, attribute)
    tracer.uninstall()
    for owner, attribute, raw in patched:
        assert vars(owner)[attribute] is raw, (owner, attribute)


def test_untraced_run_records_no_spans():
    tracer = install(Tracer())
    tracer.uninstall()
    workload = ServeMixed(seed=1, scale=SMOKE)
    workload.setup()
    try:
        workload.phase(1)
    finally:
        workload.close()
    assert tracer.spans == []
    assert not tracer.counts


def test_patch_keeps_classmethods_callable():
    from repro.core.side_info import SideInformation

    with install(Tracer()) as tracer:
        assert isinstance(vars(SideInformation)["build"], classmethod)
        workload = ServeMixed(seed=1, scale=SMOKE)
        workload.setup()
        workload.close()
    assert any(span.name == "side_info.build" for span in tracer.spans)


# -- the tail rule -------------------------------------------------------
@pytest.mark.parametrize(
    ("n", "expected"),
    [
        (0, None),
        (19, None),
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_rule_picks_highest_percentile_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_min_samples_is_where_each_percentile_becomes_valid():
    for pct in TAIL_LADDER:
        assert tail_percentile(min_samples(pct)) == pct
        assert tail_percentile(min_samples(pct) - 1) != pct


def test_percentile_interpolates_linearly():
    values = [float(value) for value in range(1, 101)]
    assert percentile(values, 50.0) == pytest.approx(50.5)
    assert percentile(values, 99.0) == pytest.approx(99.01)
    assert percentile([3.0], 75.0) == 3.0


# -- the host speed probes ------------------------------------------------
def test_speed_sampler_pairs_a_block_with_the_host_speed_during_it():
    with SpeedSampler(period_s=0.005) as sampler:
        deadline = time.process_time() + 0.2
        while time.process_time() < deadline:
            pass
    assert len(sampler.samples_ms) >= 5
    # The probes' own CPU time is not the block's.
    assert 0.0 < sampler.cpu_s < 0.2 + 0.05
    mean = sum(sampler.samples_ms) / len(sampler.samples_ms)
    assert sampler.scaled_s == pytest.approx(sampler.cpu_s * PROBE_REF_MS / mean)


def test_loopback_probe_times_round_trips_and_stops_its_thread():
    with LoopbackProbe() as probe:
        assert probe.ms() > 0.0
        thread = probe._thread
    assert not thread.is_alive()


def test_slowdown_takes_the_probe_of_the_ops_kind_of_work():
    loopback = 2 * LOOPBACK_REF_MS
    assert slowdown(3 * PROBE_REF_MS, loopback, refresh=False) == pytest.approx(2.0)
    assert slowdown(3 * PROBE_REF_MS, loopback, refresh=True) == pytest.approx(2.5)


# -- self time on a synthetic span tree -----------------------------------
def _span(name, start, end, parent=None):
    return Span(name, 0, parent, start, end)


def test_self_time_subtracts_the_union_of_direct_children():
    root = _span("root", 0.0, 10.0)
    first = _span("a", 1.0, 3.0, root)
    overlapping = _span("b", 2.0, 5.0, root)  # overlaps ``first`` on [2, 3]
    last = _span("c", 8.0, 9.0, root)
    grandchild = _span("d", 1.5, 2.5, first)  # inside ``first``: no effect
    spans = [root, first, overlapping, last, grandchild]
    children = children_of(spans)
    assert self_time(root, children) == pytest.approx(10.0 - 4.0 - 1.0)
    assert self_time(first, children) == pytest.approx(2.0 - 1.0)
    assert self_time(last, children) == pytest.approx(1.0)


def test_union_length_and_uncovered_fraction():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    op = _span("op", 0.0, 10.0)
    spans = [
        op,
        _span("engine.run_joint", 1.0, 4.0, op),
        _span("lbp", 2.0, 3.0),  # a worker thread's span, no parent
        _span("candidates", 3.5, 6.0),
    ]
    # covered: [1, 6] of [0, 10]
    assert uncovered_fraction(spans) == pytest.approx(0.5)


# -- every workload passes its correctness check at smoke size ------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_correctness(name):
    workload = WORKLOADS[name](seed=3, scale=SMOKE)
    workload.setup()
    try:
        # Long enough for more than one episode at smoke size.
        measured = workload.measure(seconds=2.0)
        checked = workload.final_check()
    finally:
        workload.close()
    episodes = measured.notes["episodes"]
    assert measured.wall_s >= 2.0
    assert measured.attempted >= 3
    assert measured.errors == 0
    # Every episode's final decisions were checked.
    assert checked.checks == episodes
    assert checked.mismatches == 0
    assert set(checked.quality) == {
        "np_avg_f1",
        "rp_avg_f1",
        "entity_link_acc",
        "relation_link_acc",
    }
    traffic = measured.notes
    # One connection writes every arrival once per episode.
    assert traffic["writes"] == episodes * len(workload.pool)
    assert traffic["reads"] + traffic["writes"] == measured.attempted
    assert traffic["write_share"] == pytest.approx(1 / workload.BLOCK)
    assert 0.0 < traffic["hot_key_share"] <= 1.0
    # Every completed op has its CPU time and the host speed next to it.
    assert len(measured.cpu_s) == len(measured.slowdown) == len(measured.latencies_s)
    assert all(slowdown > 0.0 for slowdown in measured.slowdown)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_reports_every_layer_metric_and_repeats_counts(name):
    counts = []
    for _ in range(2):
        metrics, attempted, failed, _, _ = traced_run(WORKLOADS[name], 5, SMOKE)
        assert failed == 0 and attempted > 0
        assert set(per_layer_names()) - {"host.calib_ms"} <= set(metrics)
        assert metrics["trace.overhead"] > 0
        counts.append(
            {key: value for key, value in metrics.items() if run.per_layer_unit(key) == "count/op"}
        )
    assert counts[0] == counts[1]


# -- BENCHMARK.json and the glossary agree with the harness ---------------
def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [workload["name"] for workload in spec["workloads"]] == list(WORKLOADS)
    assert {metric["name"]: metric["unit"] for metric in spec["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    assert [metric["name"] for metric in spec["per_layer"]] == per_layer_names()
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.per_layer_unit(metric["name"])

    glossary = json.loads(
        (ROOT / "perfbench" / "glossary.json").read_text(encoding="utf-8")
    )
    assert set(glossary["workloads"]) == set(WORKLOADS)
    every_metric = spec["end_to_end"] + spec["per_layer"]
    assert set(glossary["metrics"]) == {metric["name"] for metric in every_metric}
    for metric in every_metric:
        entry = glossary["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["better"] == metric["better"]
        assert entry["layer"] and entry["moves"]
