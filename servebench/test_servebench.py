"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest servebench -q
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import stack as stacks  # noqa: E402
import workloads  # noqa: E402
from stats import beyond, percentile, self_time, union_length  # noqa: E402
from tracing import Span, layer_metrics  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def small_tables(monkeypatch):
    monkeypatch.setattr(workloads, "READ_TUPLES", 400)
    monkeypatch.setattr(workloads, "READ_RULES", 40)
    monkeypatch.setattr(workloads, "MIXED_TUPLES", 300)
    monkeypatch.setattr(workloads, "MIXED_RULES", 30)
    monkeypatch.setattr(workloads, "WAL_TAIL_WRITES", 12)


def prepared(name: str, seed: int, tmp_path: Path):
    workload = workloads.WORKLOADS[name](seed, tmp_path / f"{name}-{seed}")
    workload.prepare()
    return workload


def operations(workload, count: int):
    """The first ``count`` operations, as (class, payload, deadline)."""
    if workload.closed:
        stream = workload.stream()
        ops = []
        for _ in range(count):
            op = next(stream)
            ops.append((op.cls, op.payload, op.deadline_ms))
            if op.cls == "write":
                workload.on_done(workloads.Op("write", op.payload, status="2xx"))
        return ops
    return [(op.cls, op.payload, op.deadline_ms, round(offset, 9))
            for offset, op in workload.schedule(count / workloads.OPEN_RATE)]


def documents(workload):
    if isinstance(workload, workloads.MixedRW):
        return {t.tid: (t.score, t.probability) for t in workload.mirror}
    return workload.documents


#: Operations per full cycle of each workload's mix (``deadline_open``:
#: whole cycles of cheap singles, cheap pairs and heavy reads).
CYCLE = {"read_exact": 108, "mixed_rw": 60, "deadline_open": 480}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_tables_and_operations(name, tmp_path):
    first = prepared(name, 5, tmp_path / "a")
    second = prepared(name, 5, tmp_path / "b")
    assert documents(first) == documents(second)
    assert operations(first, 2 * CYCLE[name]) == operations(second, 2 * CYCLE[name])


def shape(op) -> tuple:
    cls, payload = op[0], op[1]
    if cls == "write":
        return (cls, payload["op"])
    return (cls, payload["table"], payload["k"], payload["threshold"], op[2])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_changes_order_not_mix(name, tmp_path):
    first = operations(prepared(name, 5, tmp_path / "a"), CYCLE[name])
    second = operations(prepared(name, 6, tmp_path / "b"), CYCLE[name])
    assert [shape(op) for op in first] != [shape(op) for op in second]
    assert Counter(shape(op) for op in first) == Counter(shape(op) for op in second)


def test_open_schedule_mix_and_pairs(tmp_path):
    workload = prepared("deadline_open", 3, tmp_path)
    schedule = workload.schedule(10.0)
    assert len(schedule) == round(workloads.OPEN_RATE * 10.0)
    classes = Counter(op.cls for _, op in schedule)
    assert classes["read"] == classes["heavy"]
    offsets = [offset for offset, _ in schedule]
    assert offsets == sorted(offsets) and 0.0 <= offsets[0] and offsets[-1] < 10.0
    neighbours = list(zip(schedule, schedule[1:]))
    heavy_pairs = [(a, b) for a, b in neighbours
                   if b[0] - a[0] <= 0.003 and a[1].cls == b[1].cls == "heavy"]
    read_pairs = [(a, b) for a, b in neighbours
                  if b[0] - a[0] <= workloads.READ_PAIR_GAP_S and a[1].cls == b[1].cls == "read"]
    assert len(heavy_pairs) == round(classes["heavy"] * workloads.OPEN_PAIRED_HEAVY / 2)
    assert len(read_pairs) == round(classes["read"] * workloads.OPEN_PAIRED_READ / 2)
    for (_, first), (_, second) in read_pairs:
        assert first.payload["table"] == second.payload["table"]
        assert (first.payload["k"], second.payload["k"]) == workloads.PAIR_K
    for _, op in schedule:
        expected = workloads.CHEAP_K if op.cls == "read" else workloads.HEAVY_K
        assert op.payload["k"] in expected


def test_nearest_rank_percentile():
    values = [15, 20, 35, 40, 50]
    assert percentile(values, 5) == 15
    assert percentile(values, 30) == 20
    assert percentile(values, 40) == 20
    assert percentile(values, 50) == 35
    assert percentile(values, 100) == 50
    assert percentile(list(range(1, 201)), 95) == 190
    assert percentile([], 95) == 0.0
    assert beyond(200, 95) == 10
    assert beyond(199, 95) == 9
    assert beyond(210, 95) == 10


def test_union_and_self_time():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0
    # A 10-unit span whose children cover [1, 4] and [3, 6] (overlapping)
    # and stick out past its end: self time is 10 - 5 - 2.
    assert self_time((0, 10), [(1, 4), (3, 6), (8, 12)]) == 3


def span(id_, name, start, end, parent, request, thread="MainThread", attrs=None):
    return Span(id_, name, start, end, parent, request, thread, attrs)


def test_layer_metrics_on_a_synthetic_tree():
    """One request: client [0, 10] > dispatch [1, 9] > decode [1, 2],
    submit [2, 8] > (pool) prepare [3, 4], exact [4, 7]."""
    spans = [
        span(1, "client:call", 0.0, 10.0, None, 1),
        span(2, "serve.server:dispatch", 1.0, 9.0, 1, 1),
        span(3, "serve.protocol:decode", 1.0, 2.0, 2, 1),
        span(4, "serve.coalescer:submit", 2.0, 8.0, 2, 1),
        span(5, "query.prepare:get", 3.0, 4.0, 4, 1, "repro-serve_0"),
        span(6, "core.exact:query", 4.0, 7.0, 4, 1, "repro-serve_0",
             {"k": 5, "threshold": 0.3, "depth": 12, "extensions": 40, "answers": 4,
              "resumed": False}),
        span(7, "query.planner:estimate", 3.5, 3.6, 4, 1, "repro-serve_0",
             {"k": 5, "threshold": 0.3, "predicted": 6.0}),
    ]
    counters = dict.fromkeys(stacks.COUNTERS, 0)
    metrics = layer_metrics(spans, counters, writes=0, recover_s=0.0, overhead_ratio=1.0)
    assert metrics["serve.server.dispatch_self_ms_p50"] == pytest.approx(1000.0)  # [8, 9]
    assert metrics["trace.unaccounted_ms_p50"] == pytest.approx(2000.0)  # [0,1] + [9,10]
    assert metrics["serve.coalescer.wait_ms_p50"] == pytest.approx(1000.0)  # 2 -> 3
    assert metrics["core.exact.calls"] == 1
    assert metrics["core.exact.depth_per_answer"] == 3
    assert metrics["query.planner.rel_error_p50"] == pytest.approx(1.0)  # |6 - 3| / 3


def test_metric_names_match_benchmark_json():
    per_layer = layer_metrics([], dict.fromkeys(stacks.COUNTERS, 0), 0, 0.0, 1.0)
    assert sorted(per_layer) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    phase = workloads.Phase(ops=[workloads.Op("read", {}, 0.0, 0.01, "2xx", {"mode": "exact"})],
                            elapsed=1.0, cpu=0.5)
    end_to_end, _ = run.end_to_end([0.5], phase, [], 100.0)
    assert sorted(end_to_end) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert "setup_s" in end_to_end


def test_settings_match_the_cli():
    stacks.check_cli_parity(dynamic=False, durable=False)
    stacks.check_cli_parity(dynamic=True, durable=True)


def test_parity_check_fails_loudly_on_drift(monkeypatch):
    monkeypatch.setitem(stacks.SERVE_SETTINGS, "window_ms", 5.0)
    with pytest.raises(stacks.ParityError, match="window_ms"):
        stacks.check_cli_parity(dynamic=False, durable=False)
