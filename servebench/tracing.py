"""Outside-in span tracing of the serving stack, for the traced run.

The program under test is not edited.  :meth:`SpanRecorder.install`
replaces public functions of each layer, and the module-level names
``repro.serve.server`` binds them to, with thin wrappers that record
one span per call while :attr:`SpanRecorder.recording` is set.  A span
is ``(id, name, start, end, parent, request, thread, attrs)``; names
are ``"<layer>:<call>"``, the layer being a module of the package.

How a span finds its request and parent:

* the benchmark opens a root ``client:call`` span around each client
  call (:meth:`SpanRecorder.request`) on the calling thread;
* the ``ServeApp.dispatch`` wrapper reads that thread's request while
  the coroutine is created, and sets two context variables (request,
  parent span) inside the task that runs it;
* every wrapper reads and sets the parent variable, so nesting follows
  the call stack;
* the server's thread pool is swapped for one that submits work under
  a copy of the submitting task's context, so engine calls made on a
  pool thread belong to the request whose coalescer batch they serve.
  A coalesced batch's calls all belong to the request that opened it.

Spans stay in memory and are written as JSON lines by :meth:`dump`.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional

from stats import mean, percentile, self_time, clipped, union_length

REQUEST: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "servebench_request", default=None
)
PARENT: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "servebench_parent", default=None
)

#: Thread-name prefix of the server's pool (``ServeApp.startup``).
POOL_PREFIX = "repro-serve"


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    thread: str
    attrs: Optional[Dict[str, Any]]

    @property
    def layer(self) -> str:
        return self.name.partition(":")[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _ContextPool(ThreadPoolExecutor):
    """A thread pool that runs each task in a copy of its submitter's
    context (``loop.run_in_executor`` does not propagate it)."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class SpanRecorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.recording = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def add(self, span_id, name, start, end, parent, request, attrs=None) -> None:
        self.spans.append(
            Span(span_id, name, start, end, parent, request,
                 threading.current_thread().name, attrs)
        )

    @contextmanager
    def request(self) -> Iterator[None]:
        """Root span of one client call; a no-op while not recording."""
        if not self.recording:
            yield
            return
        span_id = next(self._ids)
        self._local.current = span_id
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._local.current = None
            self.add(span_id, "client:call", start, end, None, span_id)

    def wrap(self, fn: Callable, name: str, observe: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``observe(result, *args,
        **kwargs)`` returns the span's attributes after a successful
        call, and a raised exception is recorded by its type."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.recording:
                return fn(*args, **kwargs)
            span_id = next(recorder._ids)
            parent = PARENT.get()
            token = PARENT.set(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as error:
                recorder.add(span_id, name, start, perf_counter(), parent,
                             REQUEST.get(), {"error": type(error).__name__})
                raise
            finally:
                PARENT.reset(token)
            end = perf_counter()
            attrs = observe(result, *args, **kwargs) if observe else None
            recorder.add(span_id, name, start, end, parent, REQUEST.get(), attrs)
            return result

        return traced

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        recorder = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            if not recorder.recording:
                return await fn(*args, **kwargs)
            span_id = next(recorder._ids)
            parent = PARENT.get()
            token = PARENT.set(span_id)
            start = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                PARENT.reset(token)
                recorder.add(span_id, name, start, perf_counter(), parent, REQUEST.get())

        return traced

    def wrap_dispatch(self, fn: Callable) -> Callable:
        """``ServeApp.dispatch``: called on the client's thread, so the
        wrapper learns the request there and carries it into the task."""
        recorder = self

        @functools.wraps(fn)
        def traced(app, method, path, body=b""):
            root = getattr(recorder._local, "current", None)
            if not recorder.recording or root is None:
                return fn(app, method, path, body)

            async def run():
                span_id = next(recorder._ids)
                REQUEST.set(root)
                PARENT.set(span_id)
                start = perf_counter()
                try:
                    return await fn(app, method, path, body)
                finally:
                    recorder.add(span_id, "serve.server:dispatch", start,
                                 perf_counter(), root, root)

            return run()

        return traced

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def _patch_method(self, cls: type, attribute: str, name: str, observe=None) -> None:
        self._patch(cls, attribute, self.wrap(vars(cls)[attribute], name, observe))

    def _patch_classmethod(self, cls: type, attribute: str, name: str) -> None:
        function = vars(cls)[attribute].__func__
        self._patch(cls, attribute, classmethod(self.wrap(function, name)))

    def install(self) -> None:
        """Wrap every traced call of every layer.

        Must run before the server is built: the pool is created by
        ``ServeApp.startup`` and the coalescer binds its callback at
        construction.
        """
        from repro.durable.db import DurableDB
        from repro.durable.wal import WriteAheadLog
        from repro.dynamic.index import DynamicIndex
        from repro.dynamic.registry import DynamicIndexRegistry
        from repro.obs.flight import FlightRecorder
        from repro.query.prepare import PrepareCache
        from repro.serve import server
        from repro.serve.admission import AdmissionController
        from repro.serve.coalescer import RequestCoalescer
        from repro.serve.protocol import MutationRequest, QueryRequest, QueryResponse
        from repro.serve.scheduler import CostScheduler

        self._patch(server, "ThreadPoolExecutor", _ContextPool)
        self._patch(server.ServeApp, "dispatch",
                    self.wrap_dispatch(vars(server.ServeApp)["dispatch"]))
        self._patch_classmethod(QueryRequest, "from_dict", "serve.protocol:decode")
        self._patch_classmethod(MutationRequest, "from_dict", "serve.protocol:decode")
        self._patch_method(QueryResponse, "to_dict", "serve.protocol:encode")
        self._patch_method(
            AdmissionController, "admit", "serve.admission:admit",
            lambda result, controller: {"pending": controller.pending},
        )
        self._patch(RequestCoalescer, "submit", self.wrap_async(
            vars(RequestCoalescer)["submit"], "serve.coalescer:submit"))
        self._patch_method(
            CostScheduler, "decide", "serve.scheduler:decide",
            lambda result, *args, **kwargs: {"decision": result},
        )
        self._patch(server, "estimate_latency", self.wrap(
            vars(server)["estimate_latency"], "query.planner:estimate",
            lambda result, table, k, threshold, **kwargs: {
                "k": k, "threshold": threshold, "predicted": result.exact_seconds,
            },
        ))
        self._patch_method(PrepareCache, "get", "query.prepare:get")
        self._patch_method(PrepareCache, "refresh", "query.prepare:refresh")
        self._patch(server, "exact_ptk_query", self.wrap(
            vars(server)["exact_ptk_query"], "core.exact:query", _exact_attrs))
        self._patch(server, "sampled_ptk_query", self.wrap(
            vars(server)["sampled_ptk_query"], "core.sampling:query",
            lambda result, *args, **kwargs: {"units": result.stats.sample_units},
        ))
        self._patch_method(DynamicIndexRegistry, "answer", "dynamic:answer")
        self._patch_method(DynamicIndexRegistry, "enqueue", "dynamic:enqueue")
        self._patch_method(
            DynamicIndex, "apply", "dynamic:apply",
            lambda result, *args, **kwargs: {"suffix": result},
        )
        for method in ("add", "remove_tuple", "update_probability", "update_score"):
            self._patch_method(DurableDB, method, "durable:mutate")
        self._patch_method(
            WriteAheadLog, "append", "durable:wal_append",
            lambda result, *args, **kwargs: {"bytes": result},
        )
        self._patch_method(FlightRecorder, "begin", "obs:flight_begin")
        self._patch_method(FlightRecorder, "finish", "obs:flight_finish")

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict(), default=str) + "\n")


def _exact_attrs(result, table, query, threshold, **kwargs) -> Dict[str, Any]:
    return {
        "k": query.k,
        "threshold": threshold,
        "depth": result.stats.scan_depth,
        "extensions": result.stats.subset_extensions,
        "answers": len(result.answers),
        "resumed": kwargs.get("resume") is not None,
    }


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _ms(seconds: List[float]) -> List[float]:
    return [value * 1e3 for value in seconds]


def _us(seconds: List[float]) -> List[float]:
    return [value * 1e6 for value in seconds]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: List[Span], counters: Dict[str, float], writes: int,
    recover_s: float, overhead_ratio: float,
) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` from one traced
    interval.

    :param counters: cumulative program counters read at the end of the
        interval minus those read at its start (see
        :func:`stack.Stack.counters`).
    :param writes: acknowledged writes in the interval.
    :param recover_s: median recovery time of the run's set-ups.
    :param overhead_ratio: traced over untraced cost of the same work.
    """
    by_name: Dict[str, List[Span]] = defaultdict(list)
    by_request: Dict[int, List[Span]] = defaultdict(list)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.request is not None:
            by_request[span.request].append(span)
        if span.parent is not None:
            children[span.parent].append(span)

    def seconds(name: str) -> List[float]:
        return [span.seconds for span in by_name[name]]

    dispatch_self = []
    for span in by_name["serve.server:dispatch"]:
        inner = [(s.start, s.end) for s in by_request[span.request] if s.id != span.id
                 and s.name != "client:call"]
        dispatch_self.append(self_time((span.start, span.end), inner))

    waits = []
    for span in by_name["serve.coalescer:submit"]:
        pooled = [s.start for s in children[span.id] if s.thread.startswith(POOL_PREFIX)]
        if pooled:
            waits.append(min(pooled) - span.start)

    unaccounted = []
    for span in by_name["client:call"]:
        inner = [(s.start, s.end) for s in by_request[span.request] if s.id != span.id]
        unaccounted.append(
            span.seconds - union_length(clipped(inner, span.start, span.end))
        )

    flight = [
        sum(s.seconds for s in group if s.layer == "obs")
        for group in by_request.values()
        if any(s.layer == "obs" for s in group)
    ]

    rel_errors = []
    for span in by_name["core.exact:query"]:
        attrs = span.attrs or {}
        if attrs.get("resumed") or span.request is None:
            continue
        estimates = [
            s for s in by_request[span.request]
            if s.name == "query.planner:estimate" and s.start < span.start
            and s.attrs["k"] == attrs["k"] and s.attrs["threshold"] == attrs["threshold"]
        ]
        if estimates and span.seconds > 0:
            predicted = max(estimates, key=lambda s: s.start).attrs["predicted"]
            rel_errors.append(abs(predicted - span.seconds) / span.seconds)

    exact = [s.attrs for s in by_name["core.exact:query"] if s.attrs]
    depth = sum(a["depth"] for a in exact)
    decisions = [s.attrs["decision"] for s in by_name["serve.scheduler:decide"] if s.attrs]
    admits = by_name["serve.admission:admit"]
    sampled = [s.attrs["units"] for s in by_name["core.sampling:query"] if s.attrs]
    dynamic_reads = counters["dynamic_reads_index"] + counters["dynamic_reads_rebuild"]
    prepare_lookups = counters["prepare_hits"] + counters["prepare_misses"]

    return {
        "serve.protocol.decode_us_p50": percentile(_us(seconds("serve.protocol:decode")), 50),
        "serve.protocol.encode_us_p50": percentile(_us(seconds("serve.protocol:encode")), 50),
        "serve.server.dispatch_self_ms_p50": percentile(_ms(dispatch_self), 50),
        "serve.coalescer.wait_ms_p50": percentile(_ms(waits), 50),
        "serve.coalescer.batch_size_mean": _ratio(
            counters["coalescer_items"], counters["coalescer_batches"]),
        "serve.admission.rejected": sum(
            1 for s in admits if s.attrs and s.attrs.get("error") == "RejectedError"),
        "serve.admission.pending_p95": percentile(
            [s.attrs["pending"] for s in admits if s.attrs and "pending" in s.attrs], 95),
        "serve.scheduler.run": decisions.count("run"),
        "serve.scheduler.degrade": decisions.count("degrade"),
        "serve.scheduler.expired": decisions.count("expired"),
        "query.planner.estimate_us_p50": percentile(_us(seconds("query.planner:estimate")), 50),
        "query.planner.rel_error_p50": percentile(rel_errors, 50),
        "query.prepare.get_us_p50": percentile(_us(seconds("query.prepare:get")), 50),
        "query.prepare.hit_ratio": _ratio(counters["prepare_hits"], prepare_lookups),
        "query.prepare.refresh_ms_p50": percentile(_ms(seconds("query.prepare:refresh")), 50),
        "core.exact.calls": len(by_name["core.exact:query"]),
        "core.exact.query_ms_p50": percentile(_ms(seconds("core.exact:query")), 50),
        "core.exact.query_ms_p95": percentile(_ms(seconds("core.exact:query")), 95),
        "core.exact.scan_depth_mean": mean([a["depth"] for a in exact]),
        "core.exact.extensions_per_query": mean([a["extensions"] for a in exact]),
        "core.exact.depth_per_answer": _ratio(depth, sum(a["answers"] for a in exact)),
        "core.sampling.calls": len(by_name["core.sampling:query"]),
        "core.sampling.query_ms_p50": percentile(_ms(seconds("core.sampling:query")), 50),
        "core.sampling.units_drawn_mean": mean(sampled),
        "dynamic.answer_ms_p50": percentile(_ms(seconds("dynamic:answer")), 50),
        "dynamic.answer_ms_p95": percentile(_ms(seconds("dynamic:answer")), 95),
        "dynamic.enqueue_us_p50": percentile(_us(seconds("dynamic:enqueue")), 50),
        "dynamic.deltas_applied": counters["dynamic_deltas_applied"],
        "dynamic.suffix_reevaluated_per_delta": _ratio(
            counters["dynamic_suffix_reevaluated"], counters["dynamic_deltas_applied"]),
        "dynamic.rebuild_ratio": _ratio(counters["dynamic_reads_rebuild"], dynamic_reads),
        "durable.mutate_ms_p50": percentile(_ms(seconds("durable:mutate")), 50),
        "durable.wal_append_us_p50": percentile(_us(seconds("durable:wal_append")), 50),
        "durable.wal_bytes_per_write": _ratio(counters["wal_bytes"], writes),
        "durable.fsyncs_per_write": _ratio(counters["wal_fsyncs"], writes),
        "durable.recover_s": recover_s,
        "obs.flight.record_us_p50": percentile(_us(flight), 50),
        "trace.unaccounted_ms_p50": percentile(_ms(unaccounted), 50),
        "trace.overhead_ratio": overhead_ratio,
    }


def self_ms_by_layer(spans: List[Span]) -> Dict[str, float]:
    """Total self time per layer, in ms (for the run's report)."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        inner = [(c.start, c.end) for c in children[span.id]]
        totals[span.layer] += self_time((span.start, span.end), inner) * 1e3
    return {layer: round(total, 3) for layer, total in sorted(totals.items())}
