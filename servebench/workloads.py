"""The three workloads: inputs, operation streams, loops, answer checks.

Every workload is driven through ``ServeClient`` over a loopback
transport into ``ServeApp.dispatch``, with the server configured as
``repro serve`` configures it (:mod:`stack`).  Operation streams are
generated from ``--seed`` alone; a seed changes the order of
operations and the tables, never the mix.

* ``read_exact`` — one closed-loop client; exact PT-k reads over four
  10k-tuple tables; no writes, no dynamic index, no sampler.
* ``mixed_rw`` — one closed-loop client; 80% reads / 20% writes on a
  recovered ``DurableDB`` with dynamic indexes.
* ``deadline_open`` — one generator thread on a seeded arrival
  schedule; half cheap exact reads, half heavy reads the planner
  degrades to the sampler.

A workload whose timed mix lacks a class of operation (writes, or
heavy reads carrying deadlines) measures that class in a short probe
after the timed interval, so every run reports every end-to-end
metric; see ``README.md``.
"""

from __future__ import annotations

import itertools
import os
import pickle
import random
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.exact import exact_ptk_query
from repro.io.jsonio import table_from_dict
from repro.model.table import UncertainTable
from repro.query.topk import TopKQuery
from repro.serve import ServeClientError
from repro.serve.protocol import RejectedError

import stack as stacks
from tracing import SpanRecorder

# Tables.
READ_TABLES = 4
READ_TUPLES, READ_RULES = 10_000, 1_000
MIXED_TUPLES, MIXED_RULES = 5_000, 500
MIXED_TABLE = "m0"
#: Writes journalled after the snapshot, replayed by every recovery.
WAL_TAIL_WRITES = 240

# Request shapes.
READ_K = tuple(range(20, 101, 10))
READ_P = (0.2, 0.3, 0.5)
MIXED_K = (10, 20, 40)
MIXED_P = (0.2, 0.3, 0.4, 0.5)
WRITE_OPS = ("update", "score", "add", "remove")
CHEAP_K = (10, 20)
HEAVY_K = (200, 400)
OPEN_P = (0.2, 0.3, 0.5)
CHEAP_DEADLINE_MS = 400.0
HEAVY_DEADLINE_MS = 60.0

# Open loop.
#: Arrivals per second: 210 of each class in 25 s, so ten may fail and
#: still leave ten samples past each p95.
OPEN_RATE = 16.8
#: Share of heavy arrivals that come as a simultaneous pair.
OPEN_PAIRED_HEAVY = 0.2
#: Share of cheap arrivals that come as a same-table pair inside one
#: coalescing window: the k=20 read first, then the k=10 one, so the
#: cost scheduler reorders every such batch.
OPEN_PAIRED_READ = 0.2
PAIR_K = (20, 10)
#: Largest gap between the two reads of a pair, well inside the 2 ms
#: coalescing window.
READ_PAIR_GAP_S = 0.0005
OPEN_CLIENT_THREADS = 16
#: Generator lateness p95 above this makes the run invalid.
LATENESS_BOUND_MS = 25.0

#: Heavy reads in a probe: ten may fail and the 200 left still leave
#: ten past the p95.
PROBE_OPS = 210
#: Writes in a probe.  Writes are cheap, so the probe takes twice as
#: many and their p95 rests on twenty samples past it.
WRITE_PROBE_OPS = 2 * PROBE_OPS

#: Closed-loop operations per second, to size the traced run's fixed
#: operation counts from ``--seconds``.
TRACE_RATE = {"read_exact": 24, "mixed_rw": 200, "deadline_open": OPEN_RATE}


def _rng(*parts: Any) -> random.Random:
    return random.Random(":".join(str(part) for part in parts))


# ----------------------------------------------------------------------
# Operations as the client saw them
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One client operation.  ``start`` is the send time, or the due
    time in the open loop; ``cls`` is ``read`` / ``write`` / ``heavy``."""

    cls: str
    payload: Dict[str, Any]
    start: float = 0.0
    end: float = 0.0
    status: str = ""
    body: Optional[Dict[str, Any]] = None
    deadline_ms: Optional[float] = None
    wrong: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "2xx" and self.wrong is None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def send(client, recorder: SpanRecorder, op: Op, due: Optional[float] = None) -> Op:
    """Issue ``op`` and record what came back."""
    op.start = perf_counter() if due is None else due
    with recorder.request():
        try:
            if op.cls == "write":
                op.body = client.mutate(op.payload)
            else:
                op.body = client.query(**op.payload)
            op.status = "2xx"
        except RejectedError:
            op.status = "429"
        except ServeClientError as error:
            op.status = str(error.status)
            op.body = error.body
    op.end = perf_counter()
    return op


def query_op(cls: str, table: str, k: int, p: float, deadline_ms=None) -> Op:
    payload: Dict[str, Any] = {"table": table, "k": k, "threshold": p}
    if deadline_ms is not None:
        payload["deadline_ms"] = deadline_ms
    return Op(cls, payload, deadline_ms=deadline_ms)


# ----------------------------------------------------------------------
# Writes on rule-free tuples, mirrored client-side
# ----------------------------------------------------------------------
class Writer:
    """Seeded writes on tuples in no multi-tuple rule of one table.

    Writes on rule-free tuples never break a rule's probability bound,
    so every write is valid.  :meth:`commit` advances the writer's view
    once the server has acknowledged a write.
    """

    def __init__(self, rng: random.Random, document: Dict[str, Any]) -> None:
        self.rng = rng
        self.table = document["name"]
        in_rules = {tid for rule in document["rules"] for tid in rule["members"]}
        self.free = [t["tid"] for t in document["tuples"] if t["tid"] not in in_rules]
        self.top_score = float(len(document["tuples"]))
        self.added = 0

    def payload(self, op: str) -> Dict[str, Any]:
        rng = self.rng
        if op == "add":
            return {"op": "add", "table": self.table, "tid": f"w{self.added}",
                    "score": round(rng.uniform(0.0, self.top_score), 4),
                    "probability": round(rng.uniform(0.05, 0.95), 6)}
        tid = self.free[rng.randrange(len(self.free))]
        if op == "remove":
            return {"op": "remove", "table": self.table, "tid": tid}
        if op == "update":
            return {"op": "update", "table": self.table, "tid": tid,
                    "probability": round(rng.uniform(0.05, 0.95), 6)}
        return {"op": "score", "table": self.table, "tid": tid,
                "score": round(rng.uniform(0.0, self.top_score), 4)}

    def commit(self, payload: Dict[str, Any]) -> None:
        if payload["op"] == "add":
            self.free.append(payload["tid"])
            self.added += 1
        elif payload["op"] == "remove":
            self.free.remove(payload["tid"])


def apply_write(target: Any, payload: Dict[str, Any]) -> None:
    """Apply one write to an ``UncertainTable`` or, by table name, to a
    ``DurableDB``."""
    args = (payload["table"],) if not isinstance(target, UncertainTable) else ()
    op = payload["op"]
    if op == "add":
        target.add(*args, payload["tid"], payload["score"], payload["probability"])
    elif op == "remove":
        target.remove_tuple(*args, payload["tid"])
    elif op == "update":
        target.update_probability(*args, payload["tid"], payload["probability"])
    else:
        target.update_score(*args, payload["tid"], payload["score"])


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------
class Oracle:
    """Cold exact answers on client-side mirror tables.

    One ``exact_ptk_query`` per (table state, k) at the workload's
    lowest threshold answers every threshold of that k: a tuple whose
    ``Pr^k`` reaches a higher threshold is evaluated by the lower-
    threshold scan too, with the same probability.
    """

    def __init__(self, lowest: float) -> None:
        self.lowest = lowest
        self._memo: Dict[Tuple[Any, int], Any] = {}
        self.scans = 0

    def forget(self) -> None:
        self._memo.clear()

    def expected(self, key: Any, table: UncertainTable, k: int, p: float) -> Dict[str, float]:
        answer = self._memo.get((key, k))
        if answer is None:
            answer = exact_ptk_query(table, TopKQuery(k=k), self.lowest)
            self._memo[(key, k)] = answer
            self.scans += 1
        return {
            str(tid): answer.probabilities[tid]
            for tid in answer.answers
            if answer.probabilities[tid] >= p
        }


#: Wire probabilities are rounded to 6 decimals.
WIRE_TOLERANCE = 1.5e-6


def exact_mismatch(body: Dict[str, Any], expected: Dict[str, float]) -> Optional[str]:
    """Same answer set and probabilities within wire rounding; a partial
    answer (a deadline-cut prefix) must be a subset of the full one."""
    got = {str(tid) for tid in body["answers"]}
    missing = set() if body.get("partial") else set(expected) - got
    extra = got - set(expected)
    if missing or extra:
        return (f"answer set differs: missing {sorted(missing)[:5]}, "
                f"extra {sorted(extra)[:5]}")
    for tid in got:
        wire = body["probabilities"].get(tid)
        if wire is None or abs(wire - expected[tid]) > WIRE_TOLERANCE:
            return f"probability of {tid}: wire {wire}, cold {expected[tid]:.9f}"
    return None


def sampled_mismatch(body: Dict[str, Any]) -> Optional[str]:
    if not body.get("units_drawn"):
        return f"units_drawn is {body.get('units_drawn')!r}"
    intervals = body.get("intervals", {})
    answers = {str(tid) for tid in body["answers"]}
    if set(intervals) != answers:
        return "intervals do not match the answers one to one"
    for tid, (low, high) in intervals.items():
        if not 0.0 <= low <= high <= 1.0:
            return f"interval of {tid} is malformed: [{low}, {high}]"
    return None


def check_read(op: Op, oracle: Oracle, key: Any, table: UncertainTable) -> None:
    """Check one answered read against the mirror (sets ``op.wrong``)."""
    if op.status != "2xx":
        return
    if op.body.get("mode") == "sampled":
        op.wrong = sampled_mismatch(op.body)
    else:
        expected = oracle.expected(key, table, op.payload["k"], op.payload["threshold"])
        op.wrong = exact_mismatch(op.body, expected)


def check_write_versions(ops: List[Op], start_versions: Dict[str, int]) -> None:
    """Each acknowledged write advances its table's version by one."""
    current = dict(start_versions)
    for op in ops:
        if op.cls != "write" or op.status != "2xx":
            continue
        table = op.payload["table"]
        current[table] += 1
        if op.body.get("version") != current[table]:
            op.wrong = f"acknowledged version {op.body.get('version')}, expected {current[table]}"
            current[table] = op.body.get("version", current[table])


# ----------------------------------------------------------------------
# Loops
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """The operations of one measured interval."""

    ops: List[Op] = field(default_factory=list)
    elapsed: float = 0.0
    cpu: float = 0.0
    lateness_ms: List[float] = field(default_factory=list)


def _cpu() -> float:
    times = os.times()
    return times.user + times.system


def closed_loop(client, recorder, stream: Iterator[Op], seconds=None, count=None,
                on_done=None) -> Phase:
    """One client sending the next operation when the last returns, for
    ``seconds``, for ``count`` operations, or until ``stream`` ends."""
    phase = Phase()
    cpu = _cpu()
    started = perf_counter()
    while True:
        if count is not None and len(phase.ops) >= count:
            break
        if seconds is not None and perf_counter() - started >= seconds:
            break
        op = next(stream, None)
        if op is None:
            break
        send(client, recorder, op)
        if on_done is not None:
            on_done(op)
        phase.ops.append(op)
    phase.elapsed = perf_counter() - started
    phase.cpu = _cpu() - cpu
    return phase


def open_loop(client, recorder, schedule: List[Tuple[float, Op]]) -> Phase:
    """One generator thread sending each operation at its due offset
    (seconds from the start), whatever is outstanding; latency counts
    from the due time."""
    phase = Phase()
    pool = ThreadPoolExecutor(OPEN_CLIENT_THREADS, thread_name_prefix="servebench-client")
    futures = []
    cpu = _cpu()
    origin = perf_counter() + 0.01
    try:
        for offset, op in schedule:
            due = origin + offset
            delay = due - perf_counter()
            if delay > 0:
                sleep(delay)
            phase.lateness_ms.append((perf_counter() - due) * 1e3)
            futures.append(pool.submit(send, client, recorder, op, due))
        phase.ops = [future.result(timeout=60) for future in futures]
    finally:
        pool.shutdown(wait=True)
    phase.elapsed = max(op.end for op in phase.ops) - origin
    phase.cpu = _cpu() - cpu
    return phase


def run_phase(workload, client, recorder, stream, seconds=None, count=None,
              tag: str = "timed") -> Phase:
    """The workload's loop for ``seconds`` or ``count`` operations."""
    if workload.closed:
        return closed_loop(client, recorder, stream, seconds=seconds, count=count,
                           on_done=workload.on_done)
    span = seconds if seconds is not None else count / OPEN_RATE
    return open_loop(client, recorder, workload.schedule(span, tag))


def merge(phases: List[Phase]) -> Phase:
    merged = Phase()
    for phase in phases:
        merged.ops += phase.ops
        merged.elapsed += phase.elapsed
        merged.cpu += phase.cpu
        merged.lateness_ms += phase.lateness_ms
    return merged


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Common shape; subclasses fill in inputs, set-up and streams."""

    name = ""
    closed = True
    #: Operations sent before timing, so caches fill.
    warm_ops = 12

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.setup_answers: List[Op] = []
        self.oracle_scans = 0

    def prepare(self) -> None:
        """Generate the inputs (not timed)."""
        raise NotImplementedError

    def stage(self, index: int) -> None:
        """Untimed work before set-up ``index``."""

    def setup(self, index: int) -> stacks.Stack:
        """Start a server and get its first answers (timed)."""
        raise NotImplementedError

    def stream(self) -> Iterator[Op]:
        raise NotImplementedError

    def warm_stream(self, stream: Iterator[Op]) -> Iterator[Op]:
        """The first operations of the workload's stream, sent before
        timing."""
        for _ in range(self.warm_ops):
            yield next(stream)

    def probes(self, stack, recorder) -> List[Op]:
        """Operations after the timed interval for the classes its mix
        lacks."""
        raise NotImplementedError

    def check(self, ops: List[Op]) -> None:
        """Set ``wrong`` on every operation whose answer is wrong."""
        raise NotImplementedError

    def on_done(self, op: Op) -> None:
        """Called after each closed-loop operation returns."""


def heavy_shapes(tables: List[str]) -> List[Tuple[str, int, float]]:
    return [(t, k, p) for t in tables for k in HEAVY_K for p in OPEN_P]


def cycle(rng: random.Random, shapes: List[Any]) -> Iterator[Any]:
    """Every shape once per cycle, each cycle in a seeded order."""
    shapes = list(shapes)
    while True:
        rng.shuffle(shapes)
        yield from shapes


def heavy_probe(tables: List[str], rng: random.Random) -> Iterator[Op]:
    for table, k, p in cycle(rng, heavy_shapes(tables)):
        yield query_op("heavy", table, k, p, HEAVY_DEADLINE_MS)


class _ReadTables(Workload):
    """Shared by the two workloads served from a directory of tables."""

    def prepare(self) -> None:
        rng = _rng("tables", self.name, self.seed)
        self.documents = [
            stacks.table_document(rng.randrange(2**31), READ_TUPLES, READ_RULES, f"t{i}")
            for i in range(READ_TABLES)
        ]
        self.tables = [d["name"] for d in self.documents]
        self.tables_dir = self.work_dir / "tables"
        for document in self.documents:
            stacks.write_document(document, self.tables_dir / f"{document['name']}.json")

    def setup(self, index: int) -> stacks.Stack:
        stack = stacks.open_tables(self.tables_dir)
        for name in self.tables:
            self.setup_answers.append(
                send(stack.client, SpanRecorder(), query_op("read", name, 20, 0.3)))
        return stack

    def write_probe(self) -> Iterator[Op]:
        """Writes on rule-free tuples, the four kinds in turn, rotating
        over the tables."""
        rng = _rng("write-probe", self.name, self.seed)
        writers = {d["name"]: Writer(rng, d) for d in self.documents}
        for index in itertools.count():
            writer = writers[self.tables[index % len(self.tables)]]
            op = Op("write", writer.payload(WRITE_OPS[index // len(self.tables) % 4]))
            yield op
            if op.status == "2xx":
                writer.commit(op.payload)

    def check(self, ops: List[Op]) -> None:
        """Replay acknowledged writes on the mirrors in order; check each
        read against its table's state when it was sent."""
        oracle = Oracle(min(READ_P + OPEN_P))
        mirrors = {d["name"]: table_from_dict(d) for d in self.documents}
        states = dict.fromkeys(mirrors, 0)
        for op in self.setup_answers + ops:
            table = op.payload["table"]
            if op.cls != "write":
                check_read(op, oracle, (table, states[table]), mirrors[table])
            elif op.status == "2xx":
                apply_write(mirrors[table], op.payload)
                states[table] += 1
        check_write_versions(ops, self.start_versions)
        self.oracle_scans = oracle.scans


class ReadExact(_ReadTables):
    name = "read_exact"
    warm_ops = 24

    def stream(self) -> Iterator[Op]:
        rng = _rng("reads", self.name, self.seed)
        shapes = [(t, k, p) for t in self.tables for k in READ_K for p in READ_P]
        for table, k, p in cycle(rng, shapes):
            yield query_op("read", table, k, p)

    def probes(self, stack, recorder) -> List[Op]:
        """Heavy reads and writes interleaved: one heavy read, then
        ``WRITE_PROBE_OPS / PROBE_OPS`` writes."""
        heavy = heavy_probe(self.tables, _rng("heavy-probe", self.name, self.seed))
        writes = self.write_probe()

        def alternate() -> Iterator[Op]:
            for _ in range(PROBE_OPS):
                yield next(heavy)
                yield from itertools.islice(writes, WRITE_PROBE_OPS // PROBE_OPS)

        return closed_loop(stack.client, recorder, alternate()).ops


class DeadlineOpen(_ReadTables):
    name = "deadline_open"
    closed = False

    def warm_stream(self, stream=None) -> Iterator[Op]:
        """A few of each class before timing, so the planner's cost
        model has seen both engines."""
        heavy = heavy_probe(self.tables, _rng("warm", self.name, self.seed))
        for i in range(8):
            yield query_op("read", self.tables[i % READ_TABLES], CHEAP_K[i % 2], 0.3,
                           CHEAP_DEADLINE_MS)
            yield next(heavy)

    def schedule(self, seconds: float, tag: str = "timed") -> List[Tuple[float, Op]]:
        """``(offset, op)`` per arrival, ``OPEN_RATE * seconds`` of them.

        Half are cheap, half heavy.  Most arrivals come alone, one per
        slot, at a seeded offset in the slot's first tenth.  A fixed
        share of each class comes as a pair in a slot twice as long:
        heavy pairs 0-3 ms apart on any tables, cheap pairs 0-0.5 ms
        apart on one table (k=20 then k=10), so they share a coalesced
        batch.  Singles and heavy reads cycle over their shapes, cheap
        pairs over (table, p).  The slots are in seeded order.
        """
        rng = _rng("schedule", tag, self.name, self.seed)
        per_class = max(2, round(OPEN_RATE * seconds / 2))
        heavy_pairs = round(per_class * OPEN_PAIRED_HEAVY / 2)
        read_pairs = round(per_class * OPEN_PAIRED_READ / 2)
        slots = [["read"]] * (per_class - 2 * read_pairs) + [["pair"]] * read_pairs
        slots += [["heavy"]] * (per_class - 2 * heavy_pairs) + [["heavy", "heavy"]] * heavy_pairs
        rng.shuffle(slots)
        singles = cycle(rng, [(t, k, p) for t in self.tables for k in CHEAP_K for p in OPEN_P])
        pairs = cycle(rng, [(t, p) for t in self.tables for p in OPEN_P])
        heavy = cycle(rng, heavy_shapes(self.tables))
        unit = seconds / (2 * per_class)
        start = 0.0
        schedule = []
        for slot in slots:
            offset = start + rng.uniform(0.0, unit / 10)
            if slot == ["pair"]:
                table, p = next(pairs)
                for position, k in enumerate(PAIR_K):
                    offset += rng.uniform(0.0, READ_PAIR_GAP_S) if position else 0.0
                    schedule.append((offset, query_op("read", table, k, p, CHEAP_DEADLINE_MS)))
                start += 2 * unit
                continue
            for position, cls in enumerate(slot):
                if position:
                    offset += rng.uniform(0.0, 0.003)
                if cls == "read":
                    table, k, p = next(singles)
                    schedule.append((offset, query_op(cls, table, k, p, CHEAP_DEADLINE_MS)))
                else:
                    table, k, p = next(heavy)
                    schedule.append((offset, query_op(cls, table, k, p, HEAVY_DEADLINE_MS)))
            start += unit * len(slot)
        return schedule

    def probes(self, stack, recorder) -> List[Op]:
        return closed_loop(stack.client, recorder, self.write_probe(),
                           count=WRITE_PROBE_OPS).ops


class MixedRW(Workload):
    name = "mixed_rw"
    warm_ops = 60

    def prepare(self) -> None:
        rng = _rng("tables", self.name, self.seed)
        self.document = stacks.table_document(rng.randrange(2**31), MIXED_TUPLES,
                                              MIXED_RULES, MIXED_TABLE)
        self.writer = Writer(_rng("writes", self.name, self.seed), self.document)
        self.tail = []
        for i in range(WAL_TAIL_WRITES):
            payload = self.writer.payload(WRITE_OPS[i % len(WRITE_OPS)])
            self.writer.commit(payload)
            self.tail.append(payload)
        self.template = self.work_dir / "template"
        db = stacks.DurableDB(self.template, **stacks.DURABLE_SETTINGS)
        try:
            db.register(table_from_dict(self.document), name=MIXED_TABLE)
            db.snapshot()
            for payload in self.tail:
                apply_write(db, payload)
        finally:
            db.close()

    @property
    def mirror(self) -> UncertainTable:
        """The table as of the end of the WAL tail, built client-side."""
        return start_mirror(self.document, self.tail)

    def stage(self, index: int) -> None:
        shutil.copytree(self.template, self.work_dir / f"state-{index}")

    def setup(self, index: int) -> stacks.Stack:
        stack = stacks.open_data_dir(self.work_dir / f"state-{index}")
        for k in MIXED_K:
            self.setup_answers.append(
                send(stack.client, SpanRecorder(), query_op("read", MIXED_TABLE, k, 0.3)))
        return stack

    def recovered_matches_mirror(self, stack) -> Optional[str]:
        """The recovered table holds exactly the mirrored contents."""
        served = {t.tid: (t.score, t.probability) for t in stack.db.table(MIXED_TABLE)}
        mirrored = {t.tid: (t.score, t.probability) for t in self.mirror}
        if served != mirrored:
            differing = len(set(served.items()) ^ set(mirrored.items()))
            return f"recovered table differs from the mirror in {differing} tuples"
        return None

    def stream(self) -> Iterator[Op]:
        """Blocks of 60: three times four writes then sixteen reads; per
        block three writes of each kind and four reads of each (k, p)."""
        rng = _rng("ops", self.name, self.seed)
        reads = [(k, p) for k in MIXED_K for p in MIXED_P] * 4
        writes = list(WRITE_OPS) * 3
        while True:
            rng.shuffle(reads)
            rng.shuffle(writes)
            for part in range(3):
                for op in writes[4 * part:4 * part + 4]:
                    yield Op("write", self.writer.payload(op))
                for k, p in reads[16 * part:16 * part + 16]:
                    yield query_op("read", MIXED_TABLE, k, p)

    def on_done(self, op: Op) -> None:
        if op.cls == "write" and op.status == "2xx":
            self.writer.commit(op.payload)

    def probes(self, stack, recorder) -> List[Op]:
        heavy = heavy_probe([MIXED_TABLE], _rng("heavy-probe", self.name, self.seed))
        return closed_loop(stack.client, recorder, heavy, count=PROBE_OPS).ops

    def check(self, ops: List[Op]) -> None:
        """Check every read against the table state it was sent in, split
        over two worker processes by position (each replays the writes
        before its half)."""
        every = self.setup_answers + ops
        records = [(op.cls, op.payload, op.status, op.body) for op in every]
        half = len(records) // 2
        jobs = [(self.document, self.tail, records, lo, hi)
                for lo, hi in ((0, half), (half, len(records)))]
        results = run_check_workers(jobs)
        self.oracle_scans = 0
        for wrong, scans in results:
            self.oracle_scans += scans
            for index, reason in wrong:
                every[index].wrong = reason
        check_write_versions([op for op in ops if op.cls == "write"], self.start_versions)


#: The script each ``mixed_rw`` check worker process runs.
CHECK_WORKER = Path(__file__).resolve().parent / "check_worker.py"


def run_check_workers(jobs: List[Tuple[Any, ...]]) -> List[Any]:
    """``check_mixed_range(*job)`` for every job, each in a child process
    of its own, all at once.  Every child is waited for on every path out,
    and killed first if it is still running."""
    children: List[subprocess.Popen] = []
    try:
        for job in jobs:
            child = subprocess.Popen([sys.executable, str(CHECK_WORKER)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            children.append(child)
            child.stdin.write(pickle.dumps(job))
            child.stdin.close()
        outputs = [child.stdout.read() for child in children]
        for child in children:
            if child.wait() != 0:
                raise RuntimeError(f"check worker exited with code {child.returncode}")
        return [pickle.loads(output) for output in outputs]
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
            child.stdout.close()


def start_mirror(document: Dict[str, Any], tail: List[Dict[str, Any]]) -> UncertainTable:
    mirror = table_from_dict(document)
    for payload in tail:
        apply_write(mirror, payload)
    return mirror


def check_mixed_range(document, tail, records, lo: int, hi: int):
    """Replay ``records`` up to ``hi`` on a fresh mirror; check the reads
    from ``lo`` on.  Returns ``(wrong, oracle scans)``, ``wrong`` being
    ``(record index, reason)`` pairs."""
    mirror = start_mirror(document, tail)
    oracle = Oracle(min(MIXED_P))
    state = 0
    wrong = []
    for index, (cls, payload, status, body) in enumerate(records[:hi]):
        if cls == "write":
            if status == "2xx":
                apply_write(mirror, payload)
                state += 1
                oracle.forget()
        elif index >= lo:
            op = Op(cls, payload, status=status, body=body)
            check_read(op, oracle, state, mirror)
            if op.wrong:
                wrong.append((index, op.wrong))
    return wrong, oracle.scans


WORKLOADS = {w.name: w for w in (ReadExact, MixedRW, DeadlineOpen)}
