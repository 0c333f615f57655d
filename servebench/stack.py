"""The server under test, configured as ``repro serve`` configures it.

The benchmark's settings are stated here as constants.
:func:`check_cli_parity` builds the same ``ServeConfig`` and
``DurableDB`` arguments the way ``repro serve`` does from a parsed
command line and fails loudly on any field that differs, so the
benchmark cannot drift from what a user of the command gets.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.cli import build_parser, load_table_directory
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic_table
from repro.durable import DurableDB
from repro.io.jsonio import table_to_dict
from repro.serve import LoopbackTransport, ServeApp, ServeClient, ServeConfig

#: ``repro serve`` defaults, minus ``--dynamic`` (set per workload).
SERVE_SETTINGS: Dict[str, Any] = {
    "host": "127.0.0.1",
    "port": 8080,
    "window_ms": 2.0,
    "max_batch": 64,
    "max_inflight": 4,
    "max_queue": 64,
    "default_deadline_ms": None,
    "scheduler": "cost",
    "seed": 7,
    "flight_dir": None,
    "slow_ms": 100.0,
    "metrics_flush_s": 30.0,
    "dynamic_cap": 64,
}

#: ``repro serve --data-dir`` defaults.
DURABLE_SETTINGS: Dict[str, Any] = {"fsync": "interval", "max_segment_bytes": None}


class ParityError(RuntimeError):
    """The benchmark's settings differ from what ``repro serve`` builds."""


def serve_config(dynamic: bool) -> ServeConfig:
    return ServeConfig(dynamic=dynamic, **SERVE_SETTINGS)


def check_cli_parity(dynamic: bool, durable: bool) -> None:
    """Fail unless the benchmark's settings equal the command's.

    Parses ``repro serve <dir>`` (plus ``--data-dir <dir> --dynamic``
    for the durable workload) with the CLI's own parser and builds the
    ``ServeConfig`` field by field as ``_cmd_serve`` does.
    """
    argv = ["serve", "--data-dir", "state"] if durable else ["serve", "tables"]
    if dynamic:
        argv.append("--dynamic")
    args = build_parser().parse_args(argv)
    cli = ServeConfig(
        host=args.host,
        port=args.port,
        window_ms=args.window_ms,
        max_batch=args.max_batch,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        default_deadline_ms=args.deadline_ms,
        scheduler=args.scheduler,
        seed=args.seed,
        flight_dir=args.flight_dir,
        slow_ms=args.slow_ms,
        metrics_flush_s=args.metrics_flush_s,
        dynamic=args.dynamic,
        dynamic_cap=args.dynamic_cap,
    )
    ours = dataclasses.asdict(serve_config(dynamic))
    theirs = dataclasses.asdict(cli)
    drift = {k: (ours[k], theirs[k]) for k in ours if ours[k] != theirs[k]}
    if drift:
        raise ParityError(f"serve settings drifted from `repro serve` (ours, cli): {drift}")
    if durable:
        cli_durable = {"fsync": args.fsync, "max_segment_bytes": args.max_segment_bytes}
        if cli_durable != DURABLE_SETTINGS:
            raise ParityError(
                f"durable settings drifted from `repro serve --data-dir`: "
                f"ours {DURABLE_SETTINGS}, cli {cli_durable}"
            )


def table_document(seed: int, n_tuples: int, n_rules: int, name: str) -> Dict[str, Any]:
    """A synthetic table as a JSON document, fully determined by its
    arguments."""
    table = generate_synthetic_table(
        SyntheticConfig(n_tuples=n_tuples, n_rules=n_rules, seed=seed)
    )
    document = table_to_dict(table)
    document["name"] = name
    return document


def write_document(document: Dict[str, Any], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document), encoding="utf-8")


#: The program counters :meth:`Stack.counters` reads.
COUNTERS = (
    "coalescer_batches", "coalescer_items", "prepare_hits", "prepare_misses",
    "dynamic_deltas_applied", "dynamic_suffix_reevaluated", "dynamic_reads_index",
    "dynamic_reads_rebuild", "wal_bytes", "wal_fsyncs",
)


@dataclass
class Stack:
    """One running server and the client that talks to it."""

    app: ServeApp
    transport: LoopbackTransport
    client: ServeClient
    db: Any
    recover_s: float = 0.0

    def close(self) -> None:
        self.transport.close()
        if isinstance(self.db, DurableDB):
            self.db.close()

    def counters(self) -> Dict[str, float]:
        """Cumulative program counters, read through public accessors."""
        coalescer = self.app.coalescer.stats()
        prepare = self.db.prepare_cache.stats()
        values = dict.fromkeys(COUNTERS, 0)
        values.update({
            "coalescer_batches": coalescer["batches_dispatched"],
            "coalescer_items": coalescer["items_dispatched"],
            "prepare_hits": prepare.hits,
            "prepare_misses": prepare.misses,
        })
        registry = self.db.dynamic
        if registry is not None:
            stats = registry.stats()
            values["dynamic_deltas_applied"] = stats["deltas_applied"]
            values["dynamic_reads_index"] = stats["reads"]["index"]
            values["dynamic_reads_rebuild"] = stats["reads"]["rebuild"]
            values["dynamic_suffix_reevaluated"] = sum(
                index["suffix_reevaluated"]
                for table in stats["tables"].values()
                for index in table["indexes"].values()
            )
        wal = getattr(self.db, "wal", None)
        if wal is not None:
            values["wal_bytes"] = wal.appended_bytes
            values["wal_fsyncs"] = wal.fsyncs
        return values


def _start(db: Any, dynamic: bool, recover_s: float = 0.0) -> Stack:
    app = ServeApp(db, serve_config(dynamic))
    transport = LoopbackTransport(app)
    return Stack(app, transport, ServeClient(transport), db, recover_s)


def open_tables(directory: Path) -> Stack:
    """``repro serve <directory>``: in memory, dynamic off."""
    return _start(load_table_directory(directory), dynamic=False)


def open_data_dir(directory: Path) -> Stack:
    """``repro serve --data-dir <directory> --dynamic``: recovery from
    the snapshot plus the WAL tail."""
    started = perf_counter()
    db = DurableDB(directory, **DURABLE_SETTINGS)
    recover_s = perf_counter() - started
    return _start(db, dynamic=True, recover_s=recover_s)


def counter_deltas(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: max(0, after[key] - before[key]) for key in after}


def versions(stack: Stack) -> Dict[str, int]:
    """Served table versions, through ``GET /tables``."""
    return {entry["name"]: entry["version"] for entry in stack.client.tables()}


def close_all(stacks: List[Optional[Stack]]) -> None:
    for stack in stacks:
        if stack is not None:
            stack.close()
