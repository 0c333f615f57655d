"""End-to-end serving benchmark of the PT-k service.

Usage, from the root of a checkout::

    python3 servebench/run.py --workload read_exact --seed 1 --seconds 25 --trace 0

Workloads: ``read_exact``, ``mixed_rw``, ``deadline_open`` (see
``README.md`` beside this file).  ``--trace 0`` measures the timed
interval untraced and prints the end-to-end metrics; ``--trace 1``
runs a fixed number of operations untraced and as many traced, and
prints the per-layer metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it are the run's report.

Exit codes: 0 measured and correct; 1 a wrong answer; 2 the program
under test cannot be imported; 3 the run is invalid (too few tail
samples, generator late, counts not repeatable); 4 the metric names
differ from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".servebench-out"

#: Per-layer counts a workload repeats exactly under one seed: one client
#: (or one generator thread) sends the same operations every run.
REPEATABLE = (
    "core.exact.calls", "core.exact.scan_depth_mean", "core.exact.extensions_per_query",
    "core.sampling.calls", "dynamic.deltas_applied", "dynamic.suffix_reevaluated_per_delta",
    "serve.scheduler.run", "serve.scheduler.degrade", "serve.scheduler.expired",
)

#: The measured operations run in this many segments (in the traced run,
#: pairs of an untraced and a traced chunk).  One set-up is timed before
#: the first segment and one after each, so ``setup_s`` samples the
#: host's speed across the whole run, not in one burst.
SEGMENTS = 7


class InvalidRun(Exception):
    """The run cannot be read as a measurement (not a slow result)."""


def host_reference_ms() -> float:
    """``benchmarks/check_bench_regression.calibrate`` in milliseconds:
    how fast the host ran, for reading a run's figures.  Not a metric."""
    sys.path.insert(0, str(ROOT))
    from benchmarks.check_bench_regression import calibrate

    return calibrate() * 1e3


def _status_kb(field: str) -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return float(line.split()[1])
    raise KeyError(field)


def rss_baseline_kb() -> float:
    """Resident memory now, after the benchmark's own inputs are made,
    with the peak counter reset so it only covers what follows."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    Path("/proc/self/clear_refs").write_text("5")
    return _status_kb("VmRSS")


def peak_rss_mb(baseline_kb: float) -> float:
    """Peak resident memory since :func:`rss_baseline_kb`, above it."""
    return (_status_kb("VmHWM") - baseline_kb) / 1024.0


def end_to_end(
    setup_times: List[float], timed, probe_ops, peak_mb: float
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """The end-to-end metrics and the sample count behind each tail."""
    from stats import median, percentile

    every = timed.ops + probe_ops
    reads = [op.ms for op in timed.ops if op.cls == "read" and op.status == "2xx"]
    degraded = [op.ms for op in every
                if op.cls == "heavy" and op.status == "2xx" and op.body.get("mode") == "sampled"]
    writes = [op.ms for op in every if op.cls == "write" and op.status == "2xx"]
    deadline = [op for op in every if op.deadline_ms is not None]
    queries = [op for op in timed.ops if op.cls != "write"]
    exact = [op for op in queries if op.status == "2xx"
             and op.body.get("mode") in ("exact", "dynamic") and not op.body.get("partial")]
    metrics = {
        "setup_s": median(setup_times),
        "throughput_ops_s": len(timed.ops) / timed.elapsed,
        "read_p50_ms": percentile(reads, 50),
        "read_p95_ms": percentile(reads, 95),
        "degraded_p50_ms": percentile(degraded, 50),
        "degraded_p95_ms": percentile(degraded, 95),
        "write_p50_ms": percentile(writes, 50),
        "write_p95_ms": percentile(writes, 95),
        "deadline_met_ratio": sum(1 for op in deadline if op.ok and op.ms <= op.deadline_ms)
        / max(1, len(deadline)),
        "exact_ratio": len(exact) / max(1, len(queries)),
        "succeeded_ratio": sum(1 for op in every if op.ok) / max(1, len(every)),
        "cpu_ms_per_op": timed.cpu * 1e3 / max(1, len(timed.ops)),
        "peak_rss_mb": peak_mb,
    }
    samples = {"read": len(reads), "degraded": len(degraded), "write": len(writes)}
    return metrics, samples


def segmented(workload, stack, recorder, stream, seconds: float, between):
    """The timed interval as ``SEGMENTS`` segments of equal length,
    calling ``between()`` after each; returns them merged."""
    import workloads

    phases = []
    for segment in range(SEGMENTS):
        phases.append(workloads.run_phase(workload, stack.client, recorder, stream,
                                          seconds=seconds / SEGMENTS, tag=f"timed-{segment}"))
        between()
    return workloads.merge(phases)


def alternate(workload, stack, recorder, stream, count: int, between):
    """``count`` operations untraced and ``count`` traced, in alternating
    chunks so both sides see the same host conditions, calling
    ``between()`` after each pair.  Returns the merged untraced and
    traced phases, the program counters' change over the traced chunks,
    and every operation in the order sent."""
    import stack as stacks
    import workloads

    sizes = [count // SEGMENTS + (i < count % SEGMENTS) for i in range(SEGMENTS)]
    sides: Dict[bool, List[Any]] = {False: [], True: []}
    counters: Dict[str, float] = {}
    in_order: List[Any] = []
    for chunk, size in enumerate(sizes):
        for traced in (False, True):
            before = stack.counters()
            recorder.recording = traced
            phase = workloads.run_phase(workload, stack.client, recorder, stream, count=size,
                                        tag=f"trace-{chunk}-{int(traced)}")
            recorder.recording = False
            if traced:
                for key, value in stacks.counter_deltas(before, stack.counters()).items():
                    counters[key] = counters.get(key, 0) + value
            sides[traced].append(phase)
            in_order += phase.ops
        between()
    return workloads.merge(sides[False]), workloads.merge(sides[True]), counters, in_order


def run(name: str, seed: int, seconds: float, trace: bool) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Measure one workload; returns the result object and the report."""
    import stack as stacks
    import workloads
    from stats import median, percentile
    from tracing import SpanRecorder, layer_metrics, self_ms_by_layer

    durable = name == "mixed_rw"
    stacks.check_cli_parity(dynamic=durable, durable=durable)
    work_dir = OUT_DIR / f"work-{name}-{os.getpid()}"
    workload = workloads.WORKLOADS[name](seed, work_dir)
    report: Dict[str, Any] = {"workload": name, "seed": seed, "seconds": seconds,
                              "trace": int(trace), "host_reference_ms": host_reference_ms()}
    wall: Dict[str, float] = {}
    clock = [perf_counter()]

    def lap(label: str) -> None:
        now = perf_counter()
        wall[label] = round(now - clock[0], 3)
        clock[0] = now

    recorder = SpanRecorder()
    stack = None
    probe_ops: List[Any] = []
    setup_times: List[float] = []
    recover_times: List[float] = []

    def timed_setup():
        workload.stage(len(setup_times))
        gc.collect()
        started = perf_counter()
        started_stack = workload.setup(len(setup_times))
        setup_times.append(perf_counter() - started)
        recover_times.append(started_stack.recover_s)
        return started_stack

    def setup_between_segments() -> None:
        """A set-up beside the idle measured server, closed at once.  Its
        garbage holds cycles; collecting them here keeps a 50-70 ms
        collection out of the next segment."""
        stacks.close_all([timed_setup()])
        gc.collect()

    try:
        workload.prepare()
        baseline_kb = rss_baseline_kb()
        lap("prepare")
        if trace:
            recorder.install()
        stack = timed_setup()  # serves every measured operation
        lap("setup")
        if durable:
            mismatch = workload.recovered_matches_mirror(stack)
            if mismatch:
                raise InvalidRun(mismatch)
        workload.start_versions = stacks.versions(stack)

        stream = workload.stream() if workload.closed else None
        ops = workloads.closed_loop(stack.client, recorder, workload.warm_stream(stream),
                                    on_done=workload.on_done).ops
        if trace:
            count = max(20, round(workloads.TRACE_RATE[name] * seconds / 2))
            untraced, traced, counters, in_order = alternate(
                workload, stack, recorder, stream, count, setup_between_segments)
            ops += in_order
            phases = [untraced, traced]
        else:
            timed = segmented(workload, stack, recorder, stream, seconds,
                              setup_between_segments)
            lap("timed")
            probe_ops = workload.probes(stack, recorder)
            ops += timed.ops + probe_ops
            phases = [timed]
        lap("measure")
        peak_mb = peak_rss_mb(baseline_kb)
    finally:
        recorder.uninstall()
        stacks.close_all([stack])
        shutil.rmtree(work_dir, ignore_errors=True)

    workload.check(ops)
    lap("check")
    report["setup_s"] = [round(value, 4) for value in setup_times]
    report["wall_s"] = wall
    wrong = [(op.cls, op.payload, op.wrong) for op in workload.setup_answers + ops if op.wrong]
    report["wrong_answers"] = len(wrong)
    report["wrong_examples"] = wrong[:5]
    report["oracle_scans"] = workload.oracle_scans
    statuses: Dict[str, int] = {}
    for op in ops:
        key = f"{op.cls}:{op.status}"
        statuses[key] = statuses.get(key, 0) + 1
    report["statuses"] = statuses
    if not workload.closed:
        lateness = [value for phase in phases for value in phase.lateness_ms]
        report["generator_lateness_ms"] = {
            "p50": round(percentile(lateness, 50), 3), "p95": round(percentile(lateness, 95), 3),
            "max": round(max(lateness), 3), "bound_p95": workloads.LATENESS_BOUND_MS,
        }

    measured = [op for phase in phases for op in phase.ops] + probe_ops
    result: Dict[str, Any] = {
        "correct": not wrong,
        "attempted": len(measured),
        "failed": sum(1 for op in measured if not op.ok),
    }
    if not trace:
        result["metrics"], report["samples"] = end_to_end(setup_times, timed, probe_ops, peak_mb)
        return result, report

    if workload.closed:
        overhead = (traced.elapsed / len(traced.ops)) / (untraced.elapsed / len(untraced.ops))
    else:  # the schedule fixes throughput; compare mean latency instead
        overhead = (sum(op.ms for op in traced.ops) / len(traced.ops)) / (
            sum(op.ms for op in untraced.ops) / len(untraced.ops))
    writes = sum(1 for op in traced.ops if op.cls == "write" and op.status == "2xx")
    metrics = layer_metrics(recorder.spans, counters, writes, median(recover_times), overhead)
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    recorder.dump(spans_path)
    report["spans"] = str(spans_path.relative_to(ROOT))
    report["span_count"] = len(recorder.spans)
    report["self_ms_by_layer"] = self_ms_by_layer(recorder.spans)
    report["traced_ops"] = len(traced.ops)
    report["counts"] = {key: metrics[key] for key in REPEATABLE}
    result["metrics"] = metrics
    return result, report


def check_tails(samples: Dict[str, int]) -> None:
    from stats import beyond

    for name, count in samples.items():
        if beyond(count, 95) < 10:
            raise InvalidRun(f"{name}: {count} samples leave {beyond(count, 95)} past p95 "
                             f"(need 10)")


def source_digest() -> str:
    """Digest of the program and benchmark sources: repeat-count records
    are only compared between runs of the same code."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts_repeat(workload: str, seed: int, seconds: float, report: Dict[str, Any]) -> None:
    """Compare this traced run's counts with an earlier one of the same
    code, workload, seed and length."""
    path = OUT_DIR / "counts" / f"{workload}-seed{seed}-s{seconds:g}-{source_digest()}.json"
    counts = report["counts"]
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier != counts:
            raise InvalidRun(f"per-layer counts differ from an earlier run with this seed: "
                             f"{earlier} vs {counts}")
        report["counts_repeat"] = "identical to an earlier run"
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end serving benchmark of the PT-k service.")
    parser.add_argument("--workload", required=True,
                        choices=["read_exact", "mixed_rw", "deadline_open"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as error:
        print(f"servebench: cannot import the program under test: {error}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent.parent != ROOT / "src":
        print(f"servebench: imported repro from {repro.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import workloads

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in benchmark[kind]}
    report: Dict[str, Any] = {}
    try:
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
        if args.trace:
            check_counts_repeat(args.workload, args.seed, args.seconds, report)
        else:
            check_tails(report["samples"])
        late = report.get("generator_lateness_ms")
        if late and late["p95"] > workloads.LATENESS_BOUND_MS:
            raise InvalidRun(f"generator ran late: p95 {late['p95']} ms")
    except InvalidRun as error:
        report["invalid"] = str(error)
        print(f"servebench: invalid run: {error}", file=sys.stderr)
        return 3
    finally:
        for line in json.dumps(report, indent=1, default=str).splitlines():
            print(line)
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        print(f"servebench: emitted metrics {sorted(set(metrics) ^ set(declared))} "
              f"differ from BENCHMARK.json", file=sys.stderr)
        return 4
    result["metrics"] = {name: {"value": metrics[name], "unit": declared[name]}
                         for name in declared}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
