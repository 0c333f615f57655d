"""Order statistics and interval arithmetic used by the benchmark.

Pure functions with no dependency on the program under test, so the
benchmark's own tests can pin them down on small inputs.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

Interval = Tuple[float, float]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``q`` percent of the sample at or below it; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly past the nearest-rank
    ``q`` percentile (the tail that percentile is read from)."""
    if count <= 0:
        return 0
    return count - max(1, math.ceil(q / 100.0 * count))


def median(values: Sequence[float]) -> float:
    """The 50th nearest-rank percentile."""
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def clipped(intervals: Iterable[Interval], start: float, end: float) -> List[Interval]:
    """The parts of ``intervals`` inside ``[start, end]``."""
    return [
        (max(a, start), min(b, end))
        for a, b in intervals
        if b > start and a < end
    ]


def self_time(span: Interval, children: Iterable[Interval]) -> float:
    """A span's duration minus the part of it its children cover."""
    start, end = span
    return (end - start) - union_length(clipped(children, start, end))
