"""The benchmark's own arithmetic: percentiles, the rate-ladder stop rule,
backlog growth and span self time.  Pure functions, covered by
``test_benchmark_arith.py``."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: Percentiles considered when reporting the tail of a timing, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
#: Each rung of the rate ladder is this factor above the one before.
LADDER_STEP = 1.1
#: A backlog this share of a run's requests above its midpoint level is growing.
BACKLOG_SLACK = 0.05


def percentile_rank(count: int, pct: float) -> int:
    """1-based nearest rank of percentile ``pct`` among ``count`` samples."""
    return max(1, math.ceil(pct / 100.0 * count - 1e-9))


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the ``pct`` percentile's rank."""
    return count - percentile_rank(count, pct)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; infinite entries (failures) sort last."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[percentile_rank(len(ordered), pct) - 1]


def supported(count: int, pct: float) -> bool:
    """True when ``pct`` has at least :data:`MIN_BEYOND` samples beyond it."""
    return samples_beyond(count, pct) >= MIN_BEYOND


def tail_percentile(values: Sequence[float]) -> tuple[float, float] | None:
    """The highest of :data:`TAIL_PERCENTILES` with enough samples beyond it.

    Returns ``(pct, value)``, or ``None`` when not even the median is
    supported.
    """
    for pct in TAIL_PERCENTILES:
        if supported(len(values), pct):
            return pct, percentile(values, pct)
    return None


def rung_passes(p99_ms: float, failed: int, growing: bool, limit_ms: float) -> bool:
    """A rung holds when p99 meets the limit, nothing failed and the backlog
    did not grow."""
    return p99_ms <= limit_ms and failed == 0 and not growing


def ladder_rates(high: float, count: int) -> list[float]:
    """The fixed ladder above ``high``: ``high * LADDER_STEP**k`` for k = 1..count."""
    return [high * LADDER_STEP ** k for k in range(1, count + 1)]


def ladder_top(passed: Iterable[bool]) -> int:
    """Index of the last rung passed before the first failure; -1 if none.

    The ladder stops at its first failing rung: a later rung that happens to
    pass does not count.
    """
    top = -1
    for index, ok in enumerate(passed):
        if not ok:
            break
        top = index
    return top


def backlog_growing(
    samples: Sequence[tuple[float, int]], requests: int, connections: int
) -> bool:
    """Whether the generator's backlog kept growing through a run.

    ``samples`` are ``(seconds since start, due-but-unsent requests)`` taken
    while requests remained to be sent.  The backlog is growing when its
    peak over the last tenth of the run exceeds both BACKLOG_SLACK of the
    run's ``requests`` (and the connection count) and its peak just before
    the midpoint.  A stall that drains before the end is not growth.
    """
    if not samples:
        return False
    end = samples[-1][0]
    if end <= 0:
        return False
    final = max((b for t, b in samples if t >= 0.9 * end), default=0)
    middle = max((b for t, b in samples if 0.4 * end <= t <= 0.5 * end), default=0)
    return final > max(connections, BACKLOG_SLACK * requests) and final > middle


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[dict]) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    Each span is a dict with ``id``, ``parent`` (an id or None), ``start`` and
    ``end``.  Overlapping children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - union_length(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }
