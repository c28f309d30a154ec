"""Timing helpers: sample summaries and an in-memory span recorder.

Standard library only, so the helpers can be tested without the package.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

#: percentiles tried, highest first, when reporting the tail of a sample
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: a percentile is reported only when at least this many samples lie beyond it
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples, in exact arithmetic."""
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND of ``n`` samples beyond it."""
    for q in PERCENTILE_LADDER:
        if n - _rank(n, q) >= MIN_BEYOND:
            return q
    return None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def timing_summary(values) -> dict:
    """Median, the tail percentile that has enough samples beyond it, and the count."""
    values = list(values)
    q = tail_percentile(len(values))
    return {
        "median": statistics.median(values),
        "tail_percentile": q,
        "tail_value": percentile(values, q) if q is not None else None,
        "samples": len(values),
    }


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


class Tracer:
    """Records nested spans in memory; one thread only."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, self.clock(), math.nan, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = self.clock()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Median seconds a ``Tracer.wrap`` wrapper adds to one call."""
    def noop():
        return None

    costs = []
    for _ in range(repeats):
        wrapped = Tracer().wrap("noop", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return statistics.median(costs)


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children.get(i, ())) for i, s in enumerate(spans)
    ]


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per span name: call count, total time and total self time."""
    out: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        t = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["total_s"] += s.end - s.start
        t["self_s"] += own
    return out
