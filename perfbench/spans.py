"""In-memory span recorder, self-time arithmetic and Chrome trace export.

A span is one call into a layer: name, start, end, and the span that was
open when it began (its parent).  Spans of one experiment run share a
``group``.  A span's *self time* is its duration minus the durations of its
direct children; the spans of one thread nest properly, so the children's
intervals never overlap and the subtraction is exact.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence


@dataclass
class Span:
    """One closed (or still open) call into a layer."""

    index: int
    name: str
    group: str
    parent: int | None
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans and additive counters in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        #: Identifier shared by every span opened until it is changed.
        self.group = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, self.group, parent, self.clock())
        self.spans.append(span)
        self._open.append(span.index)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span index."""
    own = {span.index: span.duration for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


@dataclass
class LayerStat:
    """Per-name aggregate: call count, inclusive and self seconds."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def layer_stats(spans: Sequence[Span]) -> dict[str, LayerStat]:
    """Aggregate spans by name.

    ``total_s`` sums only the outermost span of each same-name nest, so a
    layer that calls itself is not counted twice; ``self_s`` sums every
    span's self time.
    """
    by_index = {span.index: span for span in spans}
    own = self_times(spans)
    stats: dict[str, LayerStat] = {}
    for span in spans:
        stat = stats.setdefault(span.name, LayerStat())
        stat.calls += 1
        stat.self_s += own[span.index]
        ancestor = span.parent
        while ancestor is not None and by_index[ancestor].name != span.name:
            ancestor = by_index[ancestor].parent
        if ancestor is None:
            stat.total_s += span.duration
    return stats


def chrome_trace(spans: Sequence[Span], metadata: dict) -> dict:
    """Spans as Chrome trace-event JSON (complete events, microseconds)."""
    origin = min((span.start for span in spans), default=0.0)
    events = [
        {
            "name": span.name,
            "cat": span.name.split(".")[0],
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"group": span.group, "id": span.index, "parent": span.parent},
        }
        for span in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata}
