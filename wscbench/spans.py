"""In-memory span recording and self-time arithmetic.

A span is one call at a layer boundary: name, layer, start, end, the span
that caused it, and the job it belongs to. Spans stay in memory until the
benchmark writes them out. A span's self time is its duration minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

MB = 1024.0 * 1024.0


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    job: str
    alloc_peak_mb: float | None = None
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Map span id to its duration minus the union of its children, clipped to it."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {
        s.id: s.duration - covered_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children[s.id])
        for s in spans
    }


def layer_self_times(spans) -> dict:
    """Sum of self times per layer."""
    own = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[s.layer] += own[s.id]
    return dict(out)


class _Open:
    """Bookkeeping for a span that has not ended yet."""

    __slots__ = ("id", "name", "layer", "start", "parent", "alloc_base", "alloc_peak")

    def __init__(self, id, name, layer, start, parent, alloc_base):
        self.id, self.name, self.layer = id, name, layer
        self.start, self.parent = start, parent
        self.alloc_base = alloc_base
        self.alloc_peak = alloc_base


class Tracer:
    """Records spans from one thread; calls from other threads pass through.

    While ``tracemalloc`` is tracing, each span also records the peak of
    traced memory above its value at span start. tracemalloc keeps a single
    peak, so the tracer resets it when a child opens and folds the child's
    peak back into its parent when the child closes.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.job = ""
        self._stack: list[_Open] = []
        self._next_id = 0
        self._thread = None

    def activate(self, job: str):
        self.active = True
        self.job = job
        self._thread = threading.get_ident()

    def deactivate(self):
        self.active = False

    def tracing_here(self) -> bool:
        return self.active and threading.get_ident() == self._thread

    def open(self, name: str, layer: str) -> _Open:
        alloc = None
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if self._stack and self._stack[-1].alloc_peak is not None:
                top = self._stack[-1]
                top.alloc_peak = max(top.alloc_peak, peak)
            tracemalloc.reset_peak()
            alloc = current
        parent = self._stack[-1].id if self._stack else None
        span = _Open(self._next_id, name, layer, time.perf_counter(), parent, alloc)
        self._next_id += 1
        self._stack.append(span)
        return span

    def close(self, span: _Open, counters=None) -> Span:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        alloc_mb = None
        if span.alloc_base is not None and tracemalloc.is_tracing():
            peak = max(span.alloc_peak, tracemalloc.get_traced_memory()[1])
            alloc_mb = (peak - span.alloc_base) / MB
            if self._stack and self._stack[-1].alloc_peak is not None:
                top = self._stack[-1]
                top.alloc_peak = max(top.alloc_peak, peak)
        done = Span(span.id, span.name, span.layer, span.start, end, span.parent,
                    self.job, alloc_mb, dict(counters or {}))
        self.spans.append(done)
        return done

    @contextmanager
    def span(self, name: str, layer: str):
        handle = self.open(name, layer)
        try:
            yield handle
        finally:
            self.close(handle)

    def job_spans(self, job: str) -> list[Span]:
        return [s for s in self.spans if s.job == job]

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.id)]
