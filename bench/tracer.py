"""Spans, counts and self time for traced benchmark runs.

A span is one timed interval: a name, a start and an end on one monotonic
clock, the index of the span that was open when it began (its parent), and
counts recorded at the same boundary. Spans are kept in memory and written
out as JSON lines once the run ends.

Open a span around a block::

    tracer = Tracer()
    with tracer.span("cli.train"):
        ...
        tracer.count("rows", 128)

or around every call of a function, by patching the attribute its callers
look up (restore() puts every original back)::

    tracer.wrap(matchgan.training, "inner_train", "training.inner_train")

A span's self time is its duration minus the durations of its direct
children, so the self times of a span tree add up to its root's duration.
"""

from __future__ import annotations

import functools
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans; -1 for a root
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; a span's parent is the innermost open span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> Span:
        span = Span(name, self.clock(), 0.0, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str, **counts):
        span = self._enter(name)
        if counts:
            span.counts = dict(counts)
        try:
            yield span
        finally:
            self._exit(span)

    def count(self, key: str, n: int = 1) -> None:
        """Add n to a count on the innermost open span."""
        span = self.spans[self._open[-1]]
        if span.counts is None:
            span.counts = {}
        span.counts[key] = span.counts.get(key, 0) + n

    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        """Replace owner.attr, which owner itself must define, by a wrapper
        that records one span per call and returns the call's own result.

        counter(args, kwargs, result) may return a dict of counts for the span.
        """
        original = vars(owner)[attr]
        enter, exit_ = self._enter, self._exit

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                exit_(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every wrap(), newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.counts]) + "\n")


def read_spans(path: str | Path) -> list[Span]:
    with Path(path).open(encoding="utf-8") as fh:
        return [Span(*json.loads(line)) for line in fh]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def root_totals(spans: list[Span], selfs: list[float]) -> dict[int, float]:
    """Sum of self times under each root span, keyed by the root's index.

    Parents precede their children in recording order, so one pass finds
    every span's root.
    """
    root = [0] * len(spans)
    totals: dict[int, float] = {}
    for i, s in enumerate(spans):
        root[i] = i if s.parent < 0 else root[s.parent]
        totals[root[i]] = totals.get(root[i], 0.0) + selfs[i]
    return totals


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (p in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * p / 100)) - 1]


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, durations, summed counts."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s, own in zip(spans, selfs):
        entry = out.setdefault(
            s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "counts": {}}
        )
        entry["calls"] += 1
        entry["total_s"] += s.duration
        entry["self_s"] += own
        entry["durations"].append(s.duration)
        for key, n in (s.counts or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + n
    return out
