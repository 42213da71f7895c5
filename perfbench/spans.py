"""Spans and counts recorded from the benchmark's own calls into svpanneal.

A ``Recorder`` always knows which call is in progress, so a job that raises
can be charged to the layer that raised.  Only when tracing is on does it
read the clock and keep spans and counts; they stay in memory until the run
writes them out.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str

    @property
    def layer(self) -> str:
        """Module prefix of the span name: ``dynamics.evolve`` -> ``dynamics``."""
        return self.name.split(".", 1)[0]


class Recorder:
    def __init__(self, tracing: bool = False):
        self.tracing = tracing
        self.job = "setup"
        self.spans: list[Span] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.failed_in: str | None = None
        self._open: list[tuple[int, str]] = []
        self._next_id = 0

    def start_job(self, job: str, tracing: bool) -> None:
        self.job = job
        self.tracing = tracing
        self.failed_in = None

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._open[-1][0] if self._open else None
        self._open.append((sid, name))
        start = time.perf_counter() if self.tracing else 0.0
        try:
            yield
        except BaseException:
            # the innermost span sees the exception first
            if self.failed_in is None:
                self.failed_in = name
            raise
        finally:
            self._open.pop()
            if self.tracing:
                self.spans.append(
                    Span(sid, name, start, time.perf_counter(), parent, self.job)
                )

    def count(self, name: str, value: float) -> None:
        if self.tracing:
            self.counts[name].append(value)

    def spans_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span: its duration minus the part of its interval that its child
    spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id]
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = (s.end - s.start) - _covered(clipped)
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer (the span name's module prefix)."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += own[s.id]
    return dict(out)
