"""In-memory spans recorded around calls into the library's layers.

A span has a name, a start and an end (``perf_counter`` seconds), the span
that was open when it started, the operation id shared by every span of one
step or query, and optional counters.  Spans stay in memory until the run
ends; :func:`self_times` then gives each span its duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict[str, float] = field(default_factory=dict)

    def record(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "counts": self.counts,
        }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.op = 0

    def next_op(self) -> None:
        self.op += 1

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1].sid if self._open else None
        s = Span(len(self.spans), name, perf_counter(), 0.0, parent, self.op)
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._open.pop()


class NoTracer:
    """Stands in for :class:`Tracer` where a run is not traced."""

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        yield Span(0, name, 0.0, 0.0, None, 0)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id to its duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = (s.end - s.start) - covered
    return out
