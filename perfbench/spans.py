"""In-memory span tracing installed from outside the library.

A :class:`Tracer` wraps named callables on the module or class attribute
that their callers look up, records one span (name, start, end, parent,
run id) per call, and restores the original objects on exit.  Nothing in
``vtsearch`` knows it is being traced.
"""

from __future__ import annotations

import functools
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``getattr(owner, attr)`` is recorded as ``span``.

    ``count`` optionally maps ``(args, kwargs, result)`` to work counts
    ``{counter_name: (value, "sum" | "max")}`` attributed to this span.
    """

    owner: object
    attr: str
    span: str
    count: Callable | None = None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out


class Tracer:
    """Collects spans and counts for the calls made while installed."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = {}
        self.run_id = 0
        self._ids = itertools.count()
        self._stack: list[int] = []

    def _wrap(self, fn, target: Target):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, target.span, start, end,
                                       parent, self.run_id))
            if target.count is not None:
                counts = self.counts.setdefault(self.run_id, {})
                for key, (value, how) in target.count(args, kwargs, result).items():
                    old = counts.get(key, 0)
                    counts[key] = max(old, value) if how == "max" else old + value
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for t in self.targets:
                # class attributes are read from __dict__ so that restoring
                # puts back the function object itself, not a bound method
                original = (t.owner.__dict__[t.attr] if isinstance(t.owner, type)
                            else getattr(t.owner, t.attr))
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self._wrap(original, t))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_time_by_name(self, run_id: int | None = None) -> dict[str, float]:
        spans = [s for s in self.spans if run_id is None or s.run_id == run_id]
        own = self_times(spans)
        out: dict[str, float] = {}
        for s in spans:
            out[s.name] = out.get(s.name, 0.0) + own[s.span_id]
        return out

    def calls_by_name(self, run_id: int | None = None) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.spans:
            if run_id is None or s.run_id == run_id:
                out[s.name] = out.get(s.name, 0) + 1
        return out
