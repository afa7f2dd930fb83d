"""Spans recorded around calls into the package, from outside it.

A :class:`Tracer` replaces public callables of the package where their
callers look them up (a module global such as ``cli.load_job``, or a
class attribute such as ``Series.__mul__``) with wrappers that record a
span per call, and puts the originals back afterwards.  Nothing under
``src/`` changes.  Each span holds its name, start, end, the span that
was open when it started, and the op it belongs to.

A span's self time is its duration minus the part of its interval that
its child spans cover.  A span's layer is its name up to the first dot,
which is the package module the wrapped callable belongs to.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    op: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.results: list = []
        self.op: int | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), None, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def wrap(self, name: str, fn, sizes=None):
        """``fn`` recording a span ``name``; ``sizes(tracer, args, result)``
        runs after the span closes, so its cost is not in the span."""
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if sizes is not None:
                sizes(tracer, args, result)
            return result

        return wrapped

    @contextmanager
    def installed(self, targets):
        """Wrap every ``(owner, attribute, span name, sizes)`` target for
        the duration of the block.  A target the package does not have
        is an error: its layer would silently read zero."""
        saved = []
        try:
            for owner, attr, name, sizes in targets:
                if attr not in vars(owner):
                    raise AttributeError(f"{owner.__name__}.{attr} is not there to trace")
                original = vars(owner)[attr]
                setattr(owner, attr, self.wrap(name, original, sizes))
                saved.append((owner, attr, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def covered_length(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: duration minus the coverage of its children, clipped to it."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(i)
    out = []
    for i, span in enumerate(spans):
        clipped = [
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(i, ())
        ]
        clipped = [(a, b) for a, b in clipped if b > a]
        out.append((span.end - span.start) - covered_length(clipped))
    return out
