"""In-memory spans and counters recorded around calls into the program.

A :class:`Tracer` hands out wrappers. A span wrapper records one
:class:`Span` per call: name, start, end, the enclosing span and the op it
belongs to, plus optional attributes computed from the call. A counter
wrapper only adds to a call count and a total time, for functions called
too often to keep a span per call. Wrappers return the wrapped function's
result object unchanged, so callers that test identity (``result is
argument``) behave exactly as without tracing.

:func:`patched` installs wrappers as module attributes for the duration of
a ``with`` block. It must replace the name where the caller looks it up:
a function imported with ``from module import name`` is patched in the
importing module, one called through a module attribute is patched in its
defining module.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None  # index into Tracer.spans
    op: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters in memory; nothing is written until :meth:`dump`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, list] = {}  # name -> [calls, seconds]
        self.op: int | None = None
        self._stack: list[int] = []

    def span(self, name: str, fn: Callable, describe: Callable | None = None) -> Callable:
        """Wrap ``fn`` so each call records a span named ``name``.

        ``describe(args, kwargs, result)`` returns attributes for the span.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = Span(name, self.clock(), None, parent, self.op)
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record.end = self.clock()
                self._stack.pop()
            if describe is not None:
                record.attrs.update(describe(args, kwargs, result))
            return result
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call adds to a call count and a total time."""
        slot = self.counters.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[0] += 1
                slot[1] += self.clock() - start
        return wrapper

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the part of it its child spans cover."""
        kids: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append((s.start, s.end))
        return [s.seconds - covered_seconds(kids.get(i, ())) for i, s in enumerate(self.spans)]

    def enclosing(self, index: int, name: str) -> Span | None:
        """The nearest span named ``name`` that encloses span ``index``, if any."""
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return self.spans[parent]
            parent = self.spans[parent].parent
        return None

    def dump(self, path) -> None:
        """Write every span, then the counters, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op, **s.attrs}) + "\n")
            for name, (calls, seconds) in sorted(self.counters.items()):
                fh.write(json.dumps({"counter": name, "calls": calls, "seconds": seconds}) + "\n")


def covered_seconds(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


@contextlib.contextmanager
def patched(replacements):
    """Set ``module.attr = value`` for each (module, attr, value); restore on exit."""
    saved = []
    try:
        for module, attr, value in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
