"""In-memory spans recorded around calls into the program's layers.

A :class:`Recorder` replaces a public function or method with a wrapper
that records ``(id, name, start, end, parent, request id, attrs)`` per
call.  The parent is the innermost span open on the same thread, and the
request id is whatever the outermost span of the thread declared, so the
spans of one HTTP request share an identifier.  Nothing is written until
the caller asks for :meth:`Recorder.to_list`.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    rid: Optional[int] = None
    attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans as plain tuples.

    Tuples of numbers and strings are not tracked by the garbage
    collector, so a long run's spans do not slow its collections down.
    """

    FIELDS = ("id", "name", "start", "end", "parent", "rid", "attrs")

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def call(self, name: str, fn: Callable, args, kwargs,
             attrs: Optional[Callable] = None, rid: Optional[int] = None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``attrs(args, kwargs, result)`` adds attributes once the call
        returned; ``rid`` opens a request scope for the nested spans.
        """
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        outer_rid = getattr(local, "rid", None)
        if rid is not None:
            local.rid = rid
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            local.rid = outer_rid
            extra = (attrs(args, kwargs, result)
                     if attrs is not None and result is not None else None)
            self.spans.append((span_id, name, start, end, parent,
                               rid if rid is not None else outer_rid, extra))

    def wrap(self, owner, attr: str, name: str,
             attrs: Optional[Callable] = None,
             rid: Optional[Callable] = None) -> None:
        """Route ``owner.attr`` through :meth:`call`.

        ``rid(args, kwargs)`` extracts a request id for calls that start
        a request.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, attrs,
                             rid(args, kwargs) if rid is not None else None)

        setattr(owner, attr, wrapper)

    def to_list(self) -> list[dict]:
        return [dict(zip(self.FIELDS, row)) for row in list(self.spans)]


def from_dicts(rows: list[dict]) -> list[Span]:
    return [Span(**row) for row in rows]


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def covered(interval: tuple[float, float], parts) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in parts
                     if min(hi, b) > max(lo, a))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → duration minus the part its child spans cover."""
    children = children_of(spans)
    return {
        span.id: span.duration - covered(
            (span.start, span.end),
            [(c.start, c.end) for c in children.get(span.id, ())])
        for span in spans
    }


def ancestors(span: Span, by_id: dict[int, Span]):
    """Names of the spans enclosing ``span``, innermost first."""
    parent = span.parent
    while parent is not None and parent in by_id:
        yield by_id[parent].name
        parent = by_id[parent].parent
