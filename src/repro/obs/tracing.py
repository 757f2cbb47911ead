"""Request tracing: per-request trace ids, spans, a bounded ring.

A :class:`Tracer` is owned by whatever serves requests (the
:class:`~repro.serving.service.RecommendationService`).  Tracing is
**opt-in** and purely observational: spans record wall-clock offsets and tags,
never touch request data, and the instrumented code paths are
byte-identical with tracing on or off (asserted in
``tests/serving/test_observability.py``).

The model is deliberately small:

- a **trace** is minted per request (`trace_id` = 16 hex chars) and
  collects a flat list of spans;
- a **span** is a named timed section (``with tracer.span("rerank")``);
  nested ``start`` calls while a trace is active become spans, so an
  operation running inside an already-traced call contributes its
  spans to the caller's trace instead of starting a second one;
- finished traces land in a bounded ring (``deque(maxlen)``) readable
  via ``GET /trace`` — old traces fall off, memory is bounded.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Optional


def _mint_trace_id(counter: int, seed_bits: int) -> str:
    """16-hex-char trace id: process-random bits mixed with a counter.

    Not ``random``-module based on purpose: minting must not perturb
    any seeded RNG stream the serving or training paths rely on.
    """
    mixed = (seed_bits ^ (counter * 0x9E3779B97F4A7C15)) & ((1 << 64) - 1)
    return f"{mixed:016x}"


class Span:
    """One timed section inside a trace (flat; identified by name)."""

    __slots__ = ("name", "start", "duration", "tags")

    def __init__(self, name: str, start: float, duration: float = 0.0,
                 tags: Optional[dict] = None):
        self.name = name
        self.start = start          # seconds since trace start
        self.duration = duration    # seconds
        self.tags = tags or {}

    def to_dict(self) -> dict:
        out = {"name": self.name,
               "start_ms": round(self.start * 1e3, 4),
               "duration_ms": round(self.duration * 1e3, 4)}
        if self.tags:
            out["tags"] = self.tags
        return out


class Trace:
    """A request's trace: id, name, wall-clock anchor, spans."""

    __slots__ = ("trace_id", "name", "started_unix", "_t0", "duration",
                 "spans", "_lock")

    def __init__(self, trace_id: str, name: str):
        self.trace_id = trace_id
        self.name = name
        self.started_unix = time.time()
        self._t0 = time.perf_counter()
        self.duration = 0.0
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    def elapsed(self) -> float:
        return time.perf_counter() - self._t0

    def add_span(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "trace_id": self.trace_id,
                "name": self.name,
                "started_unix": self.started_unix,
                "duration_ms": round(self.duration * 1e3, 4),
                "spans": [span.to_dict() for span in self.spans],
            }


class _NullContext:
    """Shared no-op for inactive tracing; near-zero per-call cost."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return None


_NULL_CONTEXT = _NullContext()


class _SpanContext:
    __slots__ = ("_trace", "_name", "_tags", "_span", "_started")

    def __init__(self, trace: Trace, name: str, tags: Optional[dict]):
        self._trace = trace
        self._name = name
        self._tags = tags

    def __enter__(self) -> Span:
        self._started = time.perf_counter()
        self._span = Span(self._name, self._trace.elapsed(),
                          tags=self._tags)
        return self._span

    def __exit__(self, *exc_info) -> None:
        self._span.duration = time.perf_counter() - self._started
        self._trace.add_span(self._span)


class _TraceContext:
    __slots__ = ("_tracer", "_trace")

    def __init__(self, tracer: "Tracer", trace: Trace):
        self._tracer = tracer
        self._trace = trace

    def __enter__(self) -> Trace:
        self._tracer._local.trace = self._trace
        return self._trace

    def __exit__(self, *exc_info) -> None:
        trace = self._trace
        trace.duration = trace.elapsed()
        self._tracer._local.trace = None
        self._tracer._record(trace)


class Tracer:
    """Mints traces, scopes spans, keeps the bounded ring.

    ``enabled=False`` (the default) makes :meth:`start` and
    :meth:`span` return a shared no-op context — instrumented call
    sites cost one attribute read and one method call.
    """

    def __init__(self, enabled: bool = False, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.enabled = enabled
        self.capacity = capacity
        self._ring: deque[Trace] = deque(maxlen=capacity)
        self._ring_lock = threading.Lock()
        self._local = threading.local()
        self._counter = 0
        self._counter_lock = threading.Lock()
        # Seeded from object identity + boot clock: unique enough per
        # process without touching any RNG stream.
        self._seed_bits = (id(self) * 2654435761
                           ^ time.monotonic_ns()) & ((1 << 64) - 1)

    # ------------------------------------------------------------------
    def current(self) -> Optional[Trace]:
        """The trace active on this thread, if any."""
        return getattr(self._local, "trace", None)

    def current_id(self) -> Optional[str]:
        trace = self.current()
        return trace.trace_id if trace is not None else None

    def start(self, name: str):
        """Begin a trace (or a child span when one is already active).

        Returns a context manager yielding the :class:`Trace` (or
        :class:`Span`, in the nested case; ``None`` when inactive).
        """
        active = self.current()
        if active is not None:
            # Nested start: the enclosing request owns the trace; this
            # section is just a span of it.
            return _SpanContext(active, name, None)
        if not self.enabled:
            return _NULL_CONTEXT
        with self._counter_lock:
            self._counter += 1
            trace_id = _mint_trace_id(self._counter, self._seed_bits)
        return _TraceContext(self, Trace(trace_id, name))

    def span(self, name: str, **tags):
        """A timed section of the current trace (no-op without one)."""
        trace = self.current()
        if trace is None:
            return _NULL_CONTEXT
        return _SpanContext(trace, name, tags or None)

    # ------------------------------------------------------------------
    def _record(self, trace: Trace) -> None:
        with self._ring_lock:
            self._ring.append(trace)

    def traces(self, n: Optional[int] = None) -> list[dict]:
        """Most recent finished traces, newest first."""
        with self._ring_lock:
            recent = list(self._ring)
        recent.reverse()
        if n is not None:
            recent = recent[:max(0, int(n))]
        return [trace.to_dict() for trace in recent]

    def clear(self) -> None:
        with self._ring_lock:
            self._ring.clear()
