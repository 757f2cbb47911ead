"""Observability plane: metrics, tracing, profiling.

Module map::

    metrics.py   thread-safe registry (counters / gauges / log-bucketed
                 histograms), Prometheus text rendering
    tracing.py   per-request trace ids + spans, bounded in-memory ring
    profiler.py  opt-in op-level timing/allocation hooks on the
                 autograd engine (the fused-backend baseline producer)
    console.py   `repro top` live view and `repro bench report`

Policy: metrics are **on by default** everywhere (gated ≤3% serving
overhead in ``benchmarks/test_obs_overhead.py``); tracing and profiling
are **opt-in** (``repro serve --trace``, ``with profile():``) and
observational only — responses are byte-identical with them on or off.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    default_latency_buckets,
    render_snapshot,
    snapshot_quantile,
)
from repro.obs.profiler import OpProfiler, OpStats, profile
from repro.obs.tracing import Span, Trace, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "default_latency_buckets",
    "render_snapshot",
    "snapshot_quantile",
    "Tracer",
    "Trace",
    "Span",
    "OpProfiler",
    "OpStats",
    "profile",
]
