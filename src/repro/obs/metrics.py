"""Process-local, thread-safe metrics: counters, gauges, histograms.

The registry is the repo's single source of operational truth: the
serving plane, the trainers and the CLI surfaces all read and write the
same handles, so ``/stats`` (legacy JSON) and ``/metrics`` (Prometheus
text) can never disagree — both render the same underlying values.

Design goals, in priority order:

- **Exactness under concurrency.**  Every mutation takes the metric's
  own lock; an N-thread hammer on a counter observes the exact total
  and histogram percentiles are monotone by construction (they are read
  off a cumulative bucket walk).
- **Near-zero cost.**  A handle is resolved once (``registry.counter``
  get-or-creates) and each ``inc``/``observe`` is one lock plus one or
  two additions — cheap enough for per-request use on the serving hot
  path (gated ≤3% overhead in ``benchmarks/test_obs_overhead.py``).
- **Renderable snapshots.**  ``snapshot()`` returns plain-JSON
  entries and :func:`render_snapshot` emits Prometheus exposition text
  from any snapshot.

Disabling is structural, not conditional: :data:`NULL_REGISTRY` hands
out no-op handles with the same API, so instrumented code carries no
``if metrics_enabled`` branches.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left
from typing import Callable, Optional, Sequence

_TYPES = ("counter", "gauge", "histogram")


def default_latency_buckets() -> tuple[float, ...]:
    """Log-spaced latency bucket upper bounds, 10 µs … ~28 s.

    Four buckets per decade (factor ``10^0.25`` ≈ 1.78): fine enough
    that a p99 read off a bucket edge is within ~80% relative of the
    true value, coarse enough that a histogram is 26 numbers.
    """
    return tuple(10.0 ** (exp / 4.0) for exp in range(-20, 6))


class Counter:
    """Monotone non-negative counter."""

    __slots__ = ("name", "help", "labels", "_lock", "_value")

    def __init__(self, name: str, help: str = "",
                 labels: Optional[dict] = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"name": self.name, "type": "counter", "help": self.help,
                "labels": self.labels, "value": self.value}


class Gauge:
    """Settable value; optionally backed by a live ``collect`` callback.

    Callback gauges read their value at snapshot time — the pattern the
    service uses for cache size, so ``/metrics`` shows the live value
    without anyone remembering to push updates.
    """

    __slots__ = ("name", "help", "labels", "_lock", "_value", "_collect")

    def __init__(self, name: str, help: str = "",
                 labels: Optional[dict] = None,
                 collect: Optional[Callable[[], float]] = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._value = 0.0
        self._collect = collect

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        if self._collect is not None:
            return float(self._collect())
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"name": self.name, "type": "gauge", "help": self.help,
                "labels": self.labels, "value": self.value}


class _Timer:
    """Context manager feeding a histogram one wall-clock observation."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: "Histogram"):
        self._histogram = histogram

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class Histogram:
    """Log-bucketed histogram with cumulative-walk percentile reads.

    ``boundaries`` are ascending bucket *upper* bounds; observations
    above the last boundary land in an implicit overflow bucket whose
    reported quantile edge is the largest observation seen.  Quantiles
    are linearly interpolated inside the winning bucket, which keeps
    them monotone in ``q`` (the cumulative counts are monotone and the
    interpolation is monotone within a bucket).
    """

    __slots__ = ("name", "help", "labels", "boundaries", "_lock",
                 "_counts", "_sum", "_count", "_max")

    def __init__(self, name: str, help: str = "",
                 boundaries: Optional[Sequence[float]] = None,
                 labels: Optional[dict] = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        bounds = tuple(boundaries if boundaries is not None
                       else default_latency_buckets())
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("boundaries must be non-empty and ascending")
        self.boundaries = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # +1: overflow bucket
        self._sum = 0.0
        self._count = 0
        self._max = -math.inf

    def observe(self, value: float) -> None:
        index = bisect_left(self.boundaries, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value > self._max:
                self._max = value

    def time(self) -> _Timer:
        return _Timer(self)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 ≤ q ≤ 1); ``nan`` when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        with self._lock:
            return _bucket_quantile(self.boundaries, self._counts,
                                    self._count, self._max, q)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "name": self.name, "type": "histogram", "help": self.help,
                "labels": self.labels,
                "boundaries": list(self.boundaries),
                "counts": list(self._counts),
                "sum": self._sum, "count": self._count,
                "max": self._max,
            }


def _bucket_quantile(boundaries: Sequence[float], counts: Sequence[int],
                     total: int, maximum: float, q: float) -> float:
    if total == 0:
        return math.nan
    target = q * total
    cumulative = 0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        cumulative += count
        if cumulative >= target:
            if index >= len(boundaries):       # overflow bucket
                return maximum
            upper = boundaries[index]
            lower = boundaries[index - 1] if index > 0 else 0.0
            fraction = 1.0 - (cumulative - target) / count
            return lower + (upper - lower) * fraction
    return maximum  # pragma: no cover - cumulative == total covers q=1


def snapshot_quantile(entry: dict, q: float) -> float:
    """Quantile of one histogram *snapshot* entry (e.g. over HTTP).

    The same cumulative walk :meth:`Histogram.quantile` performs,
    usable by remote readers (``repro top``) that hold no live
    ``Histogram`` object.
    """
    if entry.get("type") != "histogram":
        raise ValueError(f"{entry.get('name')!r} is not a histogram")
    return _bucket_quantile(entry["boundaries"], entry["counts"],
                            entry["count"], entry.get("max", math.nan), q)


class MetricsRegistry:
    """Get-or-create home for the process's metrics.

    Handles are identified by ``(name, sorted labels)``; asking twice
    returns the same object, asking with a conflicting type raises.
    Iteration order is registration order, which makes the exposition
    output stable (the golden test pins it).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[tuple, object] = {}

    def _get_or_create(self, cls, name: str, help: str,
                       labels: Optional[dict], **kwargs):
        key = (name, tuple(sorted((labels or {}).items())))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, help=help, labels=labels, **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}")
            return metric

    def counter(self, name: str, help: str = "",
                labels: Optional[dict] = None) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Optional[dict] = None,
              collect: Optional[Callable[[], float]] = None) -> Gauge:
        gauge = self._get_or_create(Gauge, name, help, labels)
        if collect is not None:
            gauge._collect = collect
        return gauge

    def histogram(self, name: str, help: str = "",
                  boundaries: Optional[Sequence[float]] = None,
                  labels: Optional[dict] = None) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   boundaries=boundaries)

    def snapshot(self) -> list[dict]:
        """Plain-JSON entries for every registered metric."""
        with self._lock:
            metrics = list(self._metrics.values())
        return [metric.snapshot() for metric in metrics]

    def render(self) -> str:
        """Prometheus text exposition of the whole registry."""
        return render_snapshot(self.snapshot())


# ----------------------------------------------------------------------
# No-op variants: structural disabling without call-site branches
# ----------------------------------------------------------------------
class _NullTimer:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None


class NullCounter:
    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class NullGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class NullHistogram:
    __slots__ = ()
    count = 0
    sum = 0.0

    def observe(self, value: float) -> None:
        pass

    def time(self) -> _NullTimer:
        return _NULL_TIMER

    def quantile(self, q: float) -> float:
        return math.nan


_NULL_TIMER = _NullTimer()
_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class NullRegistry:
    """Hands out shared no-op handles; snapshots are empty."""

    def counter(self, name: str, help: str = "",
                labels: Optional[dict] = None) -> NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, help: str = "",
              labels: Optional[dict] = None,
              collect: Optional[Callable[[], float]] = None) -> NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, help: str = "",
                  boundaries: Optional[Sequence[float]] = None,
                  labels: Optional[dict] = None) -> NullHistogram:
        return _NULL_HISTOGRAM

    def snapshot(self) -> list[dict]:
        return []

    def render(self) -> str:
        return ""


#: Shared disabled registry (``RecommendationService(metrics=False)``).
NULL_REGISTRY = NullRegistry()


# ----------------------------------------------------------------------
# Snapshot rendering
# ----------------------------------------------------------------------
def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: dict, extra: Optional[dict] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{key}="{value}"'
                     for key, value in sorted(merged.items()))
    return "{" + inner + "}"


def render_snapshot(entries: Sequence[dict]) -> str:
    """Prometheus text exposition (v0.0.4) of snapshot entries.

    ``# HELP``/``# TYPE`` headers are emitted once per family, series
    lines follow in snapshot order; histograms expose cumulative
    ``_bucket{le=...}`` lines plus ``_sum`` and ``_count``.
    """
    lines: list[str] = []
    seen_headers: set[str] = set()
    for entry in entries:
        name = entry["name"]
        if name not in seen_headers:
            seen_headers.add(name)
            if entry.get("help"):
                lines.append(f"# HELP {name} {entry['help']}")
            lines.append(f"# TYPE {name} {entry['type']}")
        if entry["type"] == "histogram":
            cumulative = 0
            for boundary, count in zip(entry["boundaries"], entry["counts"]):
                cumulative += count
                labels = _format_labels(entry["labels"],
                                        {"le": _format_value(boundary)})
                lines.append(f"{name}_bucket{labels} {cumulative}")
            cumulative += entry["counts"][-1]
            labels = _format_labels(entry["labels"], {"le": "+Inf"})
            lines.append(f"{name}_bucket{labels} {cumulative}")
            base = _format_labels(entry["labels"])
            lines.append(f"{name}_sum{base} {_format_value(entry['sum'])}")
            lines.append(f"{name}_count{base} {entry['count']}")
        else:
            labels = _format_labels(entry["labels"])
            lines.append(f"{name}{labels} {_format_value(entry['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")
