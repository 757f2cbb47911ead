"""Metrics registry: exactness under threads, quantiles, exposition.

The contracts the serving plane leans on: an N-thread hammer observes
the exact total (no lost increments), histogram percentiles are
monotone in q, a snapshot entry yields the same quantiles as its live
histogram, and the Prometheus text output is byte-stable
(golden-pinned).
"""

import math
import threading

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    default_latency_buckets,
    render_snapshot,
    snapshot_quantile,
)

pytestmark = pytest.mark.obs


def hammer(n_threads, fn):
    threads = [threading.Thread(target=fn) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestCounter:
    def test_exact_total_under_threads(self):
        counter = Counter("c")
        hammer(8, lambda: [counter.inc() for _ in range(5000)])
        assert counter.value == 8 * 5000

    def test_weighted_increments(self):
        counter = Counter("c")
        counter.inc(3)
        counter.inc(0.5)
        assert counter.value == 3.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7

    def test_collect_callback_reads_live(self):
        backing = [1, 2, 3]
        gauge = Gauge("g", collect=lambda: len(backing))
        assert gauge.value == 3
        backing.append(4)
        assert gauge.snapshot()["value"] == 4


class TestHistogram:
    def test_exact_count_and_sum_under_threads(self):
        hist = Histogram("h")
        hammer(8, lambda: [hist.observe(0.001 * (i % 7 + 1))
                           for i in range(4000)])
        assert hist.count == 8 * 4000
        expected = 8 * sum(0.001 * (i % 7 + 1) for i in range(4000))
        assert hist.sum == pytest.approx(expected)

    def test_percentiles_monotone(self):
        hist = Histogram("h")
        for i in range(1, 2000):
            hist.observe(i / 1000.0)
        quantiles = [hist.quantile(q) for q in
                     (0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0)]
        assert quantiles == sorted(quantiles)
        assert hist.quantile(0.5) == pytest.approx(1.0, rel=0.5)

    def test_overflow_bucket_reports_max(self):
        hist = Histogram("h", boundaries=(1.0, 2.0))
        hist.observe(50.0)
        hist.observe(70.0)
        assert hist.quantile(0.99) == 70.0

    def test_empty_is_nan(self):
        assert math.isnan(Histogram("h").quantile(0.5))

    def test_timer_observes_once(self):
        hist = Histogram("h")
        with hist.time():
            pass
        assert hist.count == 1
        assert hist.sum >= 0.0

    def test_default_buckets_span_microseconds_to_seconds(self):
        bounds = default_latency_buckets()
        assert bounds[0] < 1e-4 < 1.0 < bounds[-1]
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_bad_boundaries_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("h", boundaries=(2.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_handle(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("a", labels={"x": "1"}) is not \
            registry.counter("a")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("a")

    def test_null_registry_is_free_and_silent(self):
        counter = NULL_REGISTRY.counter("a")
        counter.inc(100)
        assert counter.value == 0.0
        with NULL_REGISTRY.histogram("h").time():
            pass
        assert NULL_REGISTRY.snapshot() == []
        assert NULL_REGISTRY.render() == ""


class TestSnapshotQuantile:
    def test_matches_live_histogram(self):
        hist = Histogram("lat", boundaries=(0.1, 1.0))
        for value in (0.05, 0.05, 0.5, 5.0):
            hist.observe(value)
        entry = hist.snapshot()
        for q in (0.25, 0.5, 0.75, 0.99):
            assert snapshot_quantile(entry, q) == hist.quantile(q)
        assert snapshot_quantile(entry, 0.99) == 5.0

    def test_non_histogram_rejected(self):
        with pytest.raises(ValueError, match="not a histogram"):
            snapshot_quantile(Counter("m").snapshot(), 0.5)


class TestExposition:
    def test_golden_text_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", "users requested").inc(4)
        registry.gauge("repro_train_loss", "last loss").set(0.25)
        hist = registry.histogram("repro_request_seconds", "latency",
                                  boundaries=(0.01, 0.1, 1.0))
        for value in (0.005, 0.005, 0.05, 2.0):
            hist.observe(value)
        assert registry.render() == (
            "# HELP repro_requests_total users requested\n"
            "# TYPE repro_requests_total counter\n"
            "repro_requests_total 4\n"
            "# HELP repro_train_loss last loss\n"
            "# TYPE repro_train_loss gauge\n"
            "repro_train_loss 0.25\n"
            "# HELP repro_request_seconds latency\n"
            "# TYPE repro_request_seconds histogram\n"
            'repro_request_seconds_bucket{le="0.01"} 2\n'
            'repro_request_seconds_bucket{le="0.1"} 3\n'
            'repro_request_seconds_bucket{le="1"} 3\n'
            'repro_request_seconds_bucket{le="+Inf"} 4\n'
            "repro_request_seconds_sum 2.06\n"
            "repro_request_seconds_count 4\n"
        )

    def test_labels_rendered_sorted(self):
        entry = Counter("c", labels={"shard": "1", "b": "x"}).snapshot()
        text = render_snapshot([entry])
        assert 'c{b="x",shard="1"} 0' in text

    def test_header_emitted_once_per_family(self):
        entries = [Counter("c", labels={"shard": str(i)}).snapshot()
                   for i in range(3)]
        text = render_snapshot(entries)
        assert text.count("# TYPE c counter") == 1
