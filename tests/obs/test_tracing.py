"""Tracer contracts: opt-in cost model, nesting, bounded ring."""

import threading

import pytest

from repro.obs.tracing import Tracer, _NULL_CONTEXT

pytestmark = pytest.mark.obs


class TestDisabled:
    def test_start_and_span_are_shared_noops(self):
        tracer = Tracer(enabled=False)
        assert tracer.start("req") is _NULL_CONTEXT
        assert tracer.span("section") is _NULL_CONTEXT
        with tracer.start("req"):
            pass
        assert tracer.traces() == []


class TestEnabled:
    def test_trace_collects_spans_with_offsets(self):
        tracer = Tracer(enabled=True)
        with tracer.start("recommend") as trace:
            assert tracer.current() is trace
            with tracer.span("cache_lookup", users=3):
                pass
            with tracer.span("rerank"):
                pass
        assert tracer.current() is None
        (exported,) = tracer.traces()
        assert exported["name"] == "recommend"
        assert len(exported["trace_id"]) == 16
        names = [s["name"] for s in exported["spans"]]
        assert names == ["cache_lookup", "rerank"]
        assert exported["spans"][0]["tags"] == {"users": 3}
        assert exported["duration_ms"] >= 0.0

    def test_trace_ids_unique(self):
        tracer = Tracer(enabled=True)
        for _ in range(50):
            with tracer.start("req"):
                pass
        ids = [t["trace_id"] for t in tracer.traces()]
        assert len(set(ids)) == 50

    def test_nested_start_becomes_child_span(self):
        # The outer operation owns the trace; an inner start() must
        # nest instead of clobbering it.
        tracer = Tracer(enabled=True)
        with tracer.start("outer_op") as trace:
            with tracer.start("service_op"):
                with tracer.span("deep"):
                    pass
            assert tracer.current() is trace
        (exported,) = tracer.traces()
        assert exported["name"] == "outer_op"
        assert {"service_op", "deep"} <= {s["name"] for s in exported["spans"]}

    def test_ring_is_bounded_newest_first(self):
        tracer = Tracer(enabled=True, capacity=4)
        for index in range(10):
            with tracer.start(f"req{index}"):
                pass
        names = [t["name"] for t in tracer.traces()]
        assert names == ["req9", "req8", "req7", "req6"]
        assert [t["name"] for t in tracer.traces(2)] == ["req9", "req8"]

    def test_thread_isolation(self):
        tracer = Tracer(enabled=True)
        seen = {}

        def worker(name):
            with tracer.start(name):
                seen[name] = tracer.current().name

        threads = [threading.Thread(target=worker, args=(f"t{i}",))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == {f"t{i}": f"t{i}" for i in range(4)}

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            Tracer(capacity=0)
