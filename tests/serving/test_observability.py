"""Observability integration: the instrumented serving plane.

Three contracts:

1. **Zero perturbation** — recommendations are byte-identical with
   tracing on vs off (trace ids come from object identity and the
   monotonic clock, never from the model's RNG streams).
2. **Backward compatibility** — the legacy ``/stats`` JSON counters are
   now views over the metrics registry and must agree with it exactly.
3. **Exposure** — ``/metrics`` (Prometheus text and JSON) and
   ``/trace`` answer over HTTP.
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.data.synthetic import make_dataset
from repro.experiments.registry import build_model
from repro.serving import RecommendationService
from repro.serving.server import build_server

pytestmark = [pytest.mark.serving, pytest.mark.obs]


@pytest.fixture(scope="module")
def corpus():
    return make_dataset("amazon-auto", seed=0, scale=0.3)


@pytest.fixture(scope="module")
def model(corpus):
    return build_model("MF", corpus, k=8, seed=0)


@pytest.fixture(scope="module")
def request_stream(corpus):
    rng = np.random.default_rng(23)
    return rng.integers(0, corpus.n_users, size=32).tolist()


def body(rec) -> str:
    return json.dumps(rec.to_dict())


class TestTracingDoesNotPerturb:
    def test_single_service_byte_identical(self, model, corpus,
                                           request_stream):
        plain = RecommendationService(model, corpus, top_k=5)
        traced = RecommendationService(model, corpus, top_k=5, tracing=True)
        for user in request_stream:
            assert body(traced.recommend(user)) == body(plain.recommend(user))
        assert traced.traces(), "tracing was on but captured nothing"


class TestStatsBackwardCompat:
    def test_stats_counters_agree_with_registry(self, model, corpus):
        service = RecommendationService(model, corpus, top_k=5,
                                        cache_size=8)
        for user in (0, 1, 2, 0, 1):
            service.recommend(user)
        stats = service.stats()
        by_name = {(e["name"]): e for e in service.metrics_snapshot()
                   if not e.get("labels")}
        assert stats["requests"] == \
            by_name["repro_requests_total"]["value"] == 5
        assert stats["users_scored"] == \
            by_name["repro_users_scored_total"]["value"]
        cache = stats["cache"]
        assert cache["hits"] == by_name["repro_cache_hits_total"]["value"] == 2
        assert cache["misses"] == \
            by_name["repro_cache_misses_total"]["value"] == 3
        assert cache["size"] == by_name["repro_cache_size"]["value"] == 3
        assert by_name["repro_request_seconds"]["count"] == 5

    def test_metrics_off_keeps_stats_working(self, model, corpus):
        service = RecommendationService(model, corpus, top_k=5,
                                        metrics=False)
        service.recommend(0)
        stats = service.stats()
        assert stats["requests"] == 0  # null registry: counters stay 0
        assert service.metrics_snapshot() == []
        assert service.metrics_text() == ""

    def test_online_trainer_counters_still_integers(self, model, corpus):
        from repro.training.online import OnlineConfig

        service = RecommendationService(
            model, corpus, top_k=5,
            online_config=OnlineConfig(refresh_every=100))
        service.update_interactions([0, 1, 2, 3], [1, 2, 3, 4])
        online = service.online
        assert online.events_seen == 4
        # These feed seed arithmetic (config.seed + refreshes) — they
        # must stay true ints even though a Counter backs them now.
        assert isinstance(online.events_seen, int)
        assert isinstance(online.updates_applied, int)
        assert isinstance(online.refreshes, int)
        by_name = {e["name"]: e for e in service.metrics_snapshot()}
        assert by_name["repro_online_events_total"]["value"] == 4


class TestHTTPEndpoints:
    @pytest.fixture()
    def http_service(self, model, corpus):
        service = RecommendationService(model, corpus, top_k=5, tracing=True)
        server = build_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server.url
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def fetch(self, url):
        with urllib.request.urlopen(url, timeout=10) as resp:
            return (resp.status, resp.headers.get("Content-Type"),
                    resp.read().decode())

    def test_metrics_text_is_prometheus(self, http_service):
        self.fetch(http_service + "/recommend?user=0")
        status, ctype, text = self.fetch(http_service + "/metrics")
        assert status == 200
        assert ctype == "text/plain; version=0.0.4"
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 1" in text
        assert 'repro_request_seconds_bucket{le="+Inf"} 1' in text

    def test_metrics_json_snapshot(self, http_service):
        self.fetch(http_service + "/recommend?user=1")
        status, ctype, payload = self.fetch(
            http_service + "/metrics?format=json")
        assert status == 200 and ctype.startswith("application/json")
        entries = json.loads(payload)["metrics"]
        names = {e["name"] for e in entries}
        assert {"repro_requests_total", "repro_request_seconds"} <= names

    def test_metrics_unknown_format_400(self, http_service):
        with pytest.raises(urllib.error.HTTPError) as err:
            self.fetch(http_service + "/metrics?format=xml")
        assert err.value.code == 400

    def test_trace_endpoint_returns_spans(self, http_service):
        self.fetch(http_service + "/recommend?user=2")
        status, _, payload = self.fetch(http_service + "/trace?n=1")
        assert status == 200
        (trace,) = json.loads(payload)["traces"]
        assert trace["name"] == "recommend_batch"
        span_names = {s["name"] for s in trace["spans"]}
        assert "cache_lookup" in span_names
        assert "rerank" in span_names
