"""Seeded load harness against a live HTTP server.

N concurrent client threads drive a reproducible Zipf-skewed request
mix (:mod:`repro.scenarios.loadgen`) at a real threaded
``build_server`` + :class:`~repro.serving.service.RecommendationService`
stack and assert the three things a load test can prove:

- **zero errors** under concurrency (every scheduled request answered
  200 with a well-formed body);
- **response equivalence** — each body is byte-identical to what the
  in-process service returns for that user;
- **latency sanity** — p50/p99 are finite and measured (printed here;
  the JSON benchmark record with the throughput gate lives in
  ``benchmarks/test_frontend_throughput.py``).

Sized for the fast tier: a small corpus, a few hundred requests, a
client count that does not assume a many-core box.
"""

import json
import threading

import numpy as np
import pytest

from repro.data.synthetic import make_dataset
from repro.experiments.registry import build_model
from repro.scenarios.loadgen import drive, zipf_users
from repro.serving import RecommendationService, build_server

pytestmark = [pytest.mark.serving, pytest.mark.cluster]

N_REQUESTS = 240
N_CLIENTS = 8
TOP_K = 5


@pytest.fixture(scope="module")
def corpus():
    return make_dataset("amazon-auto", seed=0, scale=0.3)


@pytest.fixture(scope="module")
def model(corpus):
    return build_model("BPR-MF", corpus, k=8, seed=0)


@pytest.fixture(scope="module")
def reference_bodies(model, corpus):
    """What the single-process service answers for every user."""
    service = RecommendationService(model, corpus, top_k=TOP_K)
    return {user: json.dumps(service.recommend(user).to_dict())
            for user in range(corpus.n_users)}


def serve(model, corpus):
    server = build_server(RecommendationService(model, corpus, top_k=TOP_K))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


class TestZipfSchedule:
    def test_schedule_is_seeded_and_skewed(self, corpus):
        first = zipf_users(corpus.n_users, 1000, seed=3)
        np.testing.assert_array_equal(first,
                                      zipf_users(corpus.n_users, 1000, seed=3))
        assert not np.array_equal(first, zipf_users(corpus.n_users, 1000,
                                                    seed=4))
        assert first.min() >= 0 and first.max() < corpus.n_users
        # Skew: the busiest user dominates a uniform mix's expectation.
        top_share = np.bincount(first).max() / first.size
        assert top_share > 5.0 / corpus.n_users

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            zipf_users(0, 10)
        with pytest.raises(ValueError):
            zipf_users(10, 0)


class TestConcurrentLoad:
    def test_concurrent_load_zero_errors_and_equivalence(
            self, model, corpus, reference_bodies):
        schedule = zipf_users(corpus.n_users, N_REQUESTS, seed=0)
        server = serve(model, corpus)
        try:
            result = drive(server.url, schedule, n_threads=N_CLIENTS,
                           k=TOP_K)
        finally:
            server.shutdown()
            server.server_close()
        assert result.errors == []
        assert result.n_requests == N_REQUESTS
        for position, body in enumerate(result.responses):
            user = int(schedule[position])
            assert body["user"] == user
            assert json.dumps(body) == reference_bodies[user]
        summary = result.summary()
        assert 0 < summary["p50_ms"] <= summary["p99_ms"]
        assert summary["req_per_sec"] > 0
        print(f"\nconcurrent load: {summary['requests']} requests, "
              f"{summary['req_per_sec']:.0f} req/s, "
              f"p50={summary['p50_ms']:.1f}ms p99={summary['p99_ms']:.1f}ms")
