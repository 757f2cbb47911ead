"""Async micro-batching frontend vs the threaded frontend: JSON records
and gates.

Two records land in ``benchmarks/results/frontend_throughput.json``
(or ``REPRO_BENCH_JSON``):

- ``frontend_throughput`` — the same single-process service driven by
  the seeded Zipf harness behind each frontend (cache disabled so both
  sides score every request).  **Gate**: async req/s ≥ threaded req/s.
  Coalescing concurrent ``/recommend`` calls into one
  ``recommend_batch`` grid pass is the frontend's entire reason to
  exist; if the event loop cannot at least match thread-per-request on
  the same workload, it is a regression, on any core count.
- ``frontend_parity`` — byte-level response equivalence: both frontends
  answer a scripted request stream (happy paths, every client-error
  class, state-changing updates) against the same single-process
  service and the bodies must be byte-identical; ``/metrics`` must
  expose the same series shape.  **Gate**: parity holds.
"""

import json
import threading

import pytest

from repro.data.synthetic import make_dataset
from repro.experiments.registry import build_model
from repro.scenarios.loadgen import drive, zipf_users
from repro.serving import RecommendationService, build_server
from conftest import emit_bench_records

pytestmark = [pytest.mark.serving, pytest.mark.streaming]

MODEL = "BPR-MF"
TOP_K = 10
N_REQUESTS = 400
N_CLIENTS = 8
ASYNC_GATE = 1.0

PARITY_SCRIPT = [
    ("GET", "/healthz", None),
    ("GET", "/recommend?user=1&k=10", None),
    ("GET", "/recommend?user=2&k=10&exclude_seen=false", None),
    ("GET", "/recommend", None),
    ("GET", "/recommend?user=abc", None),
    ("GET", "/recommend?user=999999&k=10", None),
    ("GET", "/nope", None),
    ("POST", "/update", {"user": 0, "item": 1}),
    ("POST", "/update", {"events": [[1, 2], [2, 3]]}),
    ("POST", "/update", b"{oops"),
    ("POST", "/update", b"[1, 2]"),
    ("GET", "/recommend?user=0&k=10", None),
]


def _serve(service, frontend):
    server = build_server(service, frontend=frontend)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _call(url, method, path, body=None):
    import http.client

    host, port = url.split("//")[1].split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        data = None
        headers = {}
        if body is not None:
            data = body if isinstance(body, bytes) else json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=data, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.getheader("Content-Type"), resp.read()
    finally:
        conn.close()


def measure_throughput(model, dataset) -> dict:
    schedule = zipf_users(dataset.n_users, N_REQUESTS, seed=0)
    results = {}
    for frontend in ("threaded", "async"):
        # Fresh service per frontend: identical cold state both times.
        service = RecommendationService(model, dataset, top_k=TOP_K,
                                        cache_size=0)
        server, thread = _serve(service, frontend)
        try:
            outcome = drive(server.url, schedule, n_threads=N_CLIENTS,
                            k=TOP_K)
        finally:
            _stop(server, thread)
        assert outcome.errors == [], outcome.errors[:3]
        results[frontend] = outcome.summary()

    ratio = (results["async"]["req_per_sec"]
             / results["threaded"]["req_per_sec"])
    return {
        "benchmark": "frontend_throughput",
        "model": MODEL,
        "n_users": dataset.n_users,
        "n_items": dataset.n_items,
        "requests": N_REQUESTS,
        "clients": N_CLIENTS,
        "threaded": results["threaded"],
        "async": results["async"],
        "speedup_req_per_sec": ratio,
        "gate": f"async req/s >= {ASYNC_GATE}x threaded req/s",
        "gate_passed": bool(ratio >= ASYNC_GATE),
    }


def measure_parity(model, dataset) -> dict:
    transcripts = {}
    shapes = {}
    for frontend in ("threaded", "async"):
        service = RecommendationService(model, dataset, top_k=TOP_K,
                                        cache_size=0)
        server, thread = _serve(service, frontend)
        try:
            transcripts[frontend] = [
                _call(server.url, method, path, body)
                for method, path, body in PARITY_SCRIPT]
            _, _, metrics_body = _call(server.url, "GET",
                                       "/metrics?format=json")
            shapes[frontend] = sorted(
                (entry["name"], entry["type"], tuple(sorted(entry)))
                for entry in json.loads(metrics_body)["metrics"])
        finally:
            _stop(server, thread)
    mismatches = []
    if transcripts["threaded"] != transcripts["async"]:
        mismatches.append("response bodies differ")
    if shapes["threaded"] != shapes["async"]:
        mismatches.append("metrics shape differs")
    return {
        "benchmark": "frontend_parity",
        "model": MODEL,
        "script_requests": len(PARITY_SCRIPT),
        "mismatches": mismatches,
        "gate": "byte-identical bodies and metrics shape across frontends",
        "gate_passed": not mismatches,
    }


def test_frontend_throughput(benchmark):
    dataset = make_dataset("movielens", seed=0, scale=2.0)
    model = build_model(MODEL, dataset, k=32, seed=0)

    def run_sweep():
        return [measure_throughput(model, dataset),
                measure_parity(model, dataset)]

    records = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit_bench_records(records, "frontend_throughput.json")

    throughput, parity = records
    print(f"\nFrontend throughput, {throughput['n_users']} users x "
          f"{throughput['n_items']} items, {N_CLIENTS} clients")
    print(f"  threaded: {throughput['threaded']['req_per_sec']:8.1f} req/s  "
          f"p50={throughput['threaded']['p50_ms']:.1f}ms "
          f"p99={throughput['threaded']['p99_ms']:.1f}ms")
    print(f"  async   : {throughput['async']['req_per_sec']:8.1f} req/s  "
          f"p50={throughput['async']['p50_ms']:.1f}ms "
          f"p99={throughput['async']['p99_ms']:.1f}ms  "
          f"({throughput['speedup_req_per_sec']:.2f}x)")
    verdict = "ok" if parity["gate_passed"] else parity["mismatches"]
    print(f"  parity  : {verdict}")

    assert throughput["gate_passed"], (
        f"async frontend only {throughput['speedup_req_per_sec']:.2f}x "
        f"the threaded frontend's req/s")
    assert parity["gate_passed"], parity["mismatches"]
