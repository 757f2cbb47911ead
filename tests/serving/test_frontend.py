"""Frontend equivalence and the serving bugfix sweep.

The contract under test: the selector-based micro-batching frontend
(``repro.serving.frontend.AsyncFrontend``) and the stdlib threaded
frontend answer the same sequential request stream with byte-identical
bodies, while the async loop actually coalesces concurrent
``/recommend`` calls into ``recommend_batch`` micro-batches whose
replies rank the same items with scores equal to within rounding.
Plus the timeout regression (S1): a half-sent request gets a 408 and a
closed connection instead of holding a worker hostage.
"""

import http.client
import json
import socket
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.experiments.registry import build_model
from repro.serving.server import build_server
from repro.serving.service import RecommendationService
from tests.helpers import make_tiny_dataset

pytestmark = [pytest.mark.serving, pytest.mark.streaming]

MAX_BATCH = 8


@pytest.fixture(scope="module")
def ds():
    return make_tiny_dataset(seed=0, n_users=12, n_items=15)


@pytest.fixture(scope="module")
def model(ds):
    return build_model("MF", ds, k=4, seed=0)


@contextmanager
def serve(service, frontend, **kwargs):
    server = build_server(service, max_update_batch=MAX_BATCH,
                          frontend=frontend, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def call(url, method, path, body=None):
    """One request; returns ``(status, content_type, body_bytes)``."""
    host, port = url.split("//")[1].split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        headers = {}
        data = None
        if body is not None:
            data = body if isinstance(body, bytes) else json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=data, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.getheader("Content-Type"), resp.read()
    finally:
        conn.close()


#: One deterministic request stream exercising the happy paths and every
#: class of client error, including state-changing updates mid-stream.
SCRIPT = [
    ("GET", "/healthz", None),
    ("GET", "/recommend?user=1&k=4", None),
    ("GET", "/recommend?user=2&k=4&exclude_seen=false", None),
    ("GET", "/recommend", None),
    ("GET", "/recommend?user=abc", None),
    ("GET", "/recommend?user=99999&k=4", None),
    ("GET", "/recommend?user=1&k=0", None),
    ("GET", "/nope", None),
    ("POST", "/update", {"user": 0, "item": 1}),
    ("POST", "/update", {"events": [[1, 2], [2, 3]]}),
    ("POST", "/update", b"{oops"),
    ("POST", "/update", b""),
    ("POST", "/update", b"[1, 2]"),
    ("POST", "/update", {"user": "0", "item": 1}),
    ("POST", "/update", {"events": [[0, 1]] * (MAX_BATCH + 1)}),
    ("POST", "/nope", {"user": 0, "item": 1}),
    ("GET", "/recommend?user=0&k=4", None),  # reflects the fold-ins above
]


def transcript(server):
    return [call(server.url, method, path, body)
            for method, path, body in SCRIPT]


class TestFrontendEquivalence:
    def test_byte_identical_bodies_across_frontends(self, model, ds):
        results = {}
        for frontend in ("threaded", "async"):
            service = RecommendationService(model, ds, top_k=5, cache_size=0)
            with serve(service, frontend) as server:
                results[frontend] = transcript(server)
        assert results["threaded"] == results["async"]
        statuses = [status for status, _, _ in results["async"]]
        assert statuses.count(200) == 6
        assert statuses.count(400) == 9
        assert statuses.count(404) == 2

    def test_metrics_shape_identical_across_frontends(self, model, ds):
        shapes = {}
        for frontend in ("threaded", "async"):
            service = RecommendationService(model, ds, top_k=5, cache_size=0)
            with serve(service, frontend) as server:
                call(server.url, "GET", "/recommend?user=1&k=4")
                status, ctype, body = call(server.url, "GET",
                                           "/metrics?format=json")
                assert status == 200 and ctype == "application/json"
                metrics = json.loads(body)["metrics"]
                shapes[frontend] = sorted(
                    (entry["name"], entry["type"], tuple(sorted(entry)))
                    for entry in metrics)
                # The text exposition must carry the same series.
                status, ctype, text = call(server.url, "GET", "/metrics")
                assert status == 200 and ctype.startswith("text/plain")
                for entry in metrics:
                    assert entry["name"].encode() in text
        assert shapes["threaded"] == shapes["async"]

    def test_concurrent_async_requests_all_succeed(self, model, ds):
        service = RecommendationService(model, ds, top_k=5, cache_size=0)
        results = [None] * 24
        with serve(service, "async") as server:
            def worker(i):
                user = i % ds.n_users
                status, _, body = call(server.url, "GET",
                                       f"/recommend?user={user}&k=3")
                results[i] = (status, json.loads(body)["user"], user)
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(results))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=15)
        assert all(r is not None for r in results)
        for status, got_user, want_user in results:
            assert status == 200 and got_user == want_user


class _CoalescingProbe:
    """Service proxy that counts ``recommend_batch`` calls and slows
    them down enough for queued requests to pile up behind the first."""

    def __init__(self, inner):
        self._inner = inner
        self.lock = threading.Lock()
        self.batch_calls = 0
        self.users_scored = 0

    def recommend_batch(self, users, k=None, exclude_seen=None):
        with self.lock:
            self.batch_calls += 1
            self.users_scored += len(users)
        time.sleep(0.02)
        return self._inner.recommend_batch(users, k=k,
                                           exclude_seen=exclude_seen)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestMicroBatching:
    def test_concurrent_recommends_coalesce(self, model, ds):
        n = 16
        probe = _CoalescingProbe(
            RecommendationService(model, ds, top_k=5, cache_size=0))
        with serve(probe, "async", batch_window=0.05,
                   max_batch=n) as server:
            results = [None] * n
            def worker(i):
                results[i] = call(server.url, "GET",
                                  f"/recommend?user={i % ds.n_users}&k=3")
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=15)
        assert all(status == 200 for status, _, _ in results)
        assert probe.users_scored == n
        # The point of the frontend: fewer scoring calls than requests.
        assert probe.batch_calls < n

    @staticmethod
    def coalesced_replies(model, ds):
        """Every user's ``/recommend?k=3`` reply, asked concurrently
        through the async frontend, plus the probe that served them."""
        probe = _CoalescingProbe(
            RecommendationService(model, ds, top_k=5, cache_size=0))
        with serve(probe, "async", batch_window=0.05, max_batch=32) as server:
            results = {}
            lock = threading.Lock()
            def worker(user):
                _, _, body = call(server.url, "GET",
                                  f"/recommend?user={user}&k=3")
                with lock:
                    results[user] = json.loads(body)
            threads = [threading.Thread(target=worker, args=(u,))
                       for u in range(ds.n_users)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=15)
        return results, probe

    def test_coalesced_responses_match_sequential(self, model, ds):
        """Batched answers must be the answers, not approximations."""
        reference = RecommendationService(model, ds, top_k=5, cache_size=0)
        want = {user: reference.recommend(user, k=3).to_dict()
                for user in range(ds.n_users)}
        results, _ = self.coalesced_replies(model, ds)
        assert results == want

    def test_coalesced_gml_fm_ranks_match_scores_within_rounding(self, ds):
        """The guarantee for GML-FMmd's closed-form grid: a coalesced
        reply ranks the same items as a single-user one, and its scores
        agree to within floating-point rounding (one row and several
        rows take different BLAS paths, so bytes may differ)."""
        model = build_model("GML-FMmd", ds, k=8, seed=0)
        reference = RecommendationService(model, ds, top_k=5, cache_size=0)
        results, probe = self.coalesced_replies(model, ds)
        assert probe.batch_calls < ds.n_users
        for user in range(ds.n_users):
            want = reference.recommend(user, k=3)
            got = results[user]
            assert got["user"] == user
            assert got["items"] == want.items.tolist()
            np.testing.assert_allclose(got["scores"], want.scores,
                                       rtol=1e-12, atol=1e-12)


def read_response(sock, timeout=10.0):
    """Parse one HTTP response off a raw socket; ``None`` if the peer
    closed without sending one."""
    sock.settimeout(timeout)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(4096)
        if not chunk:
            return None
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(b":")
        headers[key.decode().lower()] = value.strip().decode()
    length = int(headers.get("content-length", "0"))
    while len(body) < length:
        chunk = sock.recv(4096)
        if not chunk:
            break
        body += chunk
    return status, headers, body


def connect(server):
    host, port = server.server_address[:2]
    return socket.create_connection((host, port), timeout=10)


class TestRequestTimeouts:
    """S1: a stalled request must not hold a worker hostage.

    Before the fix the threaded frontend's handler thread blocked
    forever on a half-sent body; now both frontends give the client
    ``request_timeout`` seconds to finish, answer 408, and close.
    """

    @pytest.mark.parametrize("frontend", ["threaded", "async"])
    def test_half_sent_body_gets_408_and_close(self, model, ds, frontend):
        service = RecommendationService(model, ds, top_k=5, cache_size=0)
        with serve(service, frontend, request_timeout=0.4) as server:
            with connect(server) as sock:
                sock.sendall(b"POST /update HTTP/1.1\r\n"
                             b"Host: x\r\nContent-Type: application/json\r\n"
                             b"Content-Length: 100\r\n\r\n"
                             b'{"user": 0')  # ...and never finish
                response = read_response(sock)
                assert response is not None, "connection reset with no 408"
                status, headers, body = response
                assert status == 408
                assert json.loads(body) == {"error": "request timed out"}
                # The server must hang up, not wait for a retry.
                assert sock.recv(4096) == b""

    def test_async_half_sent_request_line_gets_408(self, model, ds):
        service = RecommendationService(model, ds, top_k=5, cache_size=0)
        with serve(service, "async", request_timeout=0.4) as server:
            with connect(server) as sock:
                sock.sendall(b"GET /heal")  # head never completes
                response = read_response(sock)
                assert response is not None
                assert response[0] == 408
                assert sock.recv(4096) == b""

    def test_async_idle_keepalive_closed_silently(self, model, ds):
        """An idle connection that sent *nothing* is not an error; it is
        reaped without a response (mirroring the threaded close)."""
        service = RecommendationService(model, ds, top_k=5, cache_size=0)
        with serve(service, "async", request_timeout=0.4) as server:
            with connect(server) as sock:
                assert read_response(sock) is None

    def test_threaded_worker_not_starved_by_stalled_peer(self, model, ds):
        """While one client stalls, other clients must keep being
        served — the original bug serialized behind the stalled read."""
        service = RecommendationService(model, ds, top_k=5, cache_size=0)
        with serve(service, "threaded", request_timeout=2.0) as server:
            with connect(server) as stalled:
                stalled.sendall(b"POST /update HTTP/1.1\r\nHost: x\r\n"
                                b"Content-Length: 50\r\n\r\n{")
                status, _, _ = call(server.url, "GET", "/healthz")
                assert status == 200


class TestAsyncProtocol:
    def test_keep_alive_serves_sequential_requests(self, model, ds):
        service = RecommendationService(model, ds, top_k=5, cache_size=0)
        with serve(service, "async") as server:
            with connect(server) as sock:
                for _ in range(3):
                    sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                    status, _, body = read_response(sock)
                    assert status == 200
                    assert json.loads(body) == {"status": "ok"}

    def test_pipelined_requests_each_get_a_response(self, model, ds):
        service = RecommendationService(model, ds, top_k=5, cache_size=0)
        with serve(service, "async") as server:
            with connect(server) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n" * 2)
                for _ in range(2):
                    status, _, body = read_response(sock)
                    assert status == 200
                    assert json.loads(body) == {"status": "ok"}

    def test_malformed_request_line_gets_400(self, model, ds):
        service = RecommendationService(model, ds, top_k=5, cache_size=0)
        with serve(service, "async") as server:
            with connect(server) as sock:
                sock.sendall(b"NONSENSE\r\nHost: x\r\n\r\n")
                status, _, body = read_response(sock)
                assert status == 400
                assert "malformed" in json.loads(body)["error"]

    def test_unsupported_method_gets_501(self, model, ds):
        service = RecommendationService(model, ds, top_k=5, cache_size=0)
        with serve(service, "async") as server:
            with connect(server) as sock:
                sock.sendall(b"DELETE /update HTTP/1.1\r\nHost: x\r\n\r\n")
                status, _, _ = read_response(sock)
                assert status == 501

    def test_invalid_content_length_gets_400(self, model, ds):
        service = RecommendationService(model, ds, top_k=5, cache_size=0)
        with serve(service, "async") as server:
            with connect(server) as sock:
                sock.sendall(b"POST /update HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: banana\r\n\r\n")
                status, _, body = read_response(sock)
                assert status == 400
                assert "Content-Length" in json.loads(body)["error"]

    def test_oversized_body_drained_and_rejected(self, model, ds):
        """Async twin of the threaded drain regression: a body far past
        the socket buffers still yields a clean 400, not a reset."""
        service = RecommendationService(model, ds, top_k=5, cache_size=0)
        with serve(service, "async") as server:
            padding = b'{"padding": "' + b"x" * (4 << 20) + b'"}'
            status, _, body = call(server.url, "POST", "/update",
                                   body=padding)
            assert status == 400
            assert "bytes exceeds" in json.loads(body)["error"]
