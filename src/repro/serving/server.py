"""Stdlib HTTP front-end and the ``repro serve`` entry point.

Endpoints (JSON over ``http.server``; no third-party dependencies):

- ``GET /recommend?user=<id>&k=<n>[&exclude_seen=0|1]`` — ranked list
- ``POST /update`` — ingest observed interactions; body is either one
  event ``{"user": u, "item": i}`` or a batch
  ``{"events": [[u, i], ...]}`` (at most ``max_update_batch`` events).
  With ``--online``, events also fold into the model incrementally.
- ``GET /healthz`` — liveness probe
- ``GET /stats`` — service counters (requests, cache hit rate, …)
- ``GET /metrics`` — Prometheus text exposition (``?format=json`` for
  the raw snapshot entries)
- ``GET /trace?n=<count>`` — recent request traces (requires
  ``--trace``; empty list otherwise)

``serve_main`` backs the CLI subcommand: it boots a service from an
artifact bundle or a freshly built (optionally quick-trained) model and
blocks in ``serve_forever``.  ``--selfcheck`` instead boots on a small
synthetic dataset, issues one query over real HTTP and exits 0 — a CI
smoke gate.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.serving.service import RecommendationService

#: Status lines http.server knows; the async frontend reuses them so
#: both frontends emit identical reason phrases.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4"
JSON_CONTENT_TYPE = "application/json"

#: Default per-connection socket timeout (seconds).  A client that
#: stalls mid-request would otherwise pin a handler thread forever; the
#: read trips instead, the connection gets a 408 (or a plain close when
#: not even the request line arrived) and the thread is reclaimed.
DEFAULT_REQUEST_TIMEOUT = 30.0


# ----------------------------------------------------------------------
# Request semantics shared by the threaded and async frontends.
#
# Both frontends answer every endpoint through these helpers, so status
# codes, error bodies and every non-/recommend body are byte-identical
# by construction — the frontends differ only in transport
# (thread-per-request blocking I/O vs one selector loop) and in how
# /recommend calls are batched (see ``serving.frontend`` for what
# batching preserves).
# ----------------------------------------------------------------------
def json_response(status: int, payload: dict) -> tuple[int, str, bytes]:
    return status, JSON_CONTENT_TYPE, json.dumps(payload).encode("utf-8")


def error_response(exc: BaseException) -> tuple[int, str, bytes]:
    """The shared exception → HTTP status mapping.

    ``ValueError``/``OverflowError`` are client-input invalidity (ids
    that overflow the int64 arrays included) → 400; anything else is a
    server fault → 500.
    """
    if isinstance(exc, (ValueError, OverflowError)):
        return json_response(400, {"error": str(exc)})
    return json_response(500, {"error": f"{type(exc).__name__}: {exc}"})


def parse_recommend_query(query: dict) -> tuple[int, Optional[int],
                                                Optional[bool]]:
    """``(user, k, exclude_seen)`` from a parsed query string.

    ``None`` means "service default" for ``k``/``exclude_seen``.
    """
    if "user" not in query:
        raise ValueError("missing required query parameter 'user'")
    try:
        user = int(query["user"][0])
        k = int(query["k"][0]) if "k" in query else None
    except ValueError:
        raise ValueError("'user' and 'k' must be integers") from None
    exclude_seen = None
    if "exclude_seen" in query:
        exclude_seen = (query["exclude_seen"][0].strip().lower()
                        not in ("0", "false", "no"))
    return user, k, exclude_seen


def parse_update_payload(payload: dict,
                         max_update_batch: int) -> tuple[list, list]:
    """Validate an /update body into parallel ``(users, items)`` lists."""
    if "events" in payload:
        events = payload["events"]
        if not isinstance(events, list) or not events:
            raise ValueError("'events' must be a non-empty list")
        if len(events) > max_update_batch:
            raise ValueError(
                f"batch of {len(events)} events exceeds the limit of "
                f"{max_update_batch} per request")
    elif "user" in payload and "item" in payload:
        # A single event is just a batch of one: share the
        # validation below.
        events = [payload]
    else:
        raise ValueError(
            "body must carry 'user' + 'item' or an 'events' list")
    users, items = [], []
    for event in events:
        if isinstance(event, dict):
            pair = (event.get("user"), event.get("item"))
        elif isinstance(event, (list, tuple)) and len(event) == 2:
            pair = tuple(event)
        else:
            raise ValueError(
                "each event must be {'user': u, 'item': i} or [u, i]")
        if not all(isinstance(v, int) and not isinstance(v, bool)
                   for v in pair):
            raise ValueError("'user' and 'item' must be integers")
        users.append(pair[0])
        items.append(pair[1])
    return users, items


def decode_json_body(body: bytes) -> dict:
    """Parse a request body as a JSON object (ValueError on anything else)."""
    if not body:
        raise ValueError("empty request body (expected JSON)")
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON body: {exc.msg}") from None
    if not isinstance(payload, dict):
        raise ValueError("JSON body must be an object")
    return payload


def oversized_body_error(length: int, limit: int) -> ValueError:
    return ValueError(f"request body of {length} bytes exceeds the limit of "
                      f"{limit} bytes")


def respond_get(service, target: str) -> tuple[int, str, bytes]:
    """Answer any GET endpoint; raises for the error mapping to catch."""
    url = urlsplit(target)
    query = parse_qs(url.query)
    if url.path == "/healthz":
        return json_response(200, {"status": "ok"})
    if url.path == "/stats":
        return json_response(200, service.stats())
    if url.path == "/metrics":
        fmt = query.get("format", ["text"])[0].strip().lower()
        if fmt == "json":
            return json_response(200, {"metrics": service.metrics_snapshot()})
        if fmt == "text":
            return (200, METRICS_CONTENT_TYPE,
                    service.metrics_text().encode("utf-8"))
        raise ValueError(f"unknown metrics format {fmt!r} "
                         f"(options: text, json)")
    if url.path == "/trace":
        try:
            n = int(query["n"][0]) if "n" in query else 20
        except ValueError:
            raise ValueError("'n' must be an integer") from None
        if n < 0:
            raise ValueError("'n' must be non-negative")
        return json_response(200, {"traces": service.traces(n)})
    if url.path == "/recommend":
        user, k, exclude_seen = parse_recommend_query(query)
        rec = service.recommend(user, k=k, exclude_seen=exclude_seen)
        return json_response(200, rec.to_dict())
    return json_response(404, {"error": f"unknown path {url.path!r}"})


def respond_post(service, target: str, body: bytes,
                 max_update_batch: int) -> tuple[int, str, bytes]:
    """Answer any POST endpoint; raises for the error mapping to catch."""
    url = urlsplit(target)
    if url.path == "/update":
        users, items = parse_update_payload(decode_json_body(body),
                                            max_update_batch)
        return json_response(200, service.update_interactions(users, items))
    return json_response(404, {"error": f"unknown path {url.path!r}"})


class RecommendHandler(BaseHTTPRequestHandler):
    """Routes GET requests onto the server's attached service."""

    server: "RecommendationServer"

    def setup(self) -> None:
        # Applied before any read: StreamRequestHandler.setup calls
        # settimeout with this value, so even the request line cannot
        # stall the thread past the budget.
        self.timeout = self.server.request_timeout
        super().setup()

    def _send(self, response: tuple[int, str, bytes]) -> None:
        status, content_type, body = response
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _reply(self, status: int, payload: dict) -> None:
        self._send(json_response(status, payload))

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        try:
            self._send(respond_get(self.server.service, self.path))
        except TimeoutError:
            self._timed_out()
        except Exception as exc:
            self._send(error_response(exc))

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        try:
            self._send(respond_post(self.server.service, self.path,
                                    self._read_body(),
                                    self.server.max_update_batch))
        except TimeoutError:
            self._timed_out()
        except Exception as exc:
            self._send(error_response(exc))

    def _timed_out(self) -> None:
        """The client stalled mid-body: answer 408 and drop the socket.

        (A stall before the headers completed never reaches a handler
        method — ``handle_one_request`` hits the same socket timeout on
        its first read and closes the connection without a response.)
        """
        self._reply(408, {"error": "request timed out"})
        self.close_connection = True

    def _read_body(self) -> bytes:
        """Read the request body (raises the shared oversize ValueError)."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            raise ValueError("invalid Content-Length header") from None
        limit = self.server.max_body_bytes
        if length > limit:
            # Checked before buffering: the cap must bound memory, not
            # just event counts.  The rejected body is still *drained*
            # (chunked, never held) — answering without reading leaves
            # the client blocked mid-send on a full socket buffer, and
            # it sees a connection reset instead of this 400.  Truly
            # abusive declarations fall past the drain ceiling and get
            # the reset they deserve.
            self._discard_body(length)
            raise oversized_body_error(length, limit)
        return self.rfile.read(length) if length > 0 else b""

    def _discard_body(self, length: int, ceiling: int = 16 << 20) -> None:
        """Read and drop an oversized request body in bounded chunks."""
        remaining = min(length, ceiling)
        while remaining > 0:
            chunk = self.rfile.read(min(65536, remaining))
            if not chunk:
                break
            remaining -= len(chunk)

    def log_message(self, format: str, *args) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)


class RecommendationServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service for its handlers.

    ``service`` is anything with the
    :class:`RecommendationService` call surface; the handlers only use
    the methods the shared ``respond_get`` / ``respond_post`` helpers
    call.
    """

    daemon_threads = True

    def __init__(self, service: "RecommendationService",
                 host: str = "127.0.0.1", port: int = 0,
                 verbose: bool = False, max_update_batch: int = 1024,
                 max_body_bytes: int = 1 << 20,
                 request_timeout: float = DEFAULT_REQUEST_TIMEOUT):
        if max_update_batch <= 0:
            raise ValueError("max_update_batch must be positive")
        if max_body_bytes <= 0:
            raise ValueError("max_body_bytes must be positive")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError("request_timeout must be positive (or None)")
        super().__init__((host, port), RecommendHandler)
        self.service = service
        self.verbose = verbose
        self.max_update_batch = max_update_batch
        self.max_body_bytes = max_body_bytes
        self.request_timeout = request_timeout

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


FRONTENDS = ("threaded", "async")


def build_server(service: RecommendationService, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False,
                 max_update_batch: int = 1024,
                 max_body_bytes: int = 1 << 20,
                 request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
                 frontend: str = "threaded", **frontend_kwargs):
    """Bind (port 0 = ephemeral) without starting the accept loop.

    ``frontend`` picks the transport: ``"threaded"`` is the stdlib
    thread-per-request server, ``"async"`` the selector-based
    micro-batching event loop (:class:`repro.serving.frontend.AsyncFrontend`).
    Both return an object with the same operational surface
    (``url`` / ``serve_forever`` / ``shutdown`` / ``server_close``) and
    the same response semantics.
    """
    if frontend == "threaded":
        if frontend_kwargs:
            raise TypeError(f"threaded frontend does not accept "
                            f"{sorted(frontend_kwargs)}")
        return RecommendationServer(service, host=host, port=port,
                                    verbose=verbose,
                                    max_update_batch=max_update_batch,
                                    max_body_bytes=max_body_bytes,
                                    request_timeout=request_timeout)
    if frontend == "async":
        from repro.serving.frontend import AsyncFrontend

        return AsyncFrontend(service, host=host, port=port, verbose=verbose,
                             max_update_batch=max_update_batch,
                             max_body_bytes=max_body_bytes,
                             request_timeout=request_timeout,
                             **frontend_kwargs)
    raise ValueError(f"unknown frontend {frontend!r}; options: {FRONTENDS}")


# ----------------------------------------------------------------------
# CLI backing
# ----------------------------------------------------------------------
def _build_service(args) -> RecommendationService:
    from repro.data.sampling import NegativeSampler
    from repro.data.synthetic import make_dataset
    from repro.experiments.configs import get_scale
    from repro.experiments.registry import build_model, is_pairwise
    from repro.serving.ann import ANNConfig
    from repro.training.online import IncrementalTrainer, OnlineConfig
    from repro.training.trainer import TrainConfig, Trainer

    def ann_config():
        if not getattr(args, "ann", False):
            return None
        return ANNConfig(n_clusters=getattr(args, "ann_clusters", None),
                         probes=getattr(args, "ann_probes", None),
                         seed=args.seed)

    def online_config_for(model_name: str):
        # Serving default is user-side-only fold-in: cached lists of
        # untouched users stay exactly valid, so /update invalidates
        # only the touched users' entries.  Pairwise-trained models
        # (BPR-MF, NGCF) fold in with BPR steps — squared-loss steps
        # toward +/-1 would distort their uncalibrated ranking scores.
        if not getattr(args, "online", False):
            return None
        return OnlineConfig(
            sides=("user",), seed=args.seed,
            objective="pairwise" if is_pairwise(model_name) else "pointwise")

    tracing = getattr(args, "trace", False)
    if args.artifact:
        service = RecommendationService.from_artifact(
            args.artifact, mmap=getattr(args, "mmap", False),
            top_k=args.top_k, cache_size=args.cache_size,
            ann=ann_config(), tracing=tracing)
        # The objective depends on the bundled model's name, which is
        # only known after loading — attach the trainer afterwards.
        config = online_config_for(service.model_name)
        if config is not None:
            service.online = IncrementalTrainer(
                service.model, service.dataset, config)
        return service

    scale = get_scale(args.scale)
    dataset = make_dataset(args.dataset, seed=args.seed,
                           scale=scale.dataset_scale)
    model = build_model(args.model, dataset, k=args.k, seed=args.seed,
                        train_users=dataset.users, train_items=dataset.items)
    if args.epochs > 0:
        sampler = NegativeSampler(dataset, seed=args.seed)
        backend = getattr(args, "backend", None)
        extra = {} if backend is None else {"backend": backend}
        trainer = Trainer(model, TrainConfig(epochs=args.epochs,
                                             seed=args.seed, **extra))
        index = np.arange(dataset.n_interactions)
        if is_pairwise(args.model):
            users, pos, neg = sampler.build_pairwise_training_set(index)
            trainer.fit_pairwise(users, pos, neg)
        else:
            users, items, labels = sampler.build_pointwise_training_set(index, n_neg=2)
            trainer.fit_pointwise(users, items, labels)
    service = RecommendationService(model, dataset, top_k=args.top_k,
                                    cache_size=args.cache_size,
                                    online_config=online_config_for(args.model),
                                    ann=ann_config(), tracing=tracing)
    service.model_name = args.model
    return service


def selfcheck(verbose: bool = True) -> int:
    """Boot on a synthetic dataset, probe every endpoint, exit 0 on success.

    Covers the observability surfaces too: ``/metrics`` must expose the
    request counters the query just incremented and ``/trace`` must
    show the request's trace (the selfcheck service runs with tracing
    on).  The static contract checker runs as part of the gate: a
    ``repro lint --strict`` violation anywhere in the package fails
    the selfcheck exactly like a broken endpoint would.
    """
    import urllib.request

    from repro.data.synthetic import make_dataset
    from repro.experiments.registry import build_model
    from repro.lint.engine import run_lint

    lint_report = run_lint(strict=True)

    dataset = make_dataset("amazon-auto", seed=0, scale=0.1)
    model = build_model("GML-FMmd", dataset, k=8, seed=0)
    service = RecommendationService(model, dataset, top_k=5, cache_size=64,
                                    tracing=True)
    service.model_name = "GML-FMmd"
    server = build_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with urllib.request.urlopen(server.url + "/healthz", timeout=10) as resp:
            health = json.loads(resp.read())
        with urllib.request.urlopen(server.url + "/recommend?user=0&k=5",
                                    timeout=10) as resp:
            rec = json.loads(resp.read())
        with urllib.request.urlopen(server.url + "/metrics", timeout=10) as resp:
            metrics = resp.read().decode("utf-8")
        with urllib.request.urlopen(server.url + "/trace?n=5", timeout=10) as resp:
            traces = json.loads(resp.read())["traces"]
        ok = (health.get("status") == "ok"
              and rec.get("user") == 0
              and len(rec.get("items", [])) == 5
              and len(set(rec["items"])) == 5
              and "repro_requests_total 1" in metrics
              and "repro_request_seconds_bucket" in metrics
              and any(t["name"] == "recommend_batch" and t["spans"]
                      for t in traces)
              and lint_report.ok)
        if verbose:
            lint_state = ("clean" if lint_report.ok
                          else f"{len(lint_report.findings)} finding(s)")
            state = ("ok" if ok
                     else f"FAILED (health={health}, rec={rec}, "
                          f"traces={len(traces)}, lint={lint_state})")
            print(f"selfcheck {state}: served user 0 top-5 {rec.get('items')} "
                  f"on {server.url}; /metrics and /trace answered; "
                  f"lint {lint_state} "
                  f"({lint_report.files_checked} files)")
        return 0 if ok else 1
    finally:
        server.shutdown()
        server.server_close()


def serve_main(args) -> int:
    """Entry point behind ``python -m repro serve``.

    One process serves one model: it is one failure domain.  Restarting
    it, or running several behind a load balancer, is the job of a
    supervisor in front of it.
    """
    if args.selfcheck:
        return selfcheck()
    if getattr(args, "mmap", False) and not args.artifact:
        raise SystemExit("--mmap requires --artifact (a dir-layout bundle)")
    service = _build_service(args)
    server = build_server(service, host=args.host, port=args.port,
                          verbose=args.verbose, frontend=args.frontend)
    stats = service.stats()
    # Printed (and flushed) before blocking so callers binding port 0
    # can discover the ephemeral port.
    print(f"serving {stats['model']} on {server.url} "
          f"(dataset={stats['dataset']}, items={stats['n_items']}, "
          f"frontend={args.frontend})",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0
