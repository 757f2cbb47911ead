"""Selector-based micro-batching HTTP frontend for the serving stack.

The stdlib threaded frontend (:mod:`repro.serving.server`) spends one
OS thread per in-flight request and scores every ``/recommend`` call
alone.  Under the coarse service lock that buys no parallelism — the
threads mostly queue on the lock while paying thread-switch and
per-connection setup costs.  :class:`AsyncFrontend` inverts the design:

- one **event loop** (``selectors`` over non-blocking sockets) owns all
  connections — accept, HTTP/1.1 parsing, timeouts, and response
  writes;
- one **dispatcher thread** executes requests against the service, and
  **coalesces** concurrent ``/recommend`` requests into
  ``service.recommend_batch`` micro-batches (bounded by
  ``batch_window`` seconds and ``max_batch`` users), so N queued
  lookups cost one grid scoring pass instead of N.

Both frontends route through the shared request-semantics helpers in
``serving.server`` (``respond_get`` / ``respond_post`` /
``error_response``), so statuses, error bodies and every uncoalesced
response are byte-identical to the threaded frontend.  A coalesced
``/recommend`` reply carries the same ranked items as a single-user
one, with scores equal to within floating-point rounding — not byte
for byte: numpy scores one user row with a matrix-vector product and
several with a matrix-matrix product, which sum in different orders
(differences of order 1e-14 relative for GML-FMmd).  Only a near-tie
— two scores within rounding of each other — could swap adjacent
items.  When a
batch fails as a whole (one bad request must not poison its
neighbors), the dispatcher falls back to per-request execution, which
reproduces the threaded error behavior request-for-request.

The operational surface matches ``ThreadingHTTPServer`` where the rest
of the repo relies on it: ``url``, ``serve_forever()``, ``shutdown()``,
``server_close()``, and the ``service`` / ``max_update_batch`` /
``max_body_bytes`` attributes.
"""

from __future__ import annotations

import collections
import http.client
import queue
import selectors
import socket
import threading
import time
from typing import Optional
from urllib.parse import urlsplit

from repro.serving.server import (DEFAULT_REQUEST_TIMEOUT, error_response,
                                  json_response, oversized_body_error,
                                  parse_recommend_query, respond_get,
                                  respond_post)

#: Transport-level caps, matching the threaded frontend's behavior:
#: header blocks beyond 64 KiB are rejected, oversized declared bodies
#: are drained (never buffered) up to the same 16 MiB ceiling.
_MAX_HEADER_BYTES = 64 << 10
_DRAIN_CEILING = 16 << 20
_RECV_CHUNK = 64 << 10

# Connection read-state machine.
_READ_HEAD = 0
_READ_BODY = 1
_DISCARD_BODY = 2


class _Connection:
    """Per-socket parse/write state owned by the event loop."""

    __slots__ = ("sock", "rbuf", "wbuf", "state", "method", "target",
                 "keep_alive", "need", "discard", "declared_length",
                 "deadline", "inflight", "close_after_write", "closed")

    def __init__(self, sock: socket.socket, deadline: Optional[float]):
        self.sock = sock
        self.rbuf = bytearray()
        self.wbuf = bytearray()
        self.state = _READ_HEAD
        self.method = ""
        self.target = ""
        self.keep_alive = True
        self.need = 0           # body bytes still expected (_READ_BODY)
        self.discard = 0        # body bytes still to drain (_DISCARD_BODY)
        self.declared_length = 0
        self.deadline = deadline
        self.inflight = False
        self.close_after_write = False
        self.closed = False


class _Request:
    """One parsed request travelling loop → dispatcher → loop."""

    __slots__ = ("conn", "method", "target", "body")

    def __init__(self, conn: _Connection, method: str, target: str,
                 body: bytes):
        self.conn = conn
        self.method = method
        self.target = target
        self.body = body


class AsyncFrontend:
    """Event-loop HTTP server that micro-batches ``/recommend`` calls.

    Parameters
    ----------
    service:
        Anything with the
        :class:`~repro.serving.service.RecommendationService` call
        surface.
    batch_window:
        After the first queued ``/recommend`` request, how long the
        dispatcher waits (seconds) for companions to coalesce with.
        ``0`` still batches whatever is *already* queued — under load
        requests pile up while the previous batch scores, so natural
        batching emerges without added latency.
    max_batch:
        Hard cap on users per coalesced ``recommend_batch`` call.
    request_timeout:
        Per-connection budget (seconds) for receiving a complete
        request, mirroring the threaded frontend: a connection that
        stalls with a half-sent request (head or body) gets a 408 and
        is closed; an idle keep-alive connection that sent nothing is
        closed without a response.  ``None`` disables the deadline.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0,
                 verbose: bool = False, max_update_batch: int = 1024,
                 max_body_bytes: int = 1 << 20,
                 request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
                 batch_window: float = 0.002, max_batch: int = 32):
        if max_update_batch <= 0:
            raise ValueError("max_update_batch must be positive")
        if max_body_bytes <= 0:
            raise ValueError("max_body_bytes must be positive")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError("request_timeout must be positive (or None)")
        if batch_window < 0:
            raise ValueError("batch_window must be non-negative")
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self.service = service
        self.verbose = verbose
        self.max_update_batch = max_update_batch
        self.max_body_bytes = max_body_bytes
        self.request_timeout = request_timeout
        self.batch_window = batch_window
        self.max_batch = max_batch

        self._listen = socket.create_server((host, port), backlog=128)
        self._listen.setblocking(False)
        self.server_address = self._listen.getsockname()
        # Loop ↔ dispatcher plumbing.  The wakeup socketpair lets the
        # dispatcher (and shutdown()) interrupt a blocking select.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._requests: queue.Queue = queue.Queue()
        self._responses: collections.deque = collections.deque()
        self._running = threading.Event()
        self._stopped = threading.Event()
        self._stopped.set()
        self._dispatcher: Optional[threading.Thread] = None

    # -- operational surface (ThreadingHTTPServer-compatible) ----------
    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown(self) -> None:
        """Stop ``serve_forever`` and wait for the loop to exit."""
        self._running.clear()
        self._wakeup()
        self._stopped.wait()

    def server_close(self) -> None:
        self._listen.close()
        self._wake_r.close()
        self._wake_w.close()

    def _wakeup(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except OSError:
            pass

    # -- event loop ----------------------------------------------------
    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` (blocking)."""
        self._running.set()
        self._stopped.clear()
        self._dispatcher = threading.Thread(target=self._dispatch_loop,
                                            name="frontend-dispatcher",
                                            daemon=True)
        self._dispatcher.start()
        selector = selectors.DefaultSelector()
        selector.register(self._listen, selectors.EVENT_READ, "accept")
        selector.register(self._wake_r, selectors.EVENT_READ, "wakeup")
        conns: set[_Connection] = set()
        try:
            while self._running.is_set():
                timeout = self._nearest_deadline(conns)
                for key, _ in selector.select(timeout):
                    if key.data == "accept":
                        self._accept(selector, conns)
                    elif key.data == "wakeup":
                        self._drain_wakeup()
                    else:
                        self._handle_io(selector, conns, key)
                self._flush_responses(selector, conns)
                self._expire(selector, conns)
        finally:
            self._requests.put(None)  # dispatcher stop sentinel
            for conn in list(conns):
                self._close(selector, conns, conn)
            selector.close()
            self._stopped.set()

    def _nearest_deadline(self, conns: set) -> Optional[float]:
        deadlines = [c.deadline for c in conns
                     if c.deadline is not None and not c.inflight]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic())

    def _drain_wakeup(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except BlockingIOError:
            pass

    def _accept(self, selector, conns) -> None:
        while True:
            try:
                sock, _ = self._listen.accept()
            except BlockingIOError:
                return
            except OSError:
                return
            sock.setblocking(False)
            deadline = (None if self.request_timeout is None
                        else time.monotonic() + self.request_timeout)
            conn = _Connection(sock, deadline)
            conns.add(conn)
            selector.register(sock, selectors.EVENT_READ, conn)

    def _close(self, selector, conns, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        conns.discard(conn)
        try:
            selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    def _events_for(self, conn: _Connection) -> int:
        events = 0
        if conn.wbuf:
            events |= selectors.EVENT_WRITE
        # Stop reading while a request is in flight or a response is
        # queued: natural backpressure, and it bounds rbuf growth.
        if not conn.inflight and not conn.wbuf:
            events |= selectors.EVENT_READ
        return events

    def _update_registration(self, selector, conns, conn: _Connection) -> None:
        if conn.closed:
            return
        events = self._events_for(conn)
        try:
            if events:
                try:
                    selector.modify(conn.sock, events, conn)
                except KeyError:
                    selector.register(conn.sock, events, conn)
            else:
                try:
                    selector.unregister(conn.sock)
                except KeyError:
                    pass
        except (ValueError, OSError):
            self._close(selector, conns, conn)

    def _handle_io(self, selector, conns, key) -> None:
        conn: _Connection = key.data
        if key.events & selectors.EVENT_WRITE and conn.wbuf:
            try:
                sent = conn.sock.send(conn.wbuf)
                del conn.wbuf[:sent]
            except BlockingIOError:
                pass
            except OSError:
                self._close(selector, conns, conn)
                return
            if not conn.wbuf:
                if conn.close_after_write:
                    self._close(selector, conns, conn)
                    return
                # Response fully flushed: a pipelined request may
                # already sit in rbuf.
                self._advance(selector, conns, conn)
        if key.events & selectors.EVENT_READ:
            try:
                while True:
                    chunk = conn.sock.recv(_RECV_CHUNK)
                    if not chunk:
                        self._close(selector, conns, conn)
                        return
                    conn.rbuf += chunk
                    if len(chunk) < _RECV_CHUNK:
                        break
            except BlockingIOError:
                pass
            except OSError:
                self._close(selector, conns, conn)
                return
            self._advance(selector, conns, conn)
        self._update_registration(selector, conns, conn)

    # -- HTTP parsing --------------------------------------------------
    def _advance(self, selector, conns, conn: _Connection) -> None:
        """Run the parse state machine over whatever rbuf holds."""
        while not conn.inflight and not conn.wbuf and not conn.closed:
            if conn.state == _READ_HEAD:
                if not self._parse_head(conn):
                    return
            elif conn.state == _READ_BODY:
                if len(conn.rbuf) < conn.need:
                    return
                body = bytes(conn.rbuf[:conn.need])
                del conn.rbuf[:conn.need]
                self._submit(conn, body)
            elif conn.state == _DISCARD_BODY:
                drop = min(len(conn.rbuf), conn.discard)
                del conn.rbuf[:drop]
                conn.discard -= drop
                if conn.discard:
                    return
                conn.state = _READ_HEAD
                self._respond(conn, error_response(oversized_body_error(
                    conn.declared_length, self.max_body_bytes)))

    def _parse_head(self, conn: _Connection) -> bool:
        """Consume one request head from rbuf; False when incomplete."""
        end = conn.rbuf.find(b"\r\n\r\n")
        if end < 0:
            if len(conn.rbuf) > _MAX_HEADER_BYTES:
                self._respond(conn, json_response(
                    431, {"error": "request header block too large"}),
                    close=True)
            return False
        head = bytes(conn.rbuf[:end]).decode("latin-1")
        del conn.rbuf[:end + 4]
        lines = head.split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            self._respond(conn, json_response(
                400, {"error": "malformed request line"}), close=True)
            return False
        method, target, version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            keep_alive = connection == "keep-alive"
        else:
            keep_alive = connection != "close"
        conn.method, conn.target, conn.keep_alive = method, target, keep_alive
        if method == "GET":
            self._submit(conn, b"")
            return True
        if method == "POST":
            raw_length = headers.get("content-length", "0")
            try:
                length = int(raw_length)
                if length < 0:
                    raise ValueError
            except ValueError:
                # Body framing is unknowable: answer and drop the link.
                self._respond(conn, error_response(
                    ValueError("invalid Content-Length header")), close=True)
                return False
            if length > self.max_body_bytes:
                # Same contract as the threaded frontend: drain the
                # declared body (bounded, never buffered) so the client
                # sees the 400 rather than a reset; past the ceiling it
                # gets the close it deserves.
                conn.declared_length = length
                if length > _DRAIN_CEILING:
                    self._respond(conn, error_response(oversized_body_error(
                        length, self.max_body_bytes)), close=True)
                    return False
                conn.state = _DISCARD_BODY
                conn.discard = length
                return True
            conn.state = _READ_BODY
            conn.need = length
            return True
        self._respond(conn, json_response(
            501, {"error": f"unsupported method {method!r}"}), close=True)
        return False

    def _submit(self, conn: _Connection, body: bytes) -> None:
        """Hand a complete request to the dispatcher."""
        conn.state = _READ_HEAD
        conn.inflight = True
        conn.deadline = None
        self._requests.put(_Request(conn, conn.method, conn.target, body))

    # -- responses -----------------------------------------------------
    def _respond(self, conn: _Connection, response: tuple[int, str, bytes],
                 close: bool = False) -> None:
        """Queue response bytes on the connection (loop thread only)."""
        status, content_type, payload = response
        if close:
            conn.keep_alive = False
        reason = http.client.responses.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n")
        if not conn.keep_alive:
            head += "Connection: close\r\n"
            conn.close_after_write = True
        conn.wbuf += head.encode("latin-1") + b"\r\n" + payload
        conn.inflight = False
        if conn.keep_alive and self.request_timeout is not None:
            conn.deadline = time.monotonic() + self.request_timeout

    def _flush_responses(self, selector, conns) -> None:
        """Attach dispatcher results to their connections and kick I/O."""
        while self._responses:
            conn, response = self._responses.popleft()
            if conn.closed:
                continue
            self._respond(conn, response)
            try:
                sent = conn.sock.send(conn.wbuf)
                del conn.wbuf[:sent]
            except BlockingIOError:
                pass
            except OSError:
                self._close(selector, conns, conn)
                continue
            if not conn.wbuf:
                if conn.close_after_write:
                    self._close(selector, conns, conn)
                    continue
                # Response fully flushed: parse any pipelined request.
                self._advance(selector, conns, conn)
            self._update_registration(selector, conns, conn)

    def _expire(self, selector, conns) -> None:
        """Apply request deadlines: 408 a half-sent request, close idles."""
        if self.request_timeout is None:
            return
        now = time.monotonic()
        for conn in list(conns):
            if conn.inflight or conn.deadline is None or conn.deadline > now:
                continue
            if conn.state == _READ_HEAD and not conn.rbuf:
                # Idle keep-alive connection: close without a response,
                # like the threaded frontend's request-line timeout.
                self._close(selector, conns, conn)
            else:
                # Half-sent head or stalled body: clean 408, then close.
                conn.rbuf.clear()
                self._respond(conn, json_response(
                    408, {"error": "request timed out"}), close=True)
                self._update_registration(selector, conns, conn)

    # -- dispatcher ----------------------------------------------------
    def _dispatch_loop(self) -> None:
        """Execute requests against the service, batching /recommend."""
        while True:
            item = self._requests.get()
            if item is None:
                return
            batch = [item]
            deadline = time.monotonic() + self.batch_window
            while len(batch) < self.max_batch:
                remaining = deadline - time.monotonic()
                try:
                    extra = (self._requests.get_nowait() if remaining <= 0
                             else self._requests.get(timeout=remaining))
                except queue.Empty:
                    break
                if extra is None:
                    self._execute(batch)
                    return
                batch.append(extra)
            self._execute(batch)

    def _execute(self, batch: list) -> None:
        """Answer one drained batch; /recommend requests coalesce."""
        groups: dict[tuple, list] = {}
        for request in batch:
            response = None
            if (request.method == "GET"
                    and urlsplit(request.target).path == "/recommend"):
                try:
                    user, k, exclude = parse_recommend_query(
                        _query_of(request.target))
                    groups.setdefault((k, exclude), []).append((request, user))
                    continue
                except (ValueError, OverflowError) as exc:
                    response = error_response(exc)
            if response is None:
                response = self._run_single(request)
            self._responses.append((request.conn, response))
        for (k, exclude), members in groups.items():
            self._run_group(k, exclude, members)
        self._wakeup()

    def _run_single(self, request: _Request) -> tuple[int, str, bytes]:
        try:
            if request.method == "GET":
                return respond_get(self.service, request.target)
            return respond_post(self.service, request.target, request.body,
                                self.max_update_batch)
        except Exception as exc:
            return error_response(exc)

    def _run_group(self, k, exclude_seen, members: list) -> None:
        """One coalesced recommend_batch; per-request fallback on error."""
        users = [user for _, user in members]
        try:
            recs = self.service.recommend_batch(users, k=k,
                                                exclude_seen=exclude_seen)
            responses = [json_response(200, rec.to_dict()) for rec in recs]
        except Exception:
            # One bad request must not poison the batch: retry each
            # alone, reproducing the threaded per-request semantics.
            responses = []
            for _, user in members:
                try:
                    rec = self.service.recommend(user, k=k,
                                                 exclude_seen=exclude_seen)
                    responses.append(json_response(200, rec.to_dict()))
                except Exception as exc:
                    responses.append(error_response(exc))
        for (request, _), response in zip(members, responses):
            self._responses.append((request.conn, response))


def _query_of(target: str) -> dict:
    from urllib.parse import parse_qs

    return parse_qs(urlsplit(target).query)
