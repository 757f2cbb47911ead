"""Seeded request schedules and the keep-alive HTTP load generator.

The generator runs in the benchmark's own process, outside the server.
Each connection is one ``http.client`` keep-alive connection driven by
one thread (the calling thread drives the first), so there are never
more threads or connections than ``connections``.

- :func:`run_closed` sends each connection's next request as soon as its
  previous reply arrived, until every request of the phase is answered.
- :func:`run_open` sends requests at the Poisson arrival times of a
  schedule.  Latency is measured from when a request was *due*, so a
  stall also charges the requests queued behind it, and the lateness of
  the generator (send time minus due time) is recorded per request.
"""

from __future__ import annotations

import http.client
import itertools
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

READ, UPDATE = 0, 1


@dataclass
class Ops:
    """Parallel arrays describing a request sequence."""

    kind: np.ndarray   # READ or UPDATE
    user: np.ndarray
    item: np.ndarray   # the item of an UPDATE (unused by reads)
    due: np.ndarray | None = None   # open loop: offsets from phase start

    def __len__(self) -> int:
        return int(self.kind.size)


def zipf_users(rng: np.random.Generator, popularity: np.ndarray, size: int,
               alpha: float) -> np.ndarray:
    """Zipf(alpha) popularity ranks truncated to the catalogue of users;
    ``popularity[r]`` is the user of rank ``r + 1``."""
    ranks = np.empty(0, dtype=np.int64)
    while ranks.size < size:
        draw = rng.zipf(alpha, size)
        ranks = np.concatenate([ranks, draw[draw <= popularity.size]])
    return popularity[ranks[:size] - 1]


def make_ops(rng: np.random.Generator, size: int, popularity: np.ndarray,
             n_items: int, users: str, update_every: int) -> Ops:
    """``size`` requests; every ``update_every``-th one is an update
    (``0`` = read-only).  ``users`` is ``"zipf:<alpha>"`` over the ranking
    ``popularity`` (a permutation of the user ids, shared by every phase
    of a run so the hot users stay hot) or ``"uniform"``."""
    if users.startswith("zipf:"):
        user = zipf_users(rng, popularity, size, float(users[5:]))
    elif users == "uniform":
        user = rng.integers(0, popularity.size, size)
    else:
        raise ValueError(f"unknown user distribution {users!r}")
    kind = np.full(size, READ, dtype=np.int64)
    if update_every:
        kind[update_every - 1::update_every] = UPDATE
    item = rng.integers(0, n_items, size)
    return Ops(kind, user.astype(np.int64), item.astype(np.int64))


def poisson_due(rng: np.random.Generator, size: int, rate: float) -> np.ndarray:
    """Arrival offsets (seconds) of a Poisson process of ``rate``/s."""
    return np.cumsum(rng.exponential(1.0 / rate, size))


# ----------------------------------------------------------------------
@dataclass
class Result:
    """One request as the client saw it (times from ``perf_counter``)."""

    index: int
    kind: int
    user: int
    item: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def service_s(self) -> float:
        return self.done - self.sent


@dataclass
class Phase:
    name: str
    results: list = field(default_factory=list)
    seconds: float = 0.0
    rate: float | None = None
    rid_base: int | None = None

    def by_kind(self, kind: int) -> list[Result]:
        return [r for r in self.results if r.kind == kind]


class Client:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, port: int, timeout: float = 30.0):
        self.port = port
        self.timeout = timeout
        self.conn = self._connect()

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=self.timeout)

    def send(self, kind: int, user: int, item: int,
             rid: int | None = None) -> tuple[int, bytes]:
        """One request; ``rid`` adds a ``rid`` query parameter, which the
        server ignores and the traced launcher records."""
        tag = [] if rid is None else [f"rid={rid}"]
        try:
            if kind == READ:
                query = "&".join([f"user={user}", "k=10", *tag])
                self.conn.request("GET", f"/recommend?{query}")
            else:
                body = json.dumps({"user": user, "item": item})
                query = "?" + tag[0] if tag else ""
                self.conn.request("POST", f"/update{query}", body=body,
                                  headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            self.conn = self._connect()
            return 0, repr(exc).encode()

    def get_json(self, path: str) -> dict:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} answered {response.status}")
        return json.loads(body)

    def close(self) -> None:
        self.conn.close()


def _drive(clients: list[Client], worker) -> None:
    """Run ``worker(client)`` on every client; the caller drives the first."""
    threads = [threading.Thread(target=worker, args=(c,)) for c in clients[1:]]
    for thread in threads:
        thread.start()
    try:
        worker(clients[0])
    finally:
        for thread in threads:
            thread.join()


def _rid(rid_base: int | None, index: int) -> int | None:
    return None if rid_base is None else rid_base + index


def run_closed(clients: list[Client], ops: Ops, name: str,
               rid_base: int | None = None) -> Phase:
    """Every request of ``ops``, back to back on every connection.

    A fixed number of requests, not a fixed time, so a run on a slower
    host sends the same requests and leaves the cache in the same
    state.  ``rid_base`` tags each request with a ``rid`` query
    parameter for traced runs.
    """
    phase = Phase(name, rid_base=rid_base)
    # next() on an itertools.count is atomic under the interpreter lock,
    # so the connections share it without a lock of their own.
    counter = itertools.count()
    n = len(ops)
    start = time.perf_counter()

    def worker(client: Client) -> None:
        while True:
            i = next(counter)
            if i >= n:
                return
            now = time.perf_counter()
            kind, user, item = int(ops.kind[i]), int(ops.user[i]), int(ops.item[i])
            status, body = client.send(kind, user, item, _rid(rid_base, i))
            phase.results.append(Result(i, kind, user, item, now, now,
                                        time.perf_counter(), status, body))

    _drive(clients, worker)
    phase.seconds = time.perf_counter() - start
    phase.results.sort(key=lambda r: r.index)
    return phase


def run_open(clients: list[Client], ops: Ops, name: str, rate: float,
             rid_base: int | None = None) -> Phase:
    """Send ``ops`` at their ``due`` offsets (Poisson arrivals)."""
    phase = Phase(name, rate=rate, rid_base=rid_base)
    counter = itertools.count()
    n = len(ops)
    start = time.perf_counter() + 0.01

    def worker(client: Client) -> None:
        while True:
            i = next(counter)
            if i >= n:
                return
            due = start + float(ops.due[i])
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            kind, user, item = int(ops.kind[i]), int(ops.user[i]), int(ops.item[i])
            status, body = client.send(kind, user, item, _rid(rid_base, i))
            phase.results.append(Result(i, kind, user, item, due, sent,
                                        time.perf_counter(), status, body))

    _drive(clients, worker)
    phase.seconds = time.perf_counter() - start
    phase.results.sort(key=lambda r: r.index)
    return phase
