"""Seeded load generation against a live recommendation HTTP server.

A multi-threaded closed-loop driver with per-request latency
accounting, plus two generalizations the scenario engine needs —

- :func:`drive` accepts either a bare user-id array or a
  :class:`~repro.scenarios.schedules.Schedule` (any object with a
  ``users`` array attribute), so adversarial arrival shapes plug in
  without touching the driver;
- :meth:`LoadResult.window_stats` folds the per-request latencies and
  errors into per-window summaries along a schedule's boundaries, so a
  flash crowd or diurnal peak is visible as numbers, not vibes.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request
from dataclasses import dataclass, field

import numpy as np

from repro.scenarios.schedules import zipf_users  # noqa: F401  (re-export)


def resolve_schedule(schedule) -> np.ndarray:
    """User-id array of a schedule: accepts arrays and Schedule-likes."""
    users = getattr(schedule, "users", schedule)
    users = np.asarray(users, dtype=np.int64)
    if users.ndim != 1 or users.size == 0:
        raise ValueError("schedule must resolve to a non-empty 1-d id array")
    return users


@dataclass
class LoadResult:
    """Outcome of one multi-threaded drive against a server."""

    latencies: np.ndarray               # seconds, request order per thread
    responses: list                     # parsed JSON bodies, schedule order
    errors: list = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def n_requests(self) -> int:
        return int(self.latencies.size)

    @property
    def requests_per_sec(self) -> float:
        return self.n_requests / self.wall_seconds if self.wall_seconds else 0.0

    def percentile_ms(self, q: float) -> float:
        return float(np.percentile(self.latencies, q) * 1000.0)

    def summary(self) -> dict:
        return {
            "requests": self.n_requests,
            "errors": len(self.errors),
            "req_per_sec": self.requests_per_sec,
            "p50_ms": self.percentile_ms(50),
            "p99_ms": self.percentile_ms(99),
        }

    def window_stats(self, boundaries: np.ndarray) -> list[dict]:
        """Per-window request/error/latency summaries.

        ``boundaries`` is a ``[n_windows + 1]`` monotone array of
        request positions (a :class:`Schedule`'s ``boundaries``); the
        last boundary must not exceed the request count.  Empty windows
        report zero requests and ``NaN`` percentiles.
        """
        boundaries = np.asarray(boundaries, dtype=np.int64)
        if boundaries.ndim != 1 or boundaries.size < 2:
            raise ValueError("boundaries must hold at least two positions")
        if (np.any(np.diff(boundaries) < 0) or boundaries[0] < 0
                or boundaries[-1] > self.n_requests):
            raise ValueError("boundaries must be monotone within the stream")
        error_positions = np.array([pos for pos, _user, _exc in self.errors],
                                   dtype=np.int64)
        stats = []
        for window, (lo, hi) in enumerate(
                zip(boundaries[:-1].tolist(), boundaries[1:].tolist())):
            lats = self.latencies[lo:hi]
            n_errors = int(((error_positions >= lo)
                            & (error_positions < hi)).sum())
            stats.append({
                "window": window,
                "start": lo,
                "requests": int(lats.size),
                "errors": n_errors,
                "p50_ms": float(np.percentile(lats, 50) * 1000.0)
                if lats.size else float("nan"),
                "p99_ms": float(np.percentile(lats, 99) * 1000.0)
                if lats.size else float("nan"),
            })
        return stats


def drive(base_url: str, users, n_threads: int = 4,
          k: int = 5, timeout: float = 30.0) -> LoadResult:
    """Drive ``GET /recommend`` for every scheduled user, concurrently.

    ``users`` is a user-id array or any schedule object exposing one
    (``schedules.Schedule``).  The stream is split round-robin across
    ``n_threads`` client threads (deterministic partition, so reruns
    issue identical per-thread streams).  Responses land back in
    schedule order; failures are collected, never raised — the caller
    asserts on ``errors`` so a load test reports *all* failures, not
    the first.
    """
    users = resolve_schedule(users)
    slots: list = [None] * users.size
    latencies = np.zeros(users.size)
    errors: list = []
    error_lock = threading.Lock()

    def client(thread_id: int) -> None:
        for pos in range(thread_id, users.size, n_threads):
            url = f"{base_url}/recommend?user={users[pos]}&k={k}"
            start = time.perf_counter()
            try:
                with urllib.request.urlopen(url, timeout=timeout) as resp:
                    body = json.loads(resp.read())
                latencies[pos] = time.perf_counter() - start
                slots[pos] = body
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                latencies[pos] = time.perf_counter() - start
                with error_lock:
                    errors.append((pos, int(users[pos]), repr(exc)))

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(n_threads)]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    return LoadResult(latencies=latencies, responses=slots, errors=errors,
                      wall_seconds=wall)
