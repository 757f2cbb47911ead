"""Seeded arrival schedules: the traffic shapes serving gets hit with.

A schedule is the request mix of one load run: ``users[i]`` is the user
queried by request ``i``, and ``boundaries`` split the request stream
into logical windows for per-window latency/error stats
(:meth:`repro.scenarios.loadgen.LoadResult.window_stats`).  Every
builder is a pure function of its arguments plus an explicit ``seed``
— reruns replay the identical stream, which is what makes the scenario
capacity records reproducible.

:func:`zipf_users` is the canonical hot-head mix the load tests use;
its output is pinned byte-for-byte by a regression test.  The
adversarial shapes compose around it:

- :func:`flash_crowd` — a mid-run burst concentrates traffic on a tiny
  hot set (cache stampede / celebrity event);
- :func:`diurnal` — window sizes follow a day-night cosine, so the
  same request budget arrives unevenly (peak-hour pressure);
- :func:`cold_start_surge` — after launch, a share of traffic shifts
  to users with no interactions at all (the MAMO serving path);
- :func:`sessions` — consecutive runs of same-user requests
  (sequential consumption, the TransFM traffic shape).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Sub-stream tags so a composed schedule never replays the base
#: Zipf stream's draws.
_TAG_FLASH = 1
_TAG_COLD = 2


@dataclass(frozen=True)
class Schedule:
    """A request mix plus its logical window boundaries."""

    name: str
    users: np.ndarray       # int64 [n_requests]
    boundaries: np.ndarray  # int64 [n_windows + 1], 0 .. n_requests

    @property
    def n_requests(self) -> int:
        return int(self.users.size)

    @property
    def n_windows(self) -> int:
        return int(self.boundaries.size - 1)


def even_windows(n_requests: int, n_windows: int) -> np.ndarray:
    """Boundaries of ``n_windows`` near-equal windows over the stream."""
    if n_requests < 1 or n_windows < 1:
        raise ValueError("n_requests and n_windows must be positive")
    n_windows = min(n_windows, n_requests)
    return np.linspace(0, n_requests, n_windows + 1).astype(np.int64)


def zipf_users(n_users: int, n_requests: int, seed: int = 0,
               alpha: float = 1.3) -> np.ndarray:
    """``int64 [n_requests]`` seeded Zipf-skewed user ids.

    ``alpha`` is the Zipf exponent (heavier head for larger values);
    draws beyond ``n_users`` are redrawn by modular fold so every id
    stays valid without truncating the distribution's support order.
    """
    if n_users < 1 or n_requests < 1:
        raise ValueError("n_users and n_requests must be positive")
    rng = np.random.default_rng(seed)
    ranks = (rng.zipf(alpha, size=n_requests) - 1) % n_users
    # Decouple "hot" from "low id": rank r serves the r-th user of a
    # seeded permutation, so hot users are scattered over the id range.
    permutation = rng.permutation(n_users)
    return permutation[ranks].astype(np.int64)


def uniform_users(n_users: int, n_requests: int, seed: int = 0) -> np.ndarray:
    """Uniform request mix — the no-skew control schedule."""
    if n_users < 1 or n_requests < 1:
        raise ValueError("n_users and n_requests must be positive")
    rng = np.random.default_rng(seed)
    return rng.integers(0, n_users, size=n_requests, dtype=np.int64)


def flash_crowd(
    n_users: int,
    n_requests: int,
    seed: int = 0,
    alpha: float = 1.3,
    hot_users: int = 8,
    burst_start: float = 0.5,
    burst_frac: float = 0.25,
    burst_share: float = 0.9,
    n_windows: int = 8,
) -> Schedule:
    """Zipf background with a mid-run stampede onto a tiny hot set.

    Requests in the burst window (``burst_frac`` of the stream starting
    at position ``burst_start``) hit one of ``hot_users`` seeded users
    with probability ``burst_share``; everything else keeps the Zipf
    mix.  Window boundaries are even, so the burst spans whole windows
    and shows up as a hit-rate/latency step in the per-window stats.
    """
    if not 0.0 <= burst_start <= 1.0 or not 0.0 < burst_frac <= 1.0:
        raise ValueError("burst_start in [0,1] and burst_frac in (0,1] required")
    if not 0.0 <= burst_share <= 1.0:
        raise ValueError("burst_share must be in [0, 1]")
    hot_users = max(1, min(hot_users, n_users))
    users = zipf_users(n_users, n_requests, seed=seed, alpha=alpha)
    rng = np.random.default_rng(np.random.SeedSequence((seed, _TAG_FLASH)))
    hot = rng.choice(n_users, size=hot_users, replace=False)
    lo = int(burst_start * n_requests)
    hi = min(n_requests, lo + max(1, int(burst_frac * n_requests)))
    stampede = rng.random(hi - lo) < burst_share
    users[lo:hi] = np.where(
        stampede, hot[rng.integers(0, hot_users, size=hi - lo)], users[lo:hi])
    return Schedule(name="flash-crowd", users=users,
                    boundaries=even_windows(n_requests, n_windows))


def diurnal(
    n_users: int,
    n_requests: int,
    seed: int = 0,
    alpha: float = 1.3,
    n_windows: int = 8,
    trough: float = 0.25,
) -> Schedule:
    """Day-night load shape: even time windows, cosine request volume.

    The request *mix* stays Zipf; what varies is how many of the
    ``n_requests`` land in each of the ``n_windows`` equal time slices
    — window ``j`` receives a share proportional to
    ``trough + (1 - trough) * (1 - cos(2πj/n)) / 2``, so the quietest
    window carries ``trough`` times the peak's traffic.
    """
    if not 0.0 < trough <= 1.0:
        raise ValueError("trough must be in (0, 1]")
    n_windows = max(1, min(n_windows, n_requests))
    phase = 2.0 * np.pi * np.arange(n_windows) / n_windows
    weights = trough + (1.0 - trough) * (1.0 - np.cos(phase)) / 2.0
    quota = np.floor(weights / weights.sum() * n_requests).astype(np.int64)
    quota = np.maximum(quota, 1)
    # Hand the rounding remainder to the busiest window (deterministic).
    quota[int(np.argmax(weights))] += n_requests - int(quota.sum())
    boundaries = np.concatenate(([0], np.cumsum(quota))).astype(np.int64)
    users = zipf_users(n_users, n_requests, seed=seed, alpha=alpha)
    return Schedule(name="diurnal", users=users, boundaries=boundaries)


def cold_start_surge(
    n_users: int,
    cold_users: np.ndarray,
    n_requests: int,
    seed: int = 0,
    alpha: float = 1.3,
    surge_start: float = 0.5,
    surge_share: float = 0.8,
    n_windows: int = 8,
    exclude: "np.ndarray | None" = None,
) -> Schedule:
    """Launch-day traffic: warm Zipf mix, then a cold-user surge.

    Before ``surge_start`` every request comes from the warm Zipf mix
    (cold ids are remapped away); after it, each request queries a
    uniform cold user with probability ``surge_share``.  This is the
    schedule that pushes a cold-start model's no-history path through
    serving at volume.  ``exclude`` drops ids from the warm pool
    entirely — e.g. users so saturated a full-length unseen list is
    infeasible.
    """
    cold_users = np.asarray(cold_users, dtype=np.int64)
    if cold_users.size == 0:
        raise ValueError("cold_users must be non-empty")
    if not 0.0 <= surge_start <= 1.0 or not 0.0 <= surge_share <= 1.0:
        raise ValueError("surge_start and surge_share must be in [0, 1]")
    cold_set = np.zeros(n_users, dtype=bool)
    cold_set[cold_users] = True
    drop = cold_set.copy()
    if exclude is not None:
        drop[np.asarray(exclude, dtype=np.int64)] = True
    warm = np.flatnonzero(~drop).astype(np.int64)
    if warm.size == 0:
        raise ValueError("at least one warm user is required")
    base = zipf_users(warm.size, n_requests, seed=seed, alpha=alpha)
    users = warm[base]
    rng = np.random.default_rng(np.random.SeedSequence((seed, _TAG_COLD)))
    lo = int(surge_start * n_requests)
    surging = rng.random(n_requests - lo) < surge_share
    users[lo:] = np.where(
        surging,
        cold_users[rng.integers(0, cold_users.size, size=n_requests - lo)],
        users[lo:])
    return Schedule(name="cold-start-surge", users=users,
                    boundaries=even_windows(n_requests, n_windows))


def sessions(
    n_users: int,
    n_sessions: int,
    session_len: int,
    seed: int = 0,
    alpha: float = 1.3,
) -> Schedule:
    """Sequential consumption: runs of ``session_len`` same-user requests.

    Session owners are drawn from the Zipf mix; each window boundary is
    one session, so per-window stats read as per-session stats.
    """
    if n_sessions < 1 or session_len < 1:
        raise ValueError("n_sessions and session_len must be positive")
    owners = zipf_users(n_users, n_sessions, seed=seed, alpha=alpha)
    users = np.repeat(owners, session_len)
    boundaries = np.arange(n_sessions + 1, dtype=np.int64) * session_len
    return Schedule(name="sessions", users=users, boundaries=boundaries)
