"""Serving side of the benchmark: bundle, server processes and the oracle.

The server is always a separate process started from the checkout's
source tree — ``python -m repro serve --artifact <bundle> --port 0``
(or the traced launcher with the same arguments) — and reached only
over HTTP.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from loadgen import READ, UPDATE, Client, Phase

BUNDLE_DATASET = "movielens"
BUNDLE_SCALE = 10.0
BUNDLE_MODEL = "GML-FMmd"
BUNDLE_K = 16
TOP_K = 10

_STARTUP = re.compile(r"serving .* on http://127\.0\.0\.1:(\d+) .*frontend=(\w+)")


def build_bundle(path: Path, seed: int, dataset_name: str = BUNDLE_DATASET,
                 scale: float = BUNDLE_SCALE) -> Path:
    """A GML-FMmd bundle (dir layout), by default over synthetic
    MovieLens at scale 10 (6000 users x 4000 items)."""
    from repro.data.synthetic import make_dataset
    from repro.experiments.registry import build_model
    from repro.serving.artifact import save_artifact

    if path.exists():
        shutil.rmtree(path)
    dataset = make_dataset(dataset_name, seed=seed, scale=scale)
    model = build_model(BUNDLE_MODEL, dataset, k=BUNDLE_K, seed=seed)
    save_artifact(model, dataset, str(path), BUNDLE_MODEL,
                  hyperparams={"k": BUNDLE_K, "seed": seed}, layout="dir")
    return path


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    frontend: str
    setup_s: float

    def stop(self) -> None:
        """SIGTERM, then wait (SIGKILL if it does not exit in time)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def start_server(bundle: Path, workdir: Path, name: str, argv_prefix=None,
                 extra=(), timeout: float = 60.0) -> Server:
    """Spawn a server and wait for its first ``200`` from ``/healthz``.

    ``setup_s`` is spawn-to-ready: interpreter start, bundle load and
    the item-state precompute all happen before the port is printed.
    """
    log = workdir / f"{name}.log"
    prefix = argv_prefix or [sys.executable, "-m", "repro"]
    argv = [*prefix, "serve", "--artifact", str(bundle), "--port", "0", *extra]
    start = time.perf_counter()
    with open(log, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env())
    try:
        port, frontend = _await_startup(proc, log, start + timeout)
        client = Client(port, timeout=5.0)
        try:
            while True:
                try:
                    client.get_json("/healthz")
                    break
                except (OSError, RuntimeError):
                    if time.perf_counter() > start + timeout:
                        raise
                    time.sleep(0.002)
        finally:
            client.close()
    except BaseException:
        Server(proc, 0, "", 0.0).stop()
        raise
    return Server(proc, port, frontend, time.perf_counter() - start)


def _await_startup(proc, log: Path, deadline: float) -> tuple[int, str]:
    while True:
        match = _STARTUP.search(log.read_text(errors="replace"))
        if match:
            return int(match.group(1)), match.group(2)
        if proc.poll() is not None or time.perf_counter() > deadline:
            raise RuntimeError(f"server did not start; log:\n"
                               f"{log.read_text(errors='replace')[-2000:]}")
        time.sleep(0.002)


# ----------------------------------------------------------------------
# Output correctness
# ----------------------------------------------------------------------
class Oracle:
    """Expected responses, computed in-process from the same bundle."""

    def __init__(self, bundle: Path):
        from repro.serving.service import RecommendationService

        self.service = RecommendationService.from_artifact(str(bundle),
                                                           top_k=TOP_K)
        self.n_users = self.service.dataset.n_users
        self.n_items = self.service.dataset.n_items
        self.expected: dict[int, bytes] = {}

    def precompute(self, users) -> None:
        """Expected ``/recommend`` bodies of a read-only server.

        One ``recommend`` per user, exactly as the server answers a
        single request, so the comparison is byte for byte.
        """
        from repro.serving.server import json_response

        for user in sorted(set(int(u) for u in users)):
            if user not in self.expected:
                rec = self.service.recommend(user, k=TOP_K)
                self.expected[user] = json_response(200, rec.to_dict())[2]

    def seen(self, user: int) -> set[int]:
        return set(self.service.index.seen(user).tolist())


#: A check's finding: the operation it concerns (``phase#index``, or
#: ``None`` for the run as a whole) and what is wrong.
Finding = tuple[str | None, str]


def check_read_only(oracle: Oracle, phases: list[Phase]) -> list[Finding]:
    """Every reply must be byte-identical to the oracle's."""
    errors = []
    for phase in phases:
        for r in phase.results:
            if not (r.ok and oracle.expected.get(r.user) == r.body):
                errors.append((f"{phase.name}#{r.index}",
                               f"user {r.user}: not the oracle's reply: "
                               f"status {r.status}, body {r.body[:120]!r}"))
    return errors


def check_invariants(oracle: Oracle, phases: list[Phase]) -> tuple[list[Finding], int]:
    """Invariants every reply must meet, with or without updates.

    A read must list ``k`` distinct in-range items with non-increasing
    scores, none seen by the user: neither in the bundle's log nor in
    an update acknowledged before the read was sent.  An update must
    report ``folded_in``.  Returns the errors and the novel-event count.
    """
    errors, novel = [], 0
    acked: dict[int, list[tuple[float, int]]] = defaultdict(list)
    reads = []
    for phase in phases:
        for r in phase.results:
            label = f"{phase.name}#{r.index}"
            if not r.ok:
                errors.append((label, f"status {r.status} {r.body[:120]!r}"))
                continue
            try:
                payload = json.loads(r.body)
            except ValueError:
                errors.append((label, f"unparsable body {r.body[:120]!r}"))
                continue
            if r.kind == UPDATE:
                if payload.get("folded_in") is not True or payload.get("events") != 1:
                    errors.append((label, f"update report {payload}"))
                else:
                    novel += int(payload.get("novel", 0))
                    acked[r.user].append((r.done, r.item))
            else:
                reads.append((label, r, payload))
    for label, r, payload in reads:
        items, scores = payload.get("items", []), payload.get("scores", [])
        excluded = oracle.seen(r.user) | {
            item for done, item in acked.get(r.user, ()) if done < r.sent}
        problem = None
        if payload.get("user") != r.user:
            problem = f"answered user {payload.get('user')}"
        elif len(items) != TOP_K or len(set(items)) != TOP_K:
            problem = f"items {items} are not {TOP_K} distinct ids"
        elif not all(0 <= i < oracle.n_items for i in items):
            problem = f"item out of range in {items}"
        elif len(scores) != TOP_K or any(b > a for a, b in zip(scores, scores[1:])):
            problem = f"scores not non-increasing: {scores}"
        elif excluded.intersection(items):
            problem = f"recommended seen items {sorted(excluded.intersection(items))}"
        if problem:
            errors.append((label, f"user {r.user}: {problem}"))
    return errors, novel


def check_reference(oracle: Oracle, phases: list[Phase],
                    sample: int = 16) -> list[Finding]:
    """Served lists against the model's generic per-pair ``predict``.

    ``predict`` runs the model's autograd forward, which shares no code
    with the serving fast path (``score_grid`` over precomputed item
    state), so this catches a scorer that is fast and wrong, which the
    in-process oracle would share.  Checked on the first reply of up
    to ``sample`` users that no update touched: every listed item must
    score within the reference top-k, with the reference's score.
    """
    updated = {r.user for p in phases for r in p.results if r.kind == UPDATE}
    first: dict[int, tuple[str, bytes]] = {}
    for phase in phases:
        for r in phase.results:
            if r.kind == READ and r.ok and r.user not in updated:
                first.setdefault(r.user, (f"{phase.name}#{r.index}", r.body))
    users = sorted(first)[::max(1, len(first) // sample)][:sample]
    items = np.arange(oracle.n_items)
    errors = []
    for user in users:
        label, body = first[user]
        reference = oracle.service.model.predict(
            np.full(oracle.n_items, user), items).astype(np.float64)
        reference[list(oracle.seen(user))] = -np.inf
        kth = np.sort(reference)[-TOP_K]
        try:
            payload = json.loads(body)
            served = np.asarray(payload["items"], dtype=np.int64)
            ok = (served.shape == (TOP_K,)
                  and reference[served].min() >= kth - 1e-5 * max(1.0, abs(kth))
                  and np.allclose(payload["scores"], reference[served],
                                  rtol=1e-5, atol=1e-8))
        except (ValueError, KeyError, IndexError, TypeError):
            ok = False
        if not ok:
            errors.append((label, f"user {user}: {body[:200]!r} disagrees with "
                                  f"the reference top-{TOP_K} "
                                  f"{np.argsort(-reference)[:TOP_K].tolist()}"))
    return errors


def check_counters(stats: dict, phases: list[Phase], novel: int) -> list[Finding]:
    """Final ``/stats`` counters must equal what was sent."""
    reads = sum(r.kind == READ for p in phases for r in p.results)
    updates = sum(r.kind == UPDATE for p in phases for r in p.results)
    errors = []
    if stats["requests"] != reads:
        errors.append((None, f"/stats requests {stats['requests']} != "
                             f"{reads} reads sent"))
    if stats["updates_folded_in"] != updates:
        errors.append((None, f"/stats updates_folded_in "
                             f"{stats['updates_folded_in']} != {updates} "
                             f"updates sent"))
    if stats["interactions_added"] != novel:
        errors.append((None, f"/stats interactions_added "
                             f"{stats['interactions_added']} != {novel} novel "
                             f"events acknowledged"))
    return errors
