"""The online serving facade: scorer + index + cache behind one object.

A :class:`RecommendationService` owns the full query path

    cache lookup → micro-batched grid scoring → seen masking →
    top-k ranking → cache fill

and keeps request counters so operators can watch hit rates.  It is
transport-agnostic: the HTTP layer (:mod:`repro.serving.server`) and
any in-process caller share the same entry points.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.data.dataset import RecDataset
from repro.models.base import RecommenderModel
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY, render_snapshot
from repro.obs.tracing import Tracer
from repro.serving.ann import ANNConfig
from repro.serving.cache import LRUCache
from repro.serving.index import TopKIndex
from repro.serving.scorer import BatchScorer
from repro.training.online import IncrementalTrainer, OnlineConfig


@dataclass(frozen=True)
class Recommendation:
    """One ranked list: parallel item ids and scores, best first."""

    user: int
    items: np.ndarray
    scores: np.ndarray

    def to_dict(self) -> dict:
        return {
            "user": self.user,
            "items": [int(i) for i in self.items],
            "scores": [float(s) for s in self.scores],
        }


class RecommendationService:
    """Serves ranked item lists for users of one trained model.

    Parameters
    ----------
    model, dataset:
        The scoring model and the catalogue/interaction source.
    top_k:
        Default list length when a query does not specify one.
    exclude_seen:
        Default seen-item filtering behavior.
    cache_size:
        LRU entries kept (0 disables caching).
    user_batch:
        Users scored per grid block inside a multi-user query.
    scorer_mode:
        Forwarded to :class:`BatchScorer` (``"auto"``/``"exact"``).
    online:
        Optional :class:`~repro.training.online.IncrementalTrainer`
        (or ``online_config`` to build one): arriving interactions then
        fold into the model instead of only masking, see
        :meth:`update_interactions`.
    ann:
        ``True`` or an :class:`~repro.serving.ann.ANNConfig` opts into
        IVF candidate retrieval: each query scores only the items in
        the probed clusters (exact re-rank, recall traded per the
        probe count).  Models without the bilinear grid decomposition,
        and catalogues under ``min_items``, silently keep the exact
        full-grid path.  Users whose unseen candidate pool comes back
        smaller than ``k`` fall back to exact scoring, so responses
        are always complete and never contain seen items.
    """

    def __init__(
        self,
        model: RecommenderModel,
        dataset: RecDataset,
        top_k: int = 10,
        exclude_seen: bool = True,
        cache_size: int = 1024,
        user_batch: int = 32,
        scorer_mode: str = "auto",
        online: Optional[IncrementalTrainer] = None,
        online_config: Optional[OnlineConfig] = None,
        ann: Optional[ANNConfig] = None,
        metrics: bool = True,
        tracing: bool = False,
        registry: Optional[MetricsRegistry] = None,
    ):
        if top_k <= 0:
            raise ValueError("top_k must be positive")
        if ann is True:
            ann = ANNConfig()
        self.model = model
        self.dataset = dataset
        self.top_k = top_k
        self.exclude_seen = exclude_seen
        self.user_batch = user_batch
        # Metrics are on by default (gated ≤3% overhead in
        # benchmarks/test_obs_overhead.py); ``metrics=False`` swaps in
        # no-op handles with the same API.  Tracing is opt-in and
        # purely observational: responses are byte-identical either
        # way.  One registry is shared with the cache, the scorer and
        # any service-built online trainer, so /stats and /metrics read
        # the same counters and can never disagree.
        self.registry = registry if registry is not None else (
            MetricsRegistry() if metrics else NULL_REGISTRY)
        self.tracer = Tracer(enabled=tracing)
        self._m_requests = self.registry.counter(
            "repro_requests_total", "users requested across recommend calls")
        self._m_users_scored = self.registry.counter(
            "repro_users_scored_total", "users scored past the cache")
        self._m_interactions = self.registry.counter(
            "repro_interactions_added_total", "novel interactions recorded")
        self._m_folded = self.registry.counter(
            "repro_updates_folded_in_total",
            "events folded into the model online")
        self._m_ann_fallbacks = self.registry.counter(
            "repro_ann_fallbacks_total",
            "ANN rows that fell back to exact scoring")
        self._m_request_seconds = self.registry.histogram(
            "repro_request_seconds", "recommend_batch wall time (seconds)")
        self._m_update_seconds = self.registry.histogram(
            "repro_update_seconds", "update_interactions wall time (seconds)")
        self.scorer = BatchScorer(model, dataset, mode=scorer_mode,
                                  user_batch=user_batch, ann=ann,
                                  registry=self.registry)
        # Private (not the shared per-dataset instance): add_interaction
        # mutates the overlay, which must stay local to this service.
        self.index = TopKIndex.from_dataset(dataset)
        self.cache = LRUCache(cache_size, registry=self.registry)
        # One coarse lock covers cache + index + counters: the HTTP
        # front-end is a ThreadingHTTPServer, and the OrderedDict/
        # overlay mutations are not thread-safe on their own.
        self._lock = threading.RLock()
        if online is not None and online_config is not None:
            raise ValueError("pass online or online_config, not both")
        if online is None and online_config is not None:
            online = IncrementalTrainer(model, dataset, online_config,
                                        registry=self.registry)
        self.online = online

    # -- registry-backed counters, readable as plain attributes --------
    @property
    def requests(self) -> int:
        return int(self._m_requests.value)

    @property
    def users_scored(self) -> int:
        return int(self._m_users_scored.value)

    @property
    def interactions_added(self) -> int:
        return int(self._m_interactions.value)

    @property
    def updates_folded_in(self) -> int:
        return int(self._m_folded.value)

    @property
    def ann_fallbacks(self) -> int:
        return int(self._m_ann_fallbacks.value)

    @classmethod
    def from_artifact(cls, path: str, mmap: bool = False,
                      **kwargs) -> "RecommendationService":
        """Boot a service straight from a saved artifact bundle.

        ``mmap=True`` (manifest-layout bundles only) maps the parameter
        arrays read-only instead of copying them into the process:
        every service booted from the same bundle, in any process on
        the host, shares one page cache.  Read-only models
        serve normally; fold-in needs ``mmap=False`` or an
        ``OnlineConfig(on_readonly="copy")`` trainer.
        """
        from repro.serving.artifact import load_artifact

        loaded = load_artifact(path, mmap=mmap)
        service = cls(loaded.model, loaded.dataset, **kwargs)
        service.model_name = loaded.model_name
        return service

    # ------------------------------------------------------------------
    def _validate_k(self, k: int, exclude_seen: bool,
                    users: np.ndarray) -> None:
        n_items = self.dataset.n_items
        if k <= 0:
            raise ValueError("top_k must be positive")
        if exclude_seen:
            # Per queried user, not the global max: one heavy user must
            # not make every other user's request infeasible.
            for user in users.tolist():
                if k > n_items - self.index.seen_count(user):
                    raise ValueError(
                        f"top_k exceeds the number of unseen items for "
                        f"user {user}")
        elif k > n_items:
            raise ValueError("top_k exceeds the number of items")

    def recommend(self, user: int, k: Optional[int] = None,
                  exclude_seen: Optional[bool] = None) -> Recommendation:
        """Ranked top-k for one user (cached)."""
        return self.recommend_batch([user], k=k, exclude_seen=exclude_seen)[0]

    def recommend_batch(
        self,
        users: Sequence[int],
        k: Optional[int] = None,
        exclude_seen: Optional[bool] = None,
    ) -> list[Recommendation]:
        """Ranked top-k lists for many users in one micro-batched pass.

        Cache hits are answered immediately; the remaining users are
        scored together through the batch scorer, so a cold multi-user
        query costs one grid evaluation rather than one per user.
        """
        users_arr = np.asarray(users, dtype=np.int64)
        if users_arr.ndim != 1:
            raise ValueError("users must be a 1-d sequence")
        if users_arr.size and (users_arr.min() < 0
                               or users_arr.max() >= self.dataset.n_users):
            raise ValueError("user id out of range")
        k = self.top_k if k is None else int(k)
        exclude_seen = self.exclude_seen if exclude_seen is None else exclude_seen
        with self._m_request_seconds.time(), \
                self.tracer.start("recommend_batch"), self._lock:
            self._validate_k(k, exclude_seen, users_arr)
            self._m_requests.inc(int(users_arr.size))

            results: dict[int, Recommendation] = {}
            missing: list[int] = []
            with self.tracer.span("cache_lookup", users=int(users_arr.size)):
                unique_users = list(dict.fromkeys(users_arr.tolist()))
                cached_values = self.cache.get_many(
                    [(user, k, exclude_seen) for user in unique_users])
                for user, cached in zip(unique_users, cached_values):
                    if cached is not None:
                        results[user] = cached
                    else:
                        missing.append(user)

            # Blocks of ``user_batch`` bound peak memory: each block's
            # [user_batch, n_items] score matrix is ranked and freed
            # before the next is scored.
            for start in range(0, len(missing), self.user_batch):
                block_users = missing[start:start + self.user_batch]
                block = np.asarray(block_users, dtype=np.int64)
                if self.scorer.ann_active:
                    ranked, ranked_scores = self._rank_block_ann(
                        block, k, exclude_seen)
                else:
                    ranked, ranked_scores = self._rank_block_exact(
                        block, k, exclude_seen)
                self._m_users_scored.inc(int(block.size))
                block_entries = []
                for row, user in enumerate(block_users):
                    rec = Recommendation(user=user, items=ranked[row],
                                         scores=ranked_scores[row])
                    block_entries.append(((user, k, exclude_seen), rec))
                    results[user] = rec
                self.cache.put_many(block_entries)

            return [results[user] for user in users_arr.tolist()]

    def _rank_block_exact(self, block: np.ndarray, k: int,
                          exclude_seen: bool) -> tuple[np.ndarray, np.ndarray]:
        """Full-grid scoring + masking + ranking for one user block."""
        with self.tracer.span("rerank", path="exact", users=int(block.size)):
            scores = self.scorer.score(block)
            if exclude_seen:
                with self.tracer.span("mask_seen"):
                    self.index.mask_seen(scores, block)
            ranked = self.index.topk(scores, k)
        return ranked, np.take_along_axis(scores, ranked, axis=1)

    def _rank_block_ann(self, block: np.ndarray, k: int,
                        exclude_seen: bool) -> tuple[np.ndarray, np.ndarray]:
        """IVF candidates + exact re-rank, with per-row exact fallback.

        A row falls back to the full grid when its candidate slate —
        after seen-item masking — cannot fill ``k`` positions
        (``_validate_k`` already guaranteed the full catalogue can).
        """
        with self.tracer.span("ann_candidates", users=int(block.size)):
            cand = self.scorer.ann_candidates(block)
        with self.tracer.span("rerank", path="ann", users=int(block.size)):
            scores = self.scorer.score_listed(block, cand)
            if exclude_seen:
                with self.tracer.span("mask_seen"):
                    scores[self.index.pair_seen(block, cand)] = -np.inf
            usable = np.isfinite(scores).sum(axis=1)
            if cand.shape[1] >= k:
                cols = self.index.topk(scores, k)
                items = np.take_along_axis(cand, cols, axis=1)
                item_scores = np.take_along_axis(scores, cols, axis=1)
                short_rows = np.flatnonzero(usable < k)
            else:
                items = np.zeros((block.size, k), dtype=np.int64)
                item_scores = np.zeros((block.size, k))
                short_rows = np.arange(block.size)
        if short_rows.size:
            self._m_ann_fallbacks.inc(int(short_rows.size))
            exact_items, exact_scores = self._rank_block_exact(
                block[short_rows], k, exclude_seen)
            items[short_rows] = exact_items
            item_scores[short_rows] = exact_scores
        return items, item_scores

    # ------------------------------------------------------------------
    def add_interaction(self, user: int, item: int) -> bool:
        """Record that ``user`` interacted with ``item``.

        Single-event convenience over :meth:`update_interactions`.
        Returns False when the pair was already known.
        """
        return self.update_interactions([user], [item])["novel"] > 0

    def update_interactions(
        self, users: Sequence[int], items: Sequence[int]
    ) -> dict:
        """Ingest a batch of observed interactions.

        Always updates the seen-item overlay of the :class:`TopKIndex`
        (novel pairs only) so future lists stop recommending what the
        user just consumed.  When an online trainer is attached, the
        batch additionally *folds into the model*
        (:meth:`~repro.training.online.IncrementalTrainer.update`) and
        the scorer's item-side state is refreshed so the next grid
        evaluation scores with the updated parameters.

        Cache invalidation is as narrow as correctness allows: without
        fold-in (or with user-side-only fold-in) only the touched
        users' cached lists drop; item-side fold-in moves every user's
        scores, so then the whole cache is flushed.

        Malformed batches (ragged, out-of-range ids) are rejected up
        front with nothing ingested.  If the *fold-in step itself*
        fails (e.g. :class:`~repro.training.online.FoldInDivergedError`),
        the events stay recorded in the seen-item overlay and the
        touched users' cache entries are already dropped — index,
        cache and model remain mutually consistent — and the error
        propagates to the caller.

        Returns a report dict (``events``, ``novel``, ``folded_in``,
        ``invalidated``, and ``loss`` when fold-in ran).
        """
        users_arr = np.asarray(users, dtype=np.int64)
        items_arr = np.asarray(items, dtype=np.int64)
        if users_arr.shape != items_arr.shape or users_arr.ndim != 1:
            raise ValueError("users and items must be parallel 1-d sequences")
        if users_arr.size == 0:
            raise ValueError("no events supplied")
        # Whole-batch validation up front: a rejected request must not
        # leave a partially ingested batch behind.
        if users_arr.min() < 0 or users_arr.max() >= self.dataset.n_users:
            raise ValueError("user id out of range")
        if items_arr.min() < 0 or items_arr.max() >= self.dataset.n_items:
            raise ValueError("item id out of range")
        with self._m_update_seconds.time(), \
                self.tracer.start("update_interactions"), self._lock:
            novel = 0
            for user, item in zip(users_arr.tolist(), items_arr.tolist()):
                novel += bool(self.index.add(user, item))
            self._m_interactions.inc(novel)
            report = {
                "events": int(users_arr.size),
                "novel": novel,
                "folded_in": False,
                "invalidated": 0,
            }
            touched = set(users_arr.tolist())
            # Touched users' entries drop *before* fold-in runs: their
            # seen sets just changed, and doing it now keeps index and
            # cache consistent even if the fold-in step below raises.
            if novel or self.online is not None:
                report["invalidated"] = self.cache.invalidate(
                    lambda key: key[0] in touched)
            if self.online is not None:
                with self.tracer.span("fold_in", events=int(users_arr.size)):
                    update = self.online.update(users_arr, items_arr)
                self._m_folded.inc(update.events)
                report["folded_in"] = True
                report["loss"] = update.loss
                if (update.item_side_updated
                        or not getattr(self.model, "fold_in_is_local", True)):
                    # Item representations moved (or the model is
                    # non-local, e.g. graph propagation): the item-side
                    # precompute and every cached list are potentially
                    # stale.  User-side-only fold-in on a local model
                    # skips both — item_state provably didn't change.
                    self.scorer.refresh()
                    report["invalidated"] += self.cache.invalidate()
            return report

    def stats(self) -> dict:
        """Operational counters for the ``/stats`` endpoint."""
        with self._lock:
            return self._stats_locked()

    # -- observability surfaces ----------------------------------------
    def metrics_snapshot(self) -> list[dict]:
        """Plain-JSON metric entries (mergeable across processes)."""
        return self.registry.snapshot()

    def metrics_text(self) -> str:
        """Prometheus text exposition for ``GET /metrics``."""
        return render_snapshot(self.metrics_snapshot())

    def traces(self, n: Optional[int] = None) -> list[dict]:
        """Recent finished traces, newest first (``GET /trace``)."""
        return self.tracer.traces(n)

    def _stats_locked(self) -> dict:
        return {
            "model": getattr(self, "model_name", type(self.model).__name__),
            "dataset": self.dataset.name,
            "n_users": self.dataset.n_users,
            "n_items": self.dataset.n_items,
            "top_k_default": self.top_k,
            "requests": self.requests,
            "users_scored": self.users_scored,
            "interactions_added": self.interactions_added,
            "online_updates": self.online is not None,
            "updates_folded_in": self.updates_folded_in,
            "fast_path": self.scorer.uses_fast_path,
            "ann": self.scorer.ann_active,
            "ann_fallbacks": self.ann_fallbacks,
            "cache": self.cache.stats(),
        }
