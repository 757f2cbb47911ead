"""Approximate candidate retrieval: a clustered (IVF) item index.

Exact serving scores every user against the *whole* catalogue — an
O(n_items) matmul plus an O(n_items) ranking pass per user.  Every
grid-fast-path model in this repo decomposes its score as

    score(u, i) = u_const[u] + i_const[i] + U[u] · V[i]

(:meth:`repro.models.base.RecommenderModel.grid_factor_items`), which
turns top-k retrieval into maximum-inner-product search over the
*augmented* item vectors ``[V[i], i_const[i]]`` against the augmented
query ``[U[u], 1]``.  The :class:`IVFIndex` makes that sub-linear:

- **codebook** — a seeded k-means (k-means++ init, Lloyd refinement)
  partitions the augmented item vectors into ``n_clusters`` inverted
  lists;
- **probing** — a query scores only the ``probes`` clusters whose
  centroids have the highest inner product with it, and the union of
  their lists becomes the candidate set;
- **re-rank** — the caller (:class:`repro.serving.scorer.BatchScorer`)
  scores the candidates exactly, so any true top-k item that lands in
  the candidate set is ranked exactly as the full grid would rank it.

**Query-distribution whitening.**  Plain Euclidean k-means clusters by
whatever dimensions carry the most item-side variance, which need not
be the dimensions that decide scores (e.g. a freshly initialized MF is
bias-dominated: the bias column moves every ranking but is one tiny
coordinate among ``k`` factor columns).  The index therefore clusters
``V' = V * s`` and probes with ``q' = q / s`` where ``s[j]`` is the RMS
of query coordinate ``j`` over a seeded user sample — inner products
are unchanged (``q'·V' = q·V``) while the cluster geometry aligns with
the dimensions that actually move scores.

Determinism: the codebook depends only on the vectors and
``ANNConfig.seed``, so two processes building from the same model
state produce identical candidate sets.

Recall/latency trade-off: ``probes/n_clusters`` is the scanned fraction
of the catalogue.  The default (half the clusters) is tuned for
recall@10 ≥ 0.95 even on isotropic random states — the worst case for
any clustering index; structured real model states cluster far better,
so throughput deployments can drop ``probes`` well below the default
(the cluster throughput benchmark probes 3 of 40 clusters — under a
tenth of the catalogue — at recall ≈ 0.997).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class ANNConfig:
    """Knobs of the IVF candidate index.

    Parameters
    ----------
    n_clusters:
        Inverted-list count; ``None`` → ``round(sqrt(n_items))``
        (clamped to ``[2, n_items]``).
    probes:
        Clusters scanned per query; ``None`` → ``ceil(n_clusters / 2)``
        (the recall-safe default, see the module docstring).
    seed:
        Seeds the k-means codebook (and nothing else — probing is
        deterministic given the codebook).
    kmeans_iters:
        Lloyd refinement passes after k-means++ seeding.
    min_items:
        Catalogues smaller than this skip ANN entirely: a full grid
        pass over a few dozen items is already cheaper than probing.
    """

    n_clusters: Optional[int] = None
    probes: Optional[int] = None
    seed: int = 0
    kmeans_iters: int = 15
    min_items: int = 64

    def __post_init__(self):
        if self.n_clusters is not None and self.n_clusters < 1:
            raise ValueError("n_clusters must be positive")
        if self.probes is not None and self.probes < 1:
            raise ValueError("probes must be positive")
        if self.kmeans_iters < 0:
            raise ValueError("kmeans_iters must be >= 0")

    def resolve_clusters(self, n_items: int) -> int:
        if self.n_clusters is not None:
            return max(1, min(self.n_clusters, n_items))
        # max(2, √n) lifts tiny catalogues off one-cluster "indexes",
        # then the n_items clamp keeps degenerate 1-item inputs valid.
        return max(1, min(n_items, max(2, int(round(math.sqrt(n_items))))))

    def resolve_probes(self, n_clusters: int) -> int:
        if self.probes is not None:
            return min(self.probes, n_clusters)
        return max(1, math.ceil(n_clusters / 2))


def kmeans(vectors: np.ndarray, n_clusters: int, seed: int = 0,
           iters: int = 15) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means: ``(centroids [c, d], assignments [n])``.

    k-means++ seeding followed by ``iters`` Lloyd passes.  Entirely a
    function of ``(vectors, n_clusters, seed)`` — no global RNG state —
    so codebooks are reproducible across processes.  Clusters that
    lose all members keep their previous centroid (their inverted list
    is simply empty).
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise ValueError("vectors must be a non-empty [n, d] matrix")
    n = vectors.shape[0]
    n_clusters = int(n_clusters)
    if not 1 <= n_clusters <= n:
        raise ValueError("n_clusters must be in [1, n_vectors]")
    rng = np.random.default_rng(seed)

    # k-means++ seeding: each next center drawn proportional to the
    # squared distance from the nearest center chosen so far.
    centroids = np.empty((n_clusters, vectors.shape[1]))
    centroids[0] = vectors[rng.integers(n)]
    d2 = ((vectors - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, n_clusters):
        total = d2.sum()
        if total > 0:
            centroids[j] = vectors[rng.choice(n, p=d2 / total)]
        else:  # all points coincide with chosen centers
            centroids[j] = vectors[rng.integers(n)]
        d2 = np.minimum(d2, ((vectors - centroids[j]) ** 2).sum(axis=1))

    def nearest(points, centers):
        # argmin ||x - c||² = argmax (2 x·c - ||c||²); ||x||² is rank-free.
        affinity = points @ centers.T
        affinity *= 2.0
        affinity -= (centers * centers).sum(axis=1)[None, :]
        return affinity.argmax(axis=1)

    assign = np.full(n, -1, dtype=np.int64)
    for _round in range(iters):
        new_assign = nearest(vectors, centroids)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, vectors)
        counts = np.bincount(assign, minlength=n_clusters)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]
    # Returned assignments are always against the *returned* centroids
    # (the loop above moves centroids after assigning): probing the
    # codebook must agree with the inverted lists, or items near a
    # moved boundary silently vanish from their probed cluster.
    return centroids, nearest(vectors, centroids)


class IVFIndex:
    """Inverted-file candidate index over item vectors.

    Parameters
    ----------
    vectors:
        ``[n_items, d]`` item vectors, already in the space queries
        will probe in (the scorer applies query whitening before
        building).
    config:
        Clustering/probing knobs; see :class:`ANNConfig`.
    """

    def __init__(self, vectors: np.ndarray, config: ANNConfig = ANNConfig()):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] == 0:
            raise ValueError("vectors must be a non-empty [n, d] matrix")
        self.config = config
        self.n_items, self.dim = vectors.shape
        self.n_clusters = config.resolve_clusters(self.n_items)
        self.default_probes = config.resolve_probes(self.n_clusters)
        self.centroids, self._assign = kmeans(
            vectors, self.n_clusters, seed=config.seed,
            iters=config.kmeans_iters)
        # Inverted lists as a CSR over cluster ids: _order holds item
        # ids grouped by cluster, _indptr the per-cluster slice bounds.
        order = np.argsort(self._assign, kind="stable")
        self._order = order.astype(np.int64)
        self._indptr = np.searchsorted(
            self._assign[order], np.arange(self.n_clusters + 1))

    def cluster_of(self, items: np.ndarray) -> np.ndarray:
        """Cluster id per item (diagnostics and tests)."""
        return self._assign[np.asarray(items, dtype=np.int64)]

    def cluster_sizes(self) -> np.ndarray:
        return np.diff(self._indptr)

    def candidates(self, queries: np.ndarray,
                   probes: Optional[int] = None) -> np.ndarray:
        """Candidate item ids per query row.

        Returns an ``int64 [n_queries, m]`` matrix, ``-1``-padded on
        the right (``m`` is the largest candidate count in the batch).
        Scanning the top-``probes`` clusters by centroid inner product;
        ``probes >= n_clusters`` returns every item (exact retrieval).
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.shape[1] != self.dim:
            raise ValueError(
                f"query dim {queries.shape[1]} != index dim {self.dim}")
        p = self.default_probes if probes is None else int(probes)
        if p < 1:
            raise ValueError("probes must be positive")
        p = min(p, self.n_clusters)
        n_q = queries.shape[0]

        affinity = queries @ self.centroids.T                  # [Q, c]
        if p < self.n_clusters:
            part = np.argpartition(-affinity, p - 1, axis=1)[:, :p]
        else:
            part = np.broadcast_to(np.arange(self.n_clusters),
                                   (n_q, self.n_clusters))
        # Vectorized CSR gather of every (query, probed cluster) list.
        starts = self._indptr[part].ravel()
        lengths = (self._indptr[part + 1] - self._indptr[part]).ravel()
        total = int(lengths.sum())
        if total == 0:
            return np.full((n_q, 1), -1, dtype=np.int64)
        seg_offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
        flat_pos = np.arange(total)
        flat_items = self._order[np.repeat(starts, lengths)
                                 + (flat_pos - seg_offsets)]
        row_lengths = lengths.reshape(n_q, p).sum(axis=1)
        width = int(row_lengths.max())
        out = np.full((n_q, width), -1, dtype=np.int64)
        row_of = np.repeat(np.arange(n_q), row_lengths)
        row_starts = np.repeat(np.cumsum(row_lengths) - row_lengths,
                               row_lengths)
        out[row_of, flat_pos - row_starts] = flat_items
        return out


def whitening_scale(query_sample: np.ndarray) -> np.ndarray:
    """Per-dimension RMS of a query sample (zeros mapped to 1).

    ``scale`` such that probing ``queries / scale`` against an index
    built on ``vectors * scale`` preserves every inner product while
    equalizing the score contribution of each dimension in cluster
    space (see the module docstring).
    """
    sample = np.atleast_2d(np.asarray(query_sample, dtype=np.float64))
    scale = np.sqrt((sample * sample).mean(axis=0))
    return np.where(scale > 0, scale, 1.0)
