"""Online recommendation serving: the deployment path of the repo.

The research side trains and evaluates; this package turns a trained
model into a service.  Module map::

    artifact.py   self-describing model bundles: legacy .npz archives
                  and the mmap-able manifest/dir layout (zero-copy,
                  read-only, page-cache-shared across processes)
    scorer.py     vectorized [users, catalogue] grid scoring (+ ANN)
    ann.py        seeded IVF candidate index (k-means codebook, probes)
    index.py      CSR seen-item masking + argpartition top-k ranking
    cache.py      thread-safe LRU result cache with hit/miss counters
    service.py    RecommendationService facade (micro-batching, stats)
    server.py     stdlib-http JSON endpoint + `repro serve` backing
    frontend.py   selector event loop coalescing /recommend requests
                  into recommend_batch micro-batches

Typical flow::

    from repro.serving import save_artifact, RecommendationService

    save_artifact(model, dataset, "bundle.npz", "GML-FMmd", {"k": 32})
    service = RecommendationService.from_artifact("bundle.npz")
    service.recommend(user=0, k=10)

or from the shell: ``python -m repro serve --artifact bundle.npz``.
"""

from repro.serving.ann import ANNConfig, IVFIndex, kmeans
from repro.serving.artifact import (
    ARTIFACT_VERSION,
    LoadedArtifact,
    load_artifact,
    save_artifact,
)
from repro.serving.artifact import convert_artifact
from repro.serving.cache import LRUCache
from repro.serving.frontend import AsyncFrontend
from repro.serving.index import TopKIndex
from repro.serving.scorer import BatchScorer
from repro.serving.server import RecommendationServer, build_server, selfcheck
from repro.serving.service import Recommendation, RecommendationService

__all__ = [
    "ARTIFACT_VERSION",
    "LoadedArtifact",
    "save_artifact",
    "load_artifact",
    "convert_artifact",
    "AsyncFrontend",
    "ANNConfig",
    "IVFIndex",
    "kmeans",
    "BatchScorer",
    "TopKIndex",
    "LRUCache",
    "Recommendation",
    "RecommendationService",
    "RecommendationServer",
    "build_server",
    "selfcheck",
]
