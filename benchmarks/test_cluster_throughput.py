"""IVF-cluster ANN retrieval: JSON record and gates.

One record lands in ``benchmarks/results/cluster_throughput.json``
(or ``REPRO_BENCH_JSON``):

- ``ann_retrieval`` — IVF candidate retrieval vs exact full-grid
  scoring on the large synthetic corpus: candidate recall@10 against
  the exact top-10 and the end-to-end scoring speedup
  (score + mask + rank, identical blocks).  **Gates**: recall ≥ 0.95
  and speedup ≥ 5× — both unconditional.

The ANN operating point (``n_clusters ≈ √n``, ``probes = 3``) scans
under a tenth of the catalogue; the recall-safe *default* probe count
is far more conservative (half the clusters — see
:mod:`repro.serving.ann`), so this record doubles as the documented
recall/latency trade-off measurement.
"""

import numpy as np
import pytest

from repro.data.synthetic import make_dataset
from repro.experiments.registry import build_model
from repro.serving.ann import ANNConfig
from repro.serving.index import TopKIndex
from repro.serving.scorer import BatchScorer
from conftest import emit_bench_records, time_best

pytestmark = [pytest.mark.serving, pytest.mark.cluster]

MODEL = "BPR-MF"
TOP_K = 10
ANN_CLUSTERS = 40
ANN_PROBES = 3
ANN_RECALL_GATE = 0.95
ANN_SPEEDUP_GATE = 5.0


def measure_ann(model, dataset) -> dict:
    scorer = BatchScorer(model, dataset,
                         ann=ANNConfig(n_clusters=ANN_CLUSTERS,
                                       probes=ANN_PROBES, seed=0))
    assert scorer.ann_active
    index = TopKIndex.from_dataset(dataset)
    users = np.arange(min(256, dataset.n_users), dtype=np.int64)

    def run_exact():
        scores = scorer.score(users)
        index.mask_seen(scores, users)
        return index.topk(scores, TOP_K)

    def run_ann():
        cand = scorer.ann_candidates(users)
        scores = scorer.score_listed(users, cand)
        scores[index.pair_seen(users, cand)] = -np.inf
        cols = index.topk(scores, TOP_K)
        return np.take_along_axis(cand, cols, axis=1)

    exact_items, exact_time = time_best(run_exact, repeats=3)
    ann_items, ann_time = time_best(run_ann, repeats=3)
    recall = float(np.mean([
        np.isin(exact_items[row], ann_items[row]).mean()
        for row in range(users.size)]))
    return {
        "benchmark": "ann_retrieval",
        "model": MODEL,
        "n_users": dataset.n_users,
        "n_items": dataset.n_items,
        "block_users": int(users.size),
        "top_k": TOP_K,
        "n_clusters": ANN_CLUSTERS,
        "probes": ANN_PROBES,
        "scanned_fraction": float(ANN_PROBES / ANN_CLUSTERS),
        "recall_at_10": recall,
        "users_per_sec_exact": users.size / exact_time,
        "users_per_sec_ann": users.size / ann_time,
        "speedup": exact_time / ann_time,
        "gate": f"recall >= {ANN_RECALL_GATE}, speedup >= "
                f"{ANN_SPEEDUP_GATE}x",
    }


def test_cluster_throughput(benchmark):
    dataset = make_dataset("movielens", seed=0, scale=4.0)
    model = build_model(MODEL, dataset, k=32, seed=0)

    def run_sweep():
        return [measure_ann(model, dataset)]

    records = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit_bench_records(records, "cluster_throughput.json")

    (ann,) = records
    print(f"\nANN retrieval, {ann['n_users']} users x "
          f"{ann['n_items']} items")
    print(f"  ann    : recall@10={ann['recall_at_10']:.4f}  "
          f"{ann['users_per_sec_exact']:.0f} -> "
          f"{ann['users_per_sec_ann']:.0f} users/s "
          f"({ann['speedup']:.1f}x, scans "
          f"{ann['scanned_fraction']:.0%} of the catalogue)")

    assert ann["recall_at_10"] >= ANN_RECALL_GATE, (
        f"ANN candidate recall@10 {ann['recall_at_10']:.3f} below "
        f"{ANN_RECALL_GATE}")
    assert ann["speedup"] >= ANN_SPEEDUP_GATE, (
        f"ANN scoring only {ann['speedup']:.1f}x faster than the exact "
        f"full grid")
