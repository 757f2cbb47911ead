"""Table 5: ablation of GML-FM variants on MovieLens and Mercari-Ticket.

Paper blocks and their reproduced shape claims:

1. Transformation weight & Mahalanobis matrix
      w/o weight & M  →  plain Euclidean distance, no weight
      w/ M only       →  Mahalanobis, no weight (worse than Euclidean!)
      w/ weight & M   →  full GML-FMmd (large jump, esp. on Ticket:
                          the paper reports +49% absolute HR)
2. DNN depth 0–3: 1–2 layers best, 3 over-fits.
3. Distance family at one layer: Euclidean beats Manhattan / Chebyshev
   / Cosine, with Cosine (inner-product style) at the bottom.
"""

from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import pytest

from repro.core.gml_fm import GMLFM
from repro.data import make_dataset
from repro.experiments.parallel import resolve_workers
from repro.experiments.runner import run_custom_rating, run_custom_topn
from conftest import run_once

pytestmark = pytest.mark.slow

DATASETS = ["movielens", "mercari-ticket"]


def _variants():
    """Name → model factory for every Table 5 row."""
    def build(**kwargs):
        return lambda ds, rng: GMLFM(ds, k=32, rng=rng, **kwargs)

    rows = {
        "w/o weight & M": build(transform="identity", use_weight=False),
        "w/ M only": build(transform="mahalanobis", use_weight=False,
                           init_std=0.1),
        "w/ weight & M": build(transform="mahalanobis", init_std=0.1),
    }
    for layers in range(4):
        rows[f"#layers {layers}"] = build(transform="dnn", n_layers=layers)
    for distance in ("manhattan", "euclidean", "chebyshev", "cosine"):
        rows[f"dist {distance}"] = build(
            transform="dnn", n_layers=1, distance=distance, mode="naive"
        )
    return rows


@lru_cache(maxsize=len(DATASETS))
def _dataset(key, dataset_scale):
    return make_dataset(key, seed=0, scale=dataset_scale)


def _cell(cell):
    """(RMSE, HR@10, NDCG@10) of one variant on one dataset."""
    name, key, scale = cell
    build = _variants()[name]
    ds = _dataset(key, scale.dataset_scale)
    rmse = run_custom_rating(build, ds, scale=scale)
    hr, ndcg = run_custom_topn(build, ds, scale=scale)
    return rmse, hr, ndcg


def test_table5_ablation(benchmark, scale):
    cells = [(name, key, scale) for name in _variants() for key in DATASETS]

    def run_all():
        # Every cell is seeded and independent, so one process per core
        # reproduces the serial values and only cuts the wall time.
        workers = min(resolve_workers(0), len(cells))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_cell, cells))
        table = {}
        for (name, key, _), result in zip(cells, results):
            table.setdefault(name, {})[key] = result
        return table

    table = run_once(benchmark, run_all)

    print("\nTable 5: GML-FM ablation (RMSE | HR@10 | NDCG@10)")
    header = f"{'variant':18s}" + "".join(f"{d:>30s}" for d in DATASETS)
    print(header)
    print("-" * len(header))
    for name, row in table.items():
        cells = "".join(
            f"{rmse:10.4f} {hr:9.4f} {ndcg:9.4f}" for rmse, hr, ndcg in row.values()
        )
        print(f"{name:18s}{cells}")

    # Shape assertions on the sparse dataset (the paper's headline).
    ticket = {name: row["mercari-ticket"] for name, row in table.items()}

    def hr(name):
        return ticket[name][1]

    # The transformation weight is the critical ingredient: full model
    # far exceeds both unweighted variants.
    assert hr("w/ weight & M") > hr("w/o weight & M")
    assert hr("w/ weight & M") > hr("w/ M only")
    # A learnable metric with at least one layer beats the weighted
    # Euclidean (#layers 0) on one of the two datasets.
    best_deep = max(hr(f"#layers {l}") for l in (1, 2))
    assert best_deep >= hr("#layers 0") * 0.95
    # Euclidean is the strongest base distance.
    assert hr("dist euclidean") >= max(
        hr("dist manhattan"), hr("dist chebyshev"), hr("dist cosine")
    ) * 0.95
