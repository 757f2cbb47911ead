"""One Table-3 sweep in a fresh process, optionally traced or profiled.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    echo run | python perfbench/sweep.py --models GML-FMmd
                   [--mode plain|traced|profiled] [--spans FILE]

Once ``repro.experiments`` is imported the process prints one JSON line
(``{"ready": true}``), then runs one sweep per ``run`` line read from
standard input until end of input.  A sweep is
``repro.experiments.run_rating_table`` over the three Table-3 datasets
at ``quick`` scale with one worker and seed 0 — what
``repro table3 --models ...`` runs — and prints one JSON line with its
wall time and RMSE table.  ``traced`` records spans around the training
layers and adds their per-layer figures; ``profiled`` runs under
``repro.obs.profiler.profile()`` and adds the autograd per-op shares of
the sweep's wall time.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from spans import Recorder, ancestors, children_of, covered, from_dicts

DATASETS = ["movielens", "amazon-auto", "mercari-ticket"]
SEED = 0
PROFILED_OPS = ("matmul", "mul", "embedding", "sum")


def _fit_attrs(args, kwargs, result):
    rows = len(args[1])
    return {"rows": rows, "epochs": len(result.train_losses)}


def instrument(recorder: Recorder) -> None:
    """Wrap the public entry points of each training layer."""
    import repro.data.synthetic as synthetic
    import repro.experiments.runner as runner
    from repro.autograd.optim import Adam
    from repro.autograd.tensor import Tensor
    from repro.models.base import FeatureRecommender, RecommenderModel
    from repro.training.trainer import Trainer

    recorder.wrap(runner, "run_rating_cell", "runner.cell")
    recorder.wrap(synthetic, "make_dataset", "data.dataset")
    recorder.wrap(runner, "build_rating_instances", "evaluation.instances")
    recorder.wrap(runner, "evaluate_rating", "evaluation.validate")
    recorder.wrap(Trainer, "fit_pointwise", "trainer.fit", attrs=_fit_attrs)
    recorder.wrap(Tensor, "backward", "autograd.backward")
    recorder.wrap(Adam, "step", "optim.step")
    for cls in (RecommenderModel, FeatureRecommender):
        original = cls.__dict__["batch_scorer"]

        def batch_scorer(self, *args, _original=original, **kwargs):
            score = _original(self, *args, **kwargs)
            return lambda batch: recorder.call("autograd.forward", score,
                                               (batch,), {})

        setattr(cls, "batch_scorer", batch_scorer)


def training_metrics(rows: list[dict]) -> dict:
    """Per-layer figures of one traced sweep (times in ms)."""
    spans = from_dicts(rows)
    by_id = {s.id: s for s in spans}
    kids = children_of(spans)
    named = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def total_ms(name, keep=lambda s: True):
        return 1e3 * sum(s.duration for s in named.get(name, []) if keep(s))

    def mean_ms(name):
        group = named.get(name, [])
        return total_ms(name) / len(group) if group else 0.0

    def in_training(s):
        names = list(ancestors(s, by_id))
        return "trainer.fit" in names and "evaluation.validate" not in names

    fits = named.get("trainer.fit", [])
    epochs = sum(s.attrs["epochs"] for s in fits)
    train_s = sum(
        s.duration - covered((s.start, s.end),
                             [(c.start, c.end) for c in kids.get(s.id, ())
                              if c.name == "evaluation.validate"])
        for s in fits)
    instances = sum(s.attrs["rows"] * s.attrs["epochs"] for s in fits)
    return {
        "runner.cell_ms": mean_ms("runner.cell"),
        "runner.cells": len(named.get("runner.cell", [])),
        "trainer.epoch_ms": 1e3 * train_s / epochs if epochs else 0.0,
        "trainer.epochs": epochs,
        "trainer.instances_per_s": instances / train_s if train_s else 0.0,
        "evaluation.instances_ms": mean_ms("evaluation.instances"),
        "evaluation.validate_ms": mean_ms("evaluation.validate"),
        "autograd.forward_ms": total_ms("autograd.forward", in_training),
        "autograd.backward_ms": total_ms("autograd.backward", in_training),
        "optim.step_ms": total_ms("optim.step"),
        "data.dataset_ms": mean_ms("data.dataset"),
    }


def sweep_once(models: list[str], mode: str, recorder: Recorder,
               spans_path: str | None) -> dict:
    from repro.experiments.configs import get_scale
    from repro.experiments.runner import run_rating_table
    from repro.obs.profiler import profile

    scale = get_scale("quick")
    start = time.perf_counter()
    if mode == "profiled":
        with profile() as prof:
            table = run_rating_table(DATASETS, models, scale=scale,
                                     seed=SEED, workers=1)
    else:
        table = run_rating_table(DATASETS, models, scale=scale,
                                 seed=SEED, workers=1)
    report = {"sweep_s": time.perf_counter() - start, "rmse": table,
              "finite": all(math.isfinite(v) for row in table.values()
                            for v in row.values())}
    if mode == "traced":
        rows = recorder.to_list()
        recorder.spans.clear()
        if spans_path:
            with open(spans_path, "w") as fh:
                json.dump(rows, fh)
        report["layers"] = training_metrics(rows)
    if mode == "profiled":
        stats = {row["op"]: row for row in prof.summary()}
        report["layers"] = {
            f"autograd.{op}_share": stats[op]["total_s"] / prof.wall_s
            if op in stats else 0.0
            for op in PROFILED_OPS}
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", nargs="+", required=True)
    parser.add_argument("--mode", default="plain",
                        choices=["plain", "traced", "profiled"])
    parser.add_argument("--spans", default=None,
                        help="file the traced mode writes its spans to")
    args = parser.parse_args()

    recorder = Recorder()
    if args.mode == "traced":
        instrument(recorder)
    import repro.experiments.runner  # noqa: F401  (ready once imported)

    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        if line.strip() != "run":
            break
        print(json.dumps(sweep_once(args.models, args.mode, recorder,
                                    args.spans)), flush=True)


if __name__ == "__main__":
    main()
