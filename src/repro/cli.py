"""Command-line interface: regenerate paper tables or serve a model.

Usage::

    python -m repro table2
    python -m repro table3 --datasets movielens amazon-auto
    python -m repro table4 --models GML-FMdnn BPR-MF --scale quick
    python -m repro table3 --workers 0   # parallel sweep, one process/core
    python -m repro datasets          # list dataset keys
    python -m repro models            # list model names

(Tables 5-6 and the figures have no subcommand; regenerate them with
the ``slow`` benchmarks, e.g. ``pytest -m slow benchmarks/``.)

    # Online serving (repro.serving): JSON endpoints /recommend,
    # /update, /healthz and /stats over stdlib http.server.
    python -m repro serve --artifact bundle.npz --port 8765
    python -m repro serve --dataset movielens --model GML-FMmd --epochs 5
    python -m repro serve --online   # /update folds events into the model
    python -m repro serve --ann      # IVF candidate retrieval (sub-linear)
    python -m repro serve --trace    # per-request tracing (GET /trace)
    python -m repro serve --frontend async  # event loop + micro-batching
    python -m repro serve --artifact b --mmap  # zero-copy read-only model
    python -m repro serve --selfcheck # boot + one query + exit 0 (CI gate)

    # Observability consoles (repro.obs): watch a live server, or
    # aggregate the benchmark result records into one trajectory table.
    python -m repro top --url http://127.0.0.1:8765
    python -m repro bench report

    # Scenario engine (repro.scenarios): adversarial workloads with
    # gated capacity records (exit 0 iff the gate passed).
    python -m repro scenario list
    python -m repro scenario run flash-crowd
    python -m repro scenario run million-user --json

    # Streaming workload: seeded prequential replay (evaluate-then-
    # train over the event stream with incremental fold-in updates).
    python -m repro replay --dataset movielens --model MF
    python -m repro replay --model BPR-MF --warmup 0.7 --refresh-every 2048
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.data.synthetic import DATASET_BUILDERS, make_dataset
from repro.experiments.configs import get_scale
from repro.experiments.registry import (RATING_MODELS, SERVING_ONLY_MODELS,
                                        TOPN_MODELS)
from repro.experiments.runner import run_rating_table, run_topn_table
from repro.experiments.tables import format_table

DEFAULT_DATASETS = [
    "movielens",
    "amazon-office",
    "amazon-clothing",
    "amazon-auto",
    "mercari-ticket",
    "mercari-books",
]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the GML-FM paper's evaluation tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list available dataset keys")
    sub.add_parser("models", help="list model names per task")

    for name, help_text in (
        ("table2", "dataset statistics"),
        ("table3", "rating prediction RMSE"),
        ("table4", "top-n HR@10 / NDCG@10"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--datasets", nargs="+", default=DEFAULT_DATASETS,
                         choices=sorted(DATASET_BUILDERS))
        cmd.add_argument("--scale", default=None, choices=["quick", "full"])
        if name != "table2":
            default_models = RATING_MODELS if name == "table3" else TOPN_MODELS
            cmd.add_argument("--models", nargs="+", default=default_models)
            cmd.add_argument("--seed", type=int, default=0)
            cmd.add_argument(
                "--workers", type=int, default=None,
                help="training processes for the model x dataset sweep "
                     "(0 = one per CPU core; default $REPRO_WORKERS or 1). "
                     "Results are byte-identical for any value.")
            cmd.add_argument(
                "--backend", default=None, choices=["reference", "fused"],
                help="autograd training backend: 'fused' (default) is the "
                     "float32 engine with fused elementwise chains and "
                     "sparse embedding gradients; 'reference' is the "
                     "original float64 engine")

    serve = sub.add_parser(
        "serve", help="serve top-k recommendations over HTTP (repro.serving)")
    source = serve.add_mutually_exclusive_group()
    source.add_argument("--artifact", default=None,
                        help="serving bundle written by save_artifact")
    source.add_argument("--dataset", default="movielens",
                        choices=sorted(DATASET_BUILDERS),
                        help="synthetic dataset to build a model on")
    serve.add_argument("--model", default="GML-FMmd",
                       choices=sorted(set(RATING_MODELS) | set(TOPN_MODELS)
                                      | set(SERVING_ONLY_MODELS)),
                       help="registry model name (ignored with --artifact)")
    serve.add_argument("--scale", default=None, choices=["quick", "full"])
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--k", type=int, default=16, help="embedding size")
    serve.add_argument("--epochs", type=int, default=0,
                       help="quick-train this many epochs before serving")
    serve.add_argument("--backend", default=None,
                       choices=["reference", "fused"],
                       help="autograd backend for --epochs quick-training "
                            "(default: the TrainConfig default, 'fused')")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="0 binds an ephemeral port (printed at startup)")
    serve.add_argument("--top-k", type=int, default=10, dest="top_k")
    serve.add_argument("--cache-size", type=int, default=1024, dest="cache_size")
    serve.add_argument("--ann", action="store_true",
                       help="IVF candidate retrieval: score only the probed "
                            "item clusters instead of the full catalogue "
                            "(exact re-rank; models without a bilinear grid "
                            "decomposition keep the exact path)")
    serve.add_argument("--ann-clusters", type=int, default=None,
                       dest="ann_clusters",
                       help="IVF cluster count (default ~sqrt(n_items))")
    serve.add_argument("--ann-probes", type=int, default=None,
                       dest="ann_probes",
                       help="clusters scanned per query (default: half — "
                            "recall-safe; lower for throughput)")
    serve.add_argument("--frontend", default="threaded",
                       choices=["threaded", "async"],
                       help="HTTP transport: 'threaded' (default) is the "
                            "stdlib thread-per-request server, 'async' the "
                            "selector event loop that coalesces concurrent "
                            "/recommend calls into micro-batches (same "
                            "ranked items; scores equal to within "
                            "rounding)")
    serve.add_argument("--mmap", action="store_true",
                       help="memory-map the --artifact bundle read-only "
                            "(dir-layout bundles only): processes serving "
                            "the same bundle share one page cache instead "
                            "of copying the model; "
                            "incompatible with --online fold-in unless the "
                            "trainer copies on first write")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")
    serve.add_argument("--online", action="store_true",
                       help="fold /update events into the model incrementally "
                            "(user-side fold-in; exact per-user cache "
                            "invalidation)")
    serve.add_argument("--trace", action="store_true",
                       help="per-request tracing: mint a trace id per "
                            "/recommend and /update, record its spans, "
                            "expose them on GET /trace "
                            "(observational only — responses are "
                            "byte-identical with tracing on or off)")
    serve.add_argument("--selfcheck", action="store_true",
                       help="boot on a synthetic dataset, issue one query, exit")

    from repro.lint.cli import add_lint_parser

    add_lint_parser(sub)

    from repro.scenarios.cli import add_scenario_parser

    add_scenario_parser(sub)

    top = sub.add_parser(
        "top", help="live terminal view of a running server's /metrics")
    top.add_argument("--url", default="http://127.0.0.1:8765",
                     help="base URL of a running `repro serve` instance")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes")
    top.add_argument("--iterations", type=int, default=0,
                     help="stop after N refreshes (0 = until interrupted)")
    top.add_argument("--once", action="store_true",
                     help="print one sample and exit (no screen clearing)")

    bench = sub.add_parser(
        "bench", help="benchmark tooling (aggregate recorded results)")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    report = bench_sub.add_parser(
        "report",
        help="aggregate benchmarks/results/*.json into a trajectory table")
    report.add_argument("--results-dir", default="benchmarks/results",
                        dest="results_dir",
                        help="directory of benchmark JSON records")

    replay = sub.add_parser(
        "replay",
        help="prequential replay: evaluate-then-train over the event stream")
    replay.add_argument("--dataset", default="movielens",
                        choices=sorted(DATASET_BUILDERS))
    replay.add_argument("--model", default="MF",
                        choices=sorted(set(RATING_MODELS) | set(TOPN_MODELS)))
    replay.add_argument("--scale", default=None, choices=["quick", "full"])
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument("--warmup", type=float, default=0.8,
                        help="oldest fraction of events trained offline "
                             "before streaming (default 0.8)")
    replay.add_argument("--epochs", type=int, default=None,
                        help="override the scale's warmup epoch count")
    replay.add_argument("--batch", type=int, default=32,
                        help="events per evaluate-then-train step")
    replay.add_argument("--candidates", type=int, default=20,
                        help="sampled negatives each positive is ranked "
                             "against")
    replay.add_argument("--top-k", type=int, default=10, dest="top_k")
    replay.add_argument("--window", type=int, default=256,
                        help="events per rolling-metrics window")
    replay.add_argument("--refresh-every", type=int, default=0,
                        dest="refresh_every",
                        help="full-retrain on the accumulated log every N "
                             "streamed events (0 disables)")
    replay.add_argument("--backend", default=None,
                        choices=["reference", "fused"],
                        help="autograd backend for warmup/fold-in/refresh "
                             "training (default: fused offline, dtype-"
                             "inferred fold-in)")
    return parser


def _print_table2(datasets: Sequence[str], scale_name: Optional[str]) -> None:
    scale = get_scale(scale_name)
    header = (f"{'dataset':18s} {'#users':>8s} {'#items':>8s} "
              f"{'#attr-dim':>10s} {'#instances':>11s} {'sparsity':>9s}")
    print(header)
    print("-" * len(header))
    for key in datasets:
        stats = make_dataset(key, seed=0, scale=scale.dataset_scale).stats()
        print(f"{key:18s} {stats['users']:8d} {stats['items']:8d} "
              f"{stats['attribute_dim']:10d} {stats['instances']:11d} "
              f"{stats['sparsity']:8.2%}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "datasets":
        for key in sorted(DATASET_BUILDERS):
            print(key)
        return 0
    if args.command == "models":
        print("rating (Table 3):", ", ".join(RATING_MODELS))
        print("top-n  (Table 4):", ", ".join(TOPN_MODELS))
        return 0
    if args.command == "table2":
        _print_table2(args.datasets, args.scale)
        return 0
    if args.command == "serve":
        from repro.serving.server import serve_main

        return serve_main(args)
    if args.command == "lint":
        from repro.lint.cli import lint_main

        return lint_main(args)
    if args.command == "scenario":
        from repro.scenarios.cli import scenario_main

        return scenario_main(args)
    if args.command == "top":
        from repro.obs.console import top_main

        return top_main(args)
    if args.command == "bench":
        from repro.obs.console import bench_report_main

        return bench_report_main(args)
    if args.command == "replay":
        from repro.experiments.streaming import format_replay, run_replay

        result = run_replay(
            args.model,
            args.dataset,
            scale=get_scale(args.scale),
            seed=args.seed,
            warmup_frac=args.warmup,
            batch_size=args.batch,
            n_candidates=args.candidates,
            top_k=args.top_k,
            window=args.window,
            epochs=args.epochs,
            refresh_every=args.refresh_every,
            backend=args.backend,
        )
        print(format_replay(result))
        return 0

    scale = get_scale(args.scale)
    if args.command == "table3":
        unknown = set(args.models) - set(RATING_MODELS)
        if unknown:
            raise SystemExit(f"unknown rating models: {sorted(unknown)}")
        results = run_rating_table(args.datasets, args.models, scale=scale,
                                   seed=args.seed, workers=args.workers,
                                   backend=args.backend)
        print(format_table(results, args.datasets,
                           title="Rating prediction, test RMSE (* = best)",
                           lower_is_better=True))
        return 0
    if args.command == "table4":
        unknown = set(args.models) - set(TOPN_MODELS)
        if unknown:
            raise SystemExit(f"unknown top-n models: {sorted(unknown)}")
        results = run_topn_table(args.datasets, args.models, scale=scale,
                                 seed=args.seed, workers=args.workers,
                                 backend=args.backend)
        print(format_table(results, args.datasets,
                           title="Top-n recommendation, HR@10 / NDCG@10 (* = best)"))
        return 0
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
