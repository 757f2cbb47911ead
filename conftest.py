"""Repository-level pytest configuration."""


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "serving: online serving subsystem tests (repro.serving); "
        "run with `pytest -m serving`",
    )
    config.addinivalue_line(
        "markers",
        "slow: heavyweight paper-reproduction benchmarks (full model "
        "training sweeps); deselect with `pytest -m 'not slow'` for the "
        "fast tier-1 suite",
    )
    config.addinivalue_line(
        "markers",
        "streaming: streaming-ingestion / incremental-update subsystem "
        "tests (repro.data.streaming, repro.training.online); run with "
        "`pytest -m streaming`",
    )
    config.addinivalue_line(
        "markers",
        "cluster: IVF-cluster ANN retrieval (repro.serving.ann) and "
        "live-server load / concurrency-stress tests; run with "
        "`pytest -m cluster`",
    )
    config.addinivalue_line(
        "markers",
        "obs: observability subsystem tests (repro.obs): metrics "
        "registry, request tracing, op profiler, "
        "console surfaces; run with `pytest -m obs`",
    )
    config.addinivalue_line(
        "markers",
        "scenario: scenario-engine tests (repro.scenarios): streamed "
        "corpus invariants, arrival schedules, workload runs and the "
        "gated capacity benchmarks; run with `pytest -m scenario` "
        "(the million-user capacity sweep is additionally `slow`)",
    )
    config.addinivalue_line(
        "markers",
        "lint: static contract checker tests (repro.lint): rule "
        "fixtures, suppression mechanics, and the codebase-clean gate "
        "(`repro lint --strict` over src/repro); run with "
        "`pytest -m lint`",
    )


def pytest_collection_modifyitems(config, items):
    """Run the ``slow`` paper sweeps after everything else.

    Collection order is alphabetical, which puts ``benchmarks/`` (and
    its ~15 minutes of training sweeps) ahead of the ~1250 unit and
    integration tests under ``tests/``.  Moving the slow items to the
    end keeps every test in the run while letting ``pytest -x`` report
    a broken unit test in a minute or two instead of after the sweeps.
    The sort is stable, so order within each group is unchanged.
    """
    items.sort(key=lambda item: item.get_closest_marker("slow") is not None)
