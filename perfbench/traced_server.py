"""``repro serve`` with in-memory spans around the serving layers.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/traced_server.py SPANS.json serve --artifact B --port 0

The public entry points of each layer are wrapped before the server
starts; the command line after ``SPANS.json`` is handed to
``repro.cli.main`` unchanged.  On SIGTERM the spans are written to
``SPANS.json`` and the process exits.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from urllib.parse import parse_qs, urlsplit

from spans import Recorder


def _request_id(args, kwargs):
    query = parse_qs(urlsplit(args[1]).query)
    return int(query["rid"][0]) if "rid" in query else None


def _users(args, kwargs, result):
    return {"users": len(args[1])}


def _update_report(args, kwargs, report):
    return {key: report[key] for key in ("events", "novel", "invalidated")}


def instrument(recorder: Recorder) -> None:
    from repro.serving import cache, frontend, index, scorer, server, service
    from repro.training import online

    for module in (server, frontend):
        recorder.wrap(module, "respond_get", "frontend.respond", rid=_request_id)
        recorder.wrap(module, "respond_post", "frontend.respond", rid=_request_id)
    svc = service.RecommendationService
    recorder.wrap(svc, "recommend_batch", "service.recommend", attrs=_users)
    recorder.wrap(svc, "update_interactions", "service.update",
                  attrs=_update_report)
    recorder.wrap(cache.LRUCache, "get_many", "cache.get")
    recorder.wrap(cache.LRUCache, "put_many", "cache.put")
    recorder.wrap(cache.LRUCache, "invalidate", "cache.invalidate")
    recorder.wrap(scorer.BatchScorer, "score", "scorer.score", attrs=_users)
    recorder.wrap(index.TopKIndex, "mask_seen", "index.mask_seen")
    recorder.wrap(index.TopKIndex, "topk", "index.topk")
    recorder.wrap(online.IncrementalTrainer, "update", "online.update")


def main() -> None:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    instrument(recorder)

    def dump(signum, frame):
        with open(out, "w") as fh:
            json.dump(recorder.to_list(), fh)
        sys.stdout.flush()
        os._exit(0)

    signal.signal(signal.SIGTERM, dump)
    from repro.cli import main as repro_main

    sys.exit(repro_main(argv))


if __name__ == "__main__":
    main()
