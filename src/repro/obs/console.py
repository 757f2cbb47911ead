"""Terminal surfaces: ``repro top`` and ``repro bench report``.

``repro top`` polls a live server's ``/stats`` (legacy JSON counters)
and ``/metrics?format=json`` (registry snapshot) and renders a
one-screen operational view — request rates computed from successive
samples, latency percentiles read straight off the histogram snapshot
(:func:`repro.obs.metrics.snapshot_quantile`) and cache health.
Rendering is a pure function of the samples so tests drive it
without a terminal.

``repro bench report`` aggregates every JSON record under
``benchmarks/results/`` into one trajectory table: benchmark name,
measured speedup (or percent), the gate it was held to, and pass/skip.
Records are what the gated benchmarks already write; this merely makes
the perf history inspectable in one place.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
import urllib.request
from typing import Optional

from repro.obs.metrics import snapshot_quantile


# ----------------------------------------------------------------------
# repro top
# ----------------------------------------------------------------------
def fetch_json(url: str, timeout: float = 10.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.loads(resp.read())


def sample_server(base_url: str, timeout: float = 10.0) -> dict:
    """One polling sample: stats + metrics snapshot + a monotonic stamp."""
    return {
        "t": time.perf_counter(),
        "stats": fetch_json(base_url.rstrip("/") + "/stats", timeout),
        "metrics": fetch_json(
            base_url.rstrip("/") + "/metrics?format=json",
            timeout).get("metrics", []),
    }


def _find_metric(snapshot: list, name: str) -> Optional[dict]:
    for entry in snapshot:
        if entry["name"] == name and not entry.get("labels"):
            return entry
    return None


def _rate(now: dict, prev: Optional[dict], counter: str) -> float:
    if prev is None:
        return 0.0
    dt = now["t"] - prev["t"]
    if dt <= 0:
        return 0.0
    return (now["stats"].get(counter, 0) - prev["stats"].get(counter, 0)) / dt


def _fmt_ms(seconds: float) -> str:
    return "--" if math.isnan(seconds) else f"{seconds * 1e3:.2f}ms"


def render_top(sample: dict, prev: Optional[dict] = None,
               url: str = "") -> str:
    """One screenful of operational state (pure; no I/O)."""
    stats = sample["stats"]
    metrics = sample["metrics"]
    lines = []
    title = f"repro top — {stats.get('model', '?')} on {stats.get('dataset', '?')}"
    if url:
        title += f" @ {url}"
    lines.append(title)
    lines.append("=" * len(title))
    lines.append(
        f"catalogue  {stats.get('n_users', 0):>8d} users x "
        f"{stats.get('n_items', 0):>6d} items   "
        f"fast_path={stats.get('fast_path')}  ann={stats.get('ann')}  "
        f"online={stats.get('online_updates')}")
    lines.append(
        f"requests   {stats.get('requests', 0):>10d} total  "
        f"{_rate(sample, prev, 'requests'):>8.1f}/s   "
        f"users_scored {stats.get('users_scored', 0)}   "
        f"ann_fallbacks {stats.get('ann_fallbacks', 0)}")
    lines.append(
        f"updates    {stats.get('interactions_added', 0):>10d} ingested  "
        f"{_rate(sample, prev, 'interactions_added'):>8.1f}/s   "
        f"folded_in {stats.get('updates_folded_in', 0)}")
    cache = stats.get("cache", {})
    lines.append(
        f"cache      {cache.get('size', 0)}/{cache.get('capacity', 0)} "
        f"entries   hit_rate {cache.get('hit_rate', 0.0):.1%}   "
        f"evictions {cache.get('evictions', 0)}   "
        f"invalidations {cache.get('invalidations', 0)}")
    request_hist = _find_metric(metrics, "repro_request_seconds")
    if request_hist is not None and request_hist.get("count"):
        p50 = snapshot_quantile(request_hist, 0.50)
        p95 = snapshot_quantile(request_hist, 0.95)
        p99 = snapshot_quantile(request_hist, 0.99)
        mean = request_hist["sum"] / request_hist["count"]
        lines.append(
            f"latency    p50 {_fmt_ms(p50)}   p95 {_fmt_ms(p95)}   "
            f"p99 {_fmt_ms(p99)}   mean {_fmt_ms(mean)}   "
            f"({request_hist['count']} samples)")
    else:
        lines.append("latency    (no request samples yet)")
    return "\n".join(lines)


def top_main(args) -> int:
    """Entry point behind ``repro top``."""
    url = args.url.rstrip("/")
    # --iterations 0 (the CLI default) means "until interrupted".
    iterations = 1 if args.once else (args.iterations or None)
    interval = max(0.1, args.interval)
    prev = None
    count = 0
    clear = sys.stdout.isatty() and not args.once
    try:
        while iterations is None or count < iterations:
            if count:
                time.sleep(interval)
            try:
                sample = sample_server(url)
            except OSError as exc:
                print(f"repro top: cannot reach {url}: {exc}",
                      file=sys.stderr)
                return 1
            if clear:
                sys.stdout.write("\x1b[2J\x1b[H")
            print(render_top(sample, prev, url=url), flush=True)
            prev = sample
            count += 1
    except KeyboardInterrupt:
        pass
    return 0


# ----------------------------------------------------------------------
# repro bench report
# ----------------------------------------------------------------------
def load_records(results_dir: str) -> list[dict]:
    """Every benchmark record under ``results_dir`` (file order, then
    record order inside a file); each gets a ``_file`` provenance key."""
    records = []
    if not os.path.isdir(results_dir):
        return records
    for name in sorted(os.listdir(results_dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(results_dir, name)
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        for record in data if isinstance(data, list) else [data]:
            if isinstance(record, dict):
                records.append({**record, "_file": name})
    return records


def _measured(record: dict) -> Optional[float]:
    """The record's headline number: a speedup, a ratio, or a percent."""
    for key in ("speedup", "speedup_req_per_sec", "throughput_ratio",
                "recall_at_10", "percent"):
        if key in record and isinstance(record[key], (int, float)):
            return float(record[key])
    for key, value in record.items():
        if "speedup" in key and isinstance(value, (int, float)):
            return float(value)
    return None


def _status(record: dict) -> str:
    gate = record.get("gate")
    if isinstance(gate, str) and gate.strip().lower().startswith("skip"):
        return "skip"
    if "gate_passed" in record:
        return "pass" if record["gate_passed"] else "FAIL"
    if record.get("benchmark") == "coverage":
        return ("pass" if record.get("percent", 0.0)
                >= record.get("threshold", 0.0) else "FAIL")
    return "pass" if gate else "--"


def format_report(records: list[dict]) -> str:
    """The trajectory table: name, measured, gate, status, source file."""
    if not records:
        return ("no benchmark records found — run the gated benchmarks "
                "(e.g. pytest benchmarks/ -m 'not slow') first")
    header = (f"{'benchmark':26s} {'measured':>10s} "
              f"{'gate':34s} {'status':>6s}  source")
    lines = [header, "-" * len(header)]
    for record in records:
        name = str(record.get("benchmark") or
                   record["_file"].rsplit(".", 1)[0])
        # Scenario capacity records all share one benchmark id; the
        # scenario name is what distinguishes the rows.
        if record.get("scenario"):
            name = f"scenario:{record['scenario']}"
        measured = _measured(record)
        if measured is None:
            shown = "--"
        elif record.get("benchmark") == "coverage":
            shown = f"{measured:.1f}%"
        else:
            shown = f"{measured:.2f}x" if measured < 1000 else f"{measured:.0f}"
        gate = str(record.get("gate") or "--")
        if len(gate) > 34:
            gate = gate[:31] + "..."
        lines.append(f"{name:26s} {shown:>10s} {gate:34s} "
                     f"{_status(record):>6s}  {record['_file']}")
    counts = {"pass": 0, "skip": 0, "FAIL": 0, "--": 0}
    for record in records:
        counts[_status(record)] += 1
    lines.append(f"{len(records)} records: {counts['pass']} pass, "
                 f"{counts['skip']} skipped, {counts['FAIL']} failed, "
                 f"{counts['--']} ungated")
    return "\n".join(lines)


def bench_report_main(args) -> int:
    """Entry point behind ``repro bench report``."""
    records = load_records(args.results_dir)
    print(format_report(records))
    return 1 if any(_status(r) == "FAIL" for r in records) else 0
