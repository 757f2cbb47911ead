"""The repository benchmark: GML-FM serving over HTTP plus a Table-3 sweep.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-hot-read --seed 1 \\
        --seconds 20 --trace 0

Each run builds a GML-FMmd serving bundle from ``--seed``, starts
``repro serve`` on it as a separate process and drives it over
keep-alive HTTP connections from this process in rounds of closed-loop
and open-loop phases; between rounds a separate process runs one row of
Table 3.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Earlier lines are a human-readable report; the full
result, with an environment fingerprint, is also written under
``.perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import measure
from loadgen import (READ, UPDATE, Client, Ops, make_ops, poisson_due,
                     run_closed, run_open)
from spans import children_of, from_dicts, self_times

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent

#: Workload name → traffic mix, closed-loop requests per second of
#: nominal capacity (sizes the closed phases), heavy open-loop rate and
#: Table-3 row.
WORKLOADS = {
    "serve-hot-read": {
        "users": "zipf:1.3", "update_every": 0, "closed_rate": 1000.0,
        "heavy_rate": 250.0,
        "serve_flags": [], "sweep_models": ["GML-FMmd"],
    },
    "serve-cold-write": {
        "users": "uniform", "update_every": 10, "closed_rate": 400.0,
        "heavy_rate": 150.0,
        "serve_flags": ["--online"], "sweep_models": ["GML-FMdnn"],
    },
}
LIGHT_RATE = 25.0
CONNECTIONS = min(2, len(os.sched_getaffinity(0)))
SETUP_SPAWNS = 3
WARMUP_CLOSED_S = 1.0
WARMUP_OPEN_S = 1.5
#: The timed phases repeat in rounds interleaved over the run, and each
#: metric pools its phase's rounds, so every figure samples the shared
#: host over the whole run rather than over one stretch of it.
ROUNDS = 10
#: Share of ``--seconds`` per phase kind (untraced, then traced runs).
SHARES = {"closed": 0.15, "light": 0.7, "heavy": 0.15}
TRACED_SHARES = {"closed": 0.3, "heavy": 0.4}
#: Sweeps per run, spread over the rounds.
SWEEPS = 4
#: Reads the traced heavy phase holds: ten beyond its p99.
P99_SAMPLES = 1000

END_TO_END = {
    "setup_s": "s",
    "light.recommend_p50_ms": "ms",
    "sweep_s": "s",
}

PER_LAYER = {
    "frontend.self_ms": "ms", "frontend.users_per_call": "count",
    "unattributed_ms": "ms",
    "service.self_ms": "ms", "service.pre_lookup_ms": "ms",
    "cache.get_ms": "ms", "cache.put_ms": "ms", "cache.hit_share": "ratio",
    "cache.invalidated_per_update": "count",
    "scorer.score_ms": "ms", "scorer.users_per_call": "count",
    "scorer.calls": "count",
    "index.mask_seen_ms": "ms", "index.topk_ms": "ms",
    "online.update_ms": "ms", "online.events": "count",
    "online.novel_share": "ratio",
    "runner.cell_ms": "ms", "runner.cells": "count",
    "trainer.epoch_ms": "ms", "trainer.epochs": "count",
    "trainer.instances_per_s": "1/s",
    "evaluation.instances_ms": "ms", "evaluation.validate_ms": "ms",
    "autograd.forward_ms": "ms", "autograd.backward_ms": "ms",
    "autograd.matmul_share": "ratio", "autograd.mul_share": "ratio",
    "autograd.embedding_share": "ratio", "autograd.sum_share": "ratio",
    "optim.step_ms": "ms", "data.dataset_ms": "ms",
    "trace.serve_overhead_ms": "ms", "trace.sweep_overhead_s": "s",
}


def phase_plan(workload: str, seconds: float, traced: bool) -> list[tuple]:
    """``(name, kind, requests, rate)`` per phase, in order; ``rate`` is
    ``None`` for a closed loop."""
    spec = WORKLOADS[workload]
    every = spec["update_every"]
    read_share = 1.0 - (1.0 / every if every else 0.0)
    heavy = spec["heavy_rate"]
    rate = {"closed": spec["closed_rate"], "light": LIGHT_RATE, "heavy": heavy}

    def arrivals(kind, span_s, min_reads=0):
        return max(math.ceil(rate[kind] * span_s),
                   math.ceil(min_reads / read_share) + 10)

    plan = [("warmup-closed", "closed", arrivals("closed", WARMUP_CLOSED_S), None),
            ("warmup-open", "open", math.ceil(heavy * WARMUP_OPEN_S), heavy)]
    if traced:
        return plan + [
            ("closed", "closed",
             arrivals("closed", TRACED_SHARES["closed"] * seconds), None),
            ("heavy", "open", arrivals("heavy", TRACED_SHARES["heavy"] * seconds,
                                       P99_SAMPLES), heavy)]
    per_round = {kind: share * seconds / ROUNDS for kind, share in SHARES.items()}
    for r in range(ROUNDS):
        plan += [(f"closed.{r}", "closed", arrivals("closed", per_round["closed"]),
                  None),
                 (f"light.{r}", "open",
                  arrivals("light", per_round["light"]), LIGHT_RATE),
                 (f"heavy.{r}", "open",
                  arrivals("heavy", per_round["heavy"]), heavy)]
    return plan


def schedule(workload: str, seed: int, seconds: float, traced: bool,
             n_users: int, n_items: int) -> dict[str, Ops]:
    """Every phase's requests, a pure function of the arguments."""
    spec = WORKLOADS[workload]
    plan = phase_plan(workload, seconds, traced)
    entropy = [seed, sorted(WORKLOADS).index(workload), int(traced)]
    popularity_stream, *streams = np.random.SeedSequence(entropy).spawn(
        len(plan) + 1)
    popularity = np.random.default_rng(popularity_stream).permutation(n_users)
    ops = {}
    for (name, kind, size, rate), stream in zip(plan, streams):
        rng = np.random.default_rng(stream)
        phase_ops = make_ops(rng, size, popularity, n_items, spec["users"],
                             spec["update_every"])
        if kind == "open":
            phase_ops.due = poisson_due(rng, size, rate)
        ops[name] = phase_ops
    return ops


def run_phases(port: int, ops: dict[str, Ops], plan: list[tuple],
               tag: bool, between=None):
    """All phases in order on one set of connections.

    ``between(name)`` runs after each phase (the sweeps); ``tag`` gives
    every timed request a ``rid``.  Returns the phases and ``/stats``
    before and after the timed phases.
    """
    clients = [Client(port) for _ in range(CONNECTIONS)]
    phases, stats_before = [], None
    try:
        for index, (name, kind, size, rate) in enumerate(plan):
            timed = not name.startswith("warmup")
            if timed and stats_before is None:
                stats_before = clients[0].get_json("/stats")
            rid_base = index * 10_000_000 if tag and timed else None
            # The generator's own garbage collection would pause the
            # clients inside a phase; it runs between phases instead.
            gc.collect()
            gc.disable()
            try:
                if kind == "closed":
                    phase = run_closed(clients, ops[name], name, rid_base)
                else:
                    phase = run_open(clients, ops[name], name, rate, rid_base)
            finally:
                gc.enable()
            phases.append(phase)
            if between is not None:
                between(name)
        stats_after = clients[0].get_json("/stats")
    finally:
        for client in clients:
            client.close()
    return phases, stats_before, stats_after


class SweepProcess:
    """``perfbench/sweep.py`` kept alive; one sweep per :meth:`run`."""

    def __init__(self, models: list[str], mode: str,
                 spans_path: Path | None = None):
        import serving

        argv = [sys.executable, str(HERE / "sweep.py"), "--models", *models,
                "--mode", mode]
        if spans_path is not None:
            argv += ["--spans", str(spans_path)]
        self.log = WORK / f"sweep-{mode}.log"
        start = time.perf_counter()
        with open(self.log, "wb") as err:
            self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, stderr=err,
                                         text=True, env=serving.child_env())
        self._read()
        #: Spawn until ``repro.experiments`` is imported.
        self.setup_s = time.perf_counter() - start

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("sweep process failed:\n"
                               + self.log.read_text(errors="replace")[-3000:])
        return json.loads(line)

    def run(self) -> dict:
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ----------------------------------------------------------------------
def latencies_ms(phase, kind: int) -> list[float]:
    """Open loop: due-to-done; a failed request counts as infinitely late."""
    return [1e3 * (r.done - r.due) if r.ok else math.inf
            for r in phase.by_kind(kind)]


def pooled(phases, kind_name: str) -> dict:
    """Counts, lateness and latency percentiles of one phase kind,
    pooled over its rounds."""
    group = [p for p in phases if p.name.split(".")[0] == kind_name]
    results = [r for p in group for r in p.results]
    summary = {"rounds": len(group), "sent": len(results),
               "ok": sum(r.ok for r in results),
               "seconds": sum(p.seconds for p in group), "rate": group[0].rate}
    summary["failed"] = summary["sent"] - summary["ok"]
    open_loop = group[0].rate is not None
    if open_loop:
        late = [1e3 * (r.sent - r.due) for r in results]
        summary["lateness_ms"] = {"p50": measure.percentile(late, 50),
                                  "p99": measure.percentile(late, 99),
                                  "max": max(late)}
    for kind, label in ((READ, "recommend"), (UPDATE, "update")):
        samples = [x for p in group for x in
                   (latencies_ms(p, kind) if open_loop else
                    [1e3 * r.service_s for r in p.by_kind(kind)])]
        if samples:
            tail = measure.highest_tail(len(samples))
            summary[label] = {"n": len(samples),
                              "p50_ms": measure.percentile(samples, 50),
                              f"p{tail:g}_ms": measure.percentile(samples, tail)}
    return summary


def per_round(phases, kind_name: str, statistic) -> list[float]:
    return [statistic(p) for p in phases if p.name.split(".")[0] == kind_name]


def hit_share(before: dict, after: dict) -> float:
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def check_serving(workload, oracle, stats, phases) -> list[tuple]:
    import serving

    # Every reply meets the read/write invariants; with no writes it must
    # also match the in-process oracle byte for byte.
    errors, novel = serving.check_invariants(oracle, phases)
    if not WORKLOADS[workload]["update_every"]:
        errors += serving.check_read_only(oracle, phases)
    return (errors + serving.check_reference(oracle, phases)
            + serving.check_counters(stats, phases, novel))


def check_sweep(models: list[str], reports: list[dict]) -> list[str]:
    """RMSEs must be finite and identical across runs of the sweep's seed.

    The first table seen in this checkout is kept under ``.perfbench``
    and every later run of the same row is compared with it.
    """
    errors = [f"non-finite RMSE in {r['rmse']}" for r in reports if not r["finite"]]
    reference_file = WORK / f"rmse-{'-'.join(models)}.json"
    if reference_file.exists():
        reference = json.loads(reference_file.read_text())
    else:
        reference = reports[0]["rmse"]
        reference_file.write_text(json.dumps(reference))
    errors += [f"RMSE table {r['rmse']} differs from the earlier {reference}"
               for r in reports if r["rmse"] != reference]
    return errors


# ----------------------------------------------------------------------
def serving_layers(span_rows, phases, before, after) -> dict:
    """Per-layer serving figures of the traced server (times in ms)."""
    spans = from_dicts(span_rows)
    own = self_times(spans)
    kids = children_of(spans)
    named = defaultdict(list)
    for span in spans:
        if span.rid is not None:
            named[span.name].append(span)

    def mean_ms(name):
        return 1e3 * measure.mean(s.duration for s in named[name])

    respond = {s.rid: s for s in named["frontend.respond"]}
    service_of = {s.parent: s for s in named["service.recommend"]}
    frontend_self, unattributed = [], []
    for phase in phases:
        for r in phase.by_kind(READ):
            span = respond.get(r.index + phase.rid_base)
            if span is None or not r.ok:
                continue
            unattributed.append(r.service_s - span.duration)
            service = service_of.get(span.id)
            frontend_self.append(r.service_s - (service.duration if service else 0.0))
    pre_lookup = []
    for span in named["service.recommend"]:
        gets = [c.start for c in kids.get(span.id, ()) if c.name == "cache.get"]
        if gets:
            pre_lookup.append(min(gets) - span.start)
    updates = [s.attrs for s in named["service.update"] if s.attrs]
    events = sum(u["events"] for u in updates)
    scored = named["scorer.score"]
    return {
        "frontend.self_ms": 1e3 * measure.mean(frontend_self),
        "frontend.users_per_call": measure.mean(
            (s.attrs or {}).get("users", 0) for s in named["service.recommend"]),
        "unattributed_ms": 1e3 * measure.mean(unattributed),
        "service.self_ms": 1e3 * measure.mean(own[s.id] for s in named["service.recommend"]),
        "service.pre_lookup_ms": 1e3 * measure.mean(pre_lookup),
        "cache.get_ms": mean_ms("cache.get"),
        "cache.put_ms": mean_ms("cache.put"),
        "cache.hit_share": hit_share(before, after),
        "cache.invalidated_per_update": measure.mean(u["invalidated"] for u in updates),
        "scorer.score_ms": mean_ms("scorer.score"),
        "scorer.users_per_call": measure.mean((s.attrs or {}).get("users", 0) for s in scored),
        "scorer.calls": len(scored),
        "index.mask_seen_ms": mean_ms("index.mask_seen"),
        "index.topk_ms": mean_ms("index.topk"),
        "online.update_ms": mean_ms("online.update"),
        "online.events": events,
        "online.novel_share": (sum(u["novel"] for u in updates) / events
                               if events else 0.0),
    }


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # A SIGTERM unwinds through the ``finally`` blocks that stop the
    # server and sweep processes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    steal_before = measure.cpu_times()
    traced = bool(args.trace)
    runner = traced_run if traced else plain_run
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "connections": CONNECTIONS}
    metrics, units, errors, attempted, failed = runner(args, report)

    report["errors"] = errors[:50]
    report["fingerprint"] = measure.fingerprint(ROOT, steal_before,
                                                measure.cpu_times(),
                                                report.get("frontend"))
    report["metrics"] = metrics
    out = WORK / "results" / (f"{args.workload}-seed{args.seed}-"
                              f"trace{args.trace}-{int(time.time())}.json")
    out.write_text(json.dumps(report, indent=1, default=str))
    print_report(report, units)
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def _prepare(args):
    import serving

    bundle = serving.build_bundle(WORK / "bundle", args.seed)
    oracle = serving.Oracle(bundle)
    plan = phase_plan(args.workload, args.seconds, bool(args.trace))
    ops = schedule(args.workload, args.seed, args.seconds, bool(args.trace),
                   oracle.n_users, oracle.n_items)
    if not WORKLOADS[args.workload]["update_every"]:
        oracle.precompute(np.concatenate([o.user for o in ops.values()]))
    return bundle, oracle, plan, ops


def _serve(args, report, server, oracle, plan, ops, variant, between=None):
    """Drive one server through the plan, check it and stop it."""
    report["frontend"] = server.frontend
    try:
        phases, before, after = run_phases(server.port, ops, plan,
                                           tag=bool(args.trace), between=between)
    finally:
        server.stop()
    # ``after`` is read once every request has been answered.
    findings = check_serving(args.workload, oracle, after, phases)
    errors = [f"[{variant}] {op}: {message}" if op else f"[{variant}] {message}"
              for op, message in findings]
    # A wrong answer counts as a failed operation, like a failed request.
    failed = {op for op, _ in findings if op} | {
        f"{p.name}#{r.index}" for p in phases for r in p.results if not r.ok}
    kinds = dict.fromkeys(p.name.split(".")[0] for p in phases)
    report[f"{variant}_phases"] = {k: pooled(phases, k) for k in kinds}
    report[f"{variant}_hit_share"] = hit_share(before, after)
    attempted = sum(len(p.results) for p in phases)
    return phases, before, after, errors, attempted, len(failed)


def plain_run(args, report):
    """End-to-end metrics: set-up, then rounds of closed/light/heavy
    phases with the sweeps spread between them."""
    import serving

    spec = WORKLOADS[args.workload]
    bundle, oracle, plan, ops = _prepare(args)
    setups = []
    for i in range(SETUP_SPAWNS):
        server = serving.start_server(bundle, WORK, f"server-{i}",
                                      extra=spec["serve_flags"])
        setups.append(server.setup_s)
        if i < SETUP_SPAWNS - 1:
            server.stop()
    sweeps = []
    sweeper = None
    try:
        sweeper = SweepProcess(spec["sweep_models"], "plain")
        sweep_after = {f"heavy.{int((i + 0.5) * ROUNDS / SWEEPS)}"
                       for i in range(SWEEPS)}

        def between(name):
            if name in sweep_after:
                sweeps.append(sweeper.run())

        phases, _, _, errors, attempted, failed = _serve(
            args, report, server, oracle, plan, ops, "plain", between)
        report["sweep_setup_s"] = sweeper.setup_s
    finally:
        server.stop()
        if sweeper is not None:
            sweeper.close()
    sweep_errors = check_sweep(spec["sweep_models"], sweeps)
    errors += sweep_errors
    cells = sum(len(row) for row in sweeps[0]["rmse"].values()) * len(sweeps)
    attempted += cells
    failed += cells if sweep_errors else 0
    report["sweep"] = sweeps

    closed = [p for p in phases if p.name.startswith("closed.")]
    samples = {
        "setup_s": setups,
        "throughput_rps": per_round(
            phases, "closed",
            lambda p: sum(r.ok for r in p.results) / p.seconds),
        "sweep_s": [s["sweep_s"] for s in sweeps],
    }
    report["samples"] = samples
    # Throughput and latency pool every round of their phase, so each
    # figure samples the host over the whole run.
    summary = {
        "setup_s": statistics.median(setups),
        "throughput_rps": sum(r.ok for p in closed for r in p.results)
                          / sum(p.seconds for p in closed),
        "sweep_s": statistics.median(samples["sweep_s"]),
    }
    for kind in ("light", "heavy"):
        reads = [x for p in phases if p.name.startswith(kind + ".")
                 for x in latencies_ms(p, READ)]
        for p in (50, measure.highest_tail(len(reads))):
            summary[f"{kind}.recommend_p{p:g}_ms"] = measure.percentile(reads, p)
    report["summary"] = summary
    return summary, END_TO_END, errors, attempted, failed


def traced_run(args, report):
    """Per-layer metrics: the same requests against plain and traced
    servers, then plain, traced and profiled sweeps."""
    import serving

    spec = WORKLOADS[args.workload]
    bundle, oracle, plan, ops = _prepare(args)
    spans_path = WORK / "serve-spans.json"
    prefixes = {"plain": None,
                "traced": [sys.executable, str(HERE / "traced_server.py"),
                           str(spans_path)]}
    runs, errors, attempted, failed = {}, [], 0, 0
    for variant, prefix in prefixes.items():
        server = serving.start_server(bundle, WORK, f"server-{variant}",
                                      argv_prefix=prefix,
                                      extra=spec["serve_flags"])
        phases, before, after, variant_errors, n, bad = _serve(
            args, report, server, oracle, plan, ops, variant)
        runs[variant] = (phases, before, after)
        errors += variant_errors
        attempted, failed = attempted + n, failed + bad

    sweeps = {}
    for mode in ("plain", "traced", "profiled"):
        sweeper = SweepProcess(spec["sweep_models"], mode,
                               WORK / "sweep-spans.json" if mode == "traced" else None)
        try:
            sweeps[mode] = sweeper.run()
        finally:
            sweeper.close()
    sweep_errors = check_sweep(spec["sweep_models"], list(sweeps.values()))
    errors += sweep_errors
    cells = sum(len(row) for row in sweeps["plain"]["rmse"].values()) * len(sweeps)
    attempted += cells
    failed += cells if sweep_errors else 0
    report["sweep"] = [{k: v for k, v in s.items() if k != "layers"}
                       for s in sweeps.values()]

    phases, before, after = runs["traced"]
    metrics = serving_layers(json.loads(spans_path.read_text()),
                             [p for p in phases if p.rid_base is not None],
                             before, after)
    metrics.update(sweeps["traced"]["layers"])
    metrics.update(sweeps["profiled"]["layers"])

    def heavy_service_ms(variant):
        heavy = next(p for p in runs[variant][0] if p.name == "heavy")
        return 1e3 * measure.mean(r.service_s for r in heavy.by_kind(READ))

    metrics["trace.serve_overhead_ms"] = (heavy_service_ms("traced")
                                          - heavy_service_ms("plain"))
    metrics["trace.sweep_overhead_s"] = (sweeps["traced"]["sweep_s"]
                                         - sweeps["plain"]["sweep_s"])
    return metrics, PER_LAYER, errors, attempted, failed


def print_report(report: dict, units: dict) -> None:
    print(f"workload {report['workload']} seed {report['seed']} "
          f"trace {report['trace']} frontend {report.get('frontend')} "
          f"connections {report['connections']}")
    for variant in ("plain", "traced"):
        for name, s in report.get(f"{variant}_phases", {}).items():
            line = (f"  [{variant}] {name:13s} x{s['rounds']} sent {s['sent']:5d} "
                    f"ok {s['ok']:5d} failed {s['failed']:2d} in {s['seconds']:5.2f}s")
            if "lateness_ms" in s:
                late = s["lateness_ms"]
                line += (f" at {s['rate']:.0f}/s late p50 {late['p50']:.2f} "
                         f"p99 {late['p99']:.2f} max {late['max']:.1f} ms")
            for label in ("recommend", "update"):
                if label in s:
                    figures = " ".join(f"{k} {v:.2f}" for k, v in s[label].items()
                                       if k != "n")
                    line += f" | {label} n {s[label]['n']} {figures}"
            print(line)
        if f"{variant}_hit_share" in report:
            print(f"  [{variant}] cache hit share {report[f'{variant}_hit_share']:.3f}")
    for sweep in report["sweep"]:
        print(f"  sweep wall {sweep['sweep_s']:.3f}s rmse {sweep['rmse']}")
    if "sweep_setup_s" in report:
        print(f"  sweep process spawn to ready {report['sweep_setup_s']:.3f}s")
    for name, values in report.get("samples", {}).items():
        print(f"  {name} samples " + " ".join(f"{x:.3f}" for x in values))
    fp = report["fingerprint"]
    print(f"  env cores {fp['cores_available']}/{fp['cores']} steal "
          f"{fp['cpu_steal_share']:.4f} python {fp['python']} numpy {fp['numpy']} "
          f"sha {fp['git_sha'][:12]}")
    for error in report["errors"][:10]:
        print(f"  ERROR {error}")
    for name, value in report.get("summary", {}).items():
        if name not in units:
            print(f"  {name:32s} {value:14.4f} (not gated)")
    for name, unit in units.items():
        print(f"  {name:32s} {report['metrics'][name]:14.4f} {unit}")


if __name__ == "__main__":
    sys.exit(main())
