"""Console surfaces as pure functions: render_top and bench report."""

import argparse
import json

import pytest

import repro.obs.console as console
from repro.obs.console import (
    _measured,
    _status,
    bench_report_main,
    format_report,
    load_records,
    render_top,
    top_main,
)
from repro.obs.metrics import MetricsRegistry

pytestmark = pytest.mark.obs


def make_sample(t=100.0, requests=40, with_latency=True):
    registry = MetricsRegistry()
    if with_latency:
        hist = registry.histogram("repro_request_seconds",
                                  boundaries=(0.001, 0.01, 0.1))
        for _ in range(10):
            hist.observe(0.005)
    stats = {
        "model": "MF", "dataset": "amazon-auto",
        "n_users": 700, "n_items": 120,
        "fast_path": True, "ann": False, "online_updates": True,
        "requests": requests, "users_scored": requests * 2,
        "ann_fallbacks": 0,
        "interactions_added": 8, "updates_folded_in": 1,
        "cache": {"size": 3, "capacity": 64, "hit_rate": 0.5,
                  "evictions": 1, "invalidations": 2},
    }
    return {"t": t, "stats": stats, "metrics": registry.snapshot()}


class TestRenderTop:
    def test_single_sample_screen(self):
        text = render_top(make_sample(), url="http://x:1")
        assert "MF on amazon-auto @ http://x:1" in text
        assert "700 users" in text
        assert "3/64 entries   hit_rate 50.0%" in text
        assert "p50 " in text and "10 samples" in text

    def test_rates_from_successive_samples(self):
        prev = make_sample(t=100.0, requests=40)
        now = make_sample(t=102.0, requests=50)
        line = [ln for ln in render_top(now, prev).splitlines()
                if ln.startswith("requests")][0]
        assert "5.0/s" in line

    def test_no_latency_samples(self):
        text = render_top(make_sample(with_latency=False))
        assert "(no request samples yet)" in text


class TestLoadRecords:
    def test_reads_json_files_with_provenance(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps(
            [{"benchmark": "x", "speedup": 2.0}]))
        (tmp_path / "b.json").write_text(json.dumps(
            {"benchmark": "y", "gate_passed": True}))
        (tmp_path / "junk.json").write_text("{not json")
        (tmp_path / "notes.txt").write_text("ignored")
        records = load_records(str(tmp_path))
        assert [(r["benchmark"], r["_file"]) for r in records] == \
            [("x", "a.json"), ("y", "b.json")]

    def test_missing_dir_is_empty(self, tmp_path):
        assert load_records(str(tmp_path / "absent")) == []


class TestStatusAndMeasured:
    def test_measured_precedence_and_fallback(self):
        assert _measured({"speedup": 2.5}) == 2.5
        assert _measured({"cold_vs_warm_speedup": 3.0}) == 3.0
        assert _measured({"benchmark": "x"}) is None

    def test_status_variants(self):
        assert _status({"gate": "skipped: no runner"}) == "skip"
        assert _status({"gate_passed": True}) == "pass"
        assert _status({"gate_passed": False}) == "FAIL"
        assert _status({"benchmark": "coverage",
                        "percent": 90.0, "threshold": 85.0}) == "pass"
        assert _status({"benchmark": "coverage",
                        "percent": 80.0, "threshold": 85.0}) == "FAIL"
        assert _status({"benchmark": "x"}) == "--"


class TestEntryPoints:
    def top_args(self, **overrides):
        base = {"url": "http://127.0.0.1:1", "interval": 0.1,
                "iterations": 0, "once": False}
        return argparse.Namespace(**{**base, **overrides})

    def test_top_main_renders_n_iterations(self, monkeypatch, capsys):
        samples = iter([make_sample(t=1.0, requests=10),
                        make_sample(t=2.0, requests=30)])
        monkeypatch.setattr(console, "sample_server",
                            lambda url, timeout=10.0: next(samples))
        assert top_main(self.top_args(iterations=2)) == 0
        out = capsys.readouterr().out
        assert out.count("repro top — MF on amazon-auto") == 2
        assert "20.0/s" in out  # rate between the two samples

    def test_top_main_once(self, monkeypatch, capsys):
        monkeypatch.setattr(console, "sample_server",
                            lambda url, timeout=10.0: make_sample())
        assert top_main(self.top_args(once=True)) == 0
        assert capsys.readouterr().out.count("repro top") == 1

    def test_top_main_unreachable_server(self, capsys):
        # Nothing listens on the reserved port; top must report, not
        # traceback.
        assert top_main(self.top_args(once=True)) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_bench_report_main_exit_codes(self, tmp_path, capsys):
        args = argparse.Namespace(results_dir=str(tmp_path))
        assert bench_report_main(args) == 0
        assert "no benchmark records" in capsys.readouterr().out
        (tmp_path / "r.json").write_text(json.dumps(
            [{"benchmark": "ok", "speedup": 2.0, "gate": ">=1x",
              "gate_passed": True},
             {"benchmark": "bad", "speedup": 0.5, "gate": ">=1x",
              "gate_passed": False}]))
        assert bench_report_main(args) == 1
        out = capsys.readouterr().out
        assert "2 records: 1 pass" in out


class TestFormatReport:
    def test_empty(self):
        assert "no benchmark records found" in format_report([])

    def test_table_rows_and_footer(self):
        records = [
            {"benchmark": "serving", "speedup": 1.42,
             "gate": ">= 0.97x", "gate_passed": True, "_file": "s.json"},
            {"benchmark": "coverage", "percent": 91.3, "threshold": 85.0,
             "_file": "c.json"},
            {"benchmark": "broken", "speedup": 0.5, "gate": ">= 2x",
             "gate_passed": False, "_file": "b.json"},
        ]
        text = format_report(records)
        assert "1.42x" in text and "91.3%" in text
        assert "FAIL" in text
        assert "3 records: 2 pass, 0 skipped, 1 failed, 0 ungated" in text
