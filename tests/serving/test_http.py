"""End-to-end HTTP smoke tests against a live ``repro serve`` process."""

import json
import os
import re
import select
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

pytestmark = pytest.mark.serving

#: The startup banner as out-of-process tooling parses it: the port
#: from the URL, then the frontend named after it.
BANNER = re.compile(
    r"serving .* on http://127\.0\.0\.1:(\d+) .*frontend=(\w+)")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _env():
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


@pytest.fixture(scope="module")
def live_server():
    """A real ``python -m repro serve`` subprocess on an ephemeral port."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--dataset", "amazon-auto",
         "--model", "BPR-MF", "--scale", "quick", "--port", "0", "--k", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=_env(), cwd=REPO_ROOT,
    )
    try:
        deadline = time.monotonic() + 60
        banner = ""
        while time.monotonic() < deadline:
            # select keeps the deadline effective: a wedged server that
            # never prints must fail the fixture, not hang the run.
            ready, _, _ = select.select([proc.stdout], [], [],
                                        max(0.0, deadline - time.monotonic()))
            if not ready:
                break
            banner = proc.stdout.readline()
            if "http://" in banner or proc.poll() is not None:
                break
        match = BANNER.search(banner)
        if not match:
            raise RuntimeError(f"server never announced a port: {banner!r}")
        assert match.group(2) == "threaded", banner
        yield f"http://127.0.0.1:{match.group(1)}"
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class TestLiveEndpoints:
    def test_healthz(self, live_server):
        status, payload = _get(live_server + "/healthz")
        assert status == 200 and payload == {"status": "ok"}

    def test_recommend(self, live_server):
        status, payload = _get(live_server + "/recommend?user=0&k=5")
        assert status == 200
        assert payload["user"] == 0
        assert len(payload["items"]) == 5
        assert len(set(payload["items"])) == 5
        scores = payload["scores"]
        assert scores == sorted(scores, reverse=True)

    def test_stats_reflects_traffic(self, live_server):
        _get(live_server + "/recommend?user=1&k=5")
        _get(live_server + "/recommend?user=1&k=5")
        status, stats = _get(live_server + "/stats")
        assert status == 200
        assert stats["requests"] >= 2
        assert stats["cache"]["hits"] >= 1
        assert stats["model"] == "BPR-MF"

    def test_exclude_seen_flag_is_case_insensitive(self, live_server):
        _, lower = _get(live_server + "/recommend?user=2&k=5&exclude_seen=false")
        _, upper = _get(live_server + "/recommend?user=2&k=5&exclude_seen=False")
        assert upper["items"] == lower["items"]

    def test_update_masks_the_reported_item(self, live_server):
        _, before = _get(live_server + "/recommend?user=5&k=5")
        target = before["items"][0]
        body = json.dumps({"user": 5, "item": target}).encode()
        request = urllib.request.Request(
            live_server + "/update", data=body, method="POST",
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=15) as resp:
            report = json.loads(resp.read())
        assert report["novel"] == 1
        _, after = _get(live_server + "/recommend?user=5&k=5")
        assert target not in after["items"]

    def test_bad_requests(self, live_server):
        for path, expected in [
            ("/recommend", 400),                   # missing user
            ("/recommend?user=abc", 400),          # non-integer
            ("/recommend?user=999999&k=5", 400),   # out of range
            ("/recommend?user=0&k=0", 400),        # bad k
            ("/nope", 404),
        ]:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(live_server + path)
            assert excinfo.value.code == expected
            body = json.loads(excinfo.value.read())
            assert "error" in body


class TestServeFlags:
    def test_ann_flag_builds_an_ann_service(self):
        import argparse

        from repro.serving.server import _build_service

        args = argparse.Namespace(
            artifact=None, dataset="amazon-auto", model="BPR-MF",
            scale="quick", seed=0, k=8, epochs=0, top_k=5, cache_size=16,
            ann=True, ann_clusters=None, ann_probes=None)
        service = _build_service(args)
        assert service.stats()["ann"] is True
        assert len(set(service.recommend(5, k=5).items.tolist())) == 5


class TestSelfcheck:
    def test_cli_selfcheck_exits_zero(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--selfcheck"],
            capture_output=True, text=True, timeout=120,
            env=_env(), cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "selfcheck ok" in result.stdout
