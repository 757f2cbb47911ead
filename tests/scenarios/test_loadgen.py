"""The generalized load generator: schedule plumbing + window stats.

The CRC pin below freezes ``zipf_users``'s exact bytes so no edit can
silently change every load test's request mix.
``LoadResult.window_stats`` is checked against a hand-computed oracle
on synthetic latencies/errors.
"""

import zlib

import numpy as np
import pytest

from repro.scenarios.loadgen import LoadResult, resolve_schedule, zipf_users
from repro.scenarios.schedules import Schedule

pytestmark = pytest.mark.scenario

#: CRC-32 of ``zipf_users(1000, 5000, seed=42).tobytes()`` at the time
#: the helper graduated out of the test tree.  A mismatch means the
#: canonical load schedule changed bytes — every load benchmark would
#: silently measure a different mix.
ZIPF_1000x5000_SEED42_CRC32 = 0xE87BE7DF


class TestZipfRegression:
    def test_schedule_bytes_are_pinned(self):
        users = zipf_users(1000, 5000, seed=42)
        assert users.dtype == np.int64
        assert zlib.crc32(users.tobytes()) == ZIPF_1000x5000_SEED42_CRC32
        assert users[:8].tolist() == [295, 12, 12, 872, 279, 866, 296, 211]


class TestResolveSchedule:
    def test_accepts_arrays_lists_and_schedule_objects(self):
        np.testing.assert_array_equal(resolve_schedule([3, 1, 2]),
                                      np.array([3, 1, 2]))
        users = np.array([5, 6], dtype=np.int64)
        schedule = Schedule(name="s", users=users,
                            boundaries=np.array([0, 2]))
        assert resolve_schedule(schedule) is not None
        np.testing.assert_array_equal(resolve_schedule(schedule), users)

    def test_rejects_empty_and_multidim(self):
        with pytest.raises(ValueError):
            resolve_schedule(np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError):
            resolve_schedule(np.zeros((2, 2), dtype=np.int64))


def _result():
    """8 requests, two known errors, latencies = position milliseconds."""
    latencies = np.arange(8) / 1000.0
    responses = [{"items": [1]}] * 8
    errors = [(1, 10, "boom"), (6, 11, "boom")]
    return LoadResult(latencies=latencies, responses=responses,
                      errors=errors, wall_seconds=2.0)


class TestLoadResult:
    def test_summary_and_rates(self):
        result = _result()
        assert result.n_requests == 8
        assert result.requests_per_sec == pytest.approx(4.0)
        summary = result.summary()
        assert summary["requests"] == 8
        assert summary["errors"] == 2
        assert summary["p50_ms"] == pytest.approx(3.5)
        assert summary["p50_ms"] <= summary["p99_ms"]

    def test_zero_wall_reports_zero_rate(self):
        result = LoadResult(latencies=np.zeros(3), responses=[None] * 3)
        assert result.requests_per_sec == 0.0

    def test_window_stats_oracle(self):
        result = _result()
        stats = result.window_stats(np.array([0, 4, 4, 8]))
        assert [w["requests"] for w in stats] == [4, 0, 4]
        assert [w["errors"] for w in stats] == [1, 0, 1]
        assert [w["start"] for w in stats] == [0, 4, 4]
        assert stats[0]["p50_ms"] == pytest.approx(1.5)
        assert stats[2]["p50_ms"] == pytest.approx(5.5)
        assert np.isnan(stats[1]["p50_ms"])
        assert np.isnan(stats[1]["p99_ms"])

    def test_window_stats_validation(self):
        result = _result()
        with pytest.raises(ValueError):
            result.window_stats(np.array([0]))
        with pytest.raises(ValueError):
            result.window_stats(np.array([4, 0]))
        with pytest.raises(ValueError):
            result.window_stats(np.array([0, 99]))
