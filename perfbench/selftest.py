"""Self-tests of the benchmark's own helpers.

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys
import unittest
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, "src")

import measure  # noqa: E402
import run  # noqa: E402
from loadgen import READ, UPDATE, Phase, Result  # noqa: E402
from spans import Recorder, Span, covered, from_dicts, self_times  # noqa: E402


class TailRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(measure.highest_tail(1000), 99.0)
        self.assertEqual(measure.highest_tail(999), 95.0)
        self.assertEqual(measure.highest_tail(10000), 99.9)
        self.assertEqual(measure.highest_tail(100), 90.0)
        self.assertEqual(measure.highest_tail(99), 75.0)
        with self.assertRaises(ValueError):
            measure.highest_tail(19)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(measure.percentile(values, 50), 50)
        self.assertEqual(measure.percentile(values, 99), 99)
        self.assertEqual(measure.percentile(values, 100), 100)
        self.assertEqual(measure.percentile([7.0], 99), 7.0)


class SelfTimeTest(unittest.TestCase):
    def test_union_of_children_clipped_to_parent(self):
        self.assertEqual(covered((0, 10), [(1, 3), (2, 5), (8, 12)]), 6)
        self.assertEqual(covered((0, 10), []), 0)
        self.assertEqual(covered((0, 10), [(11, 12)]), 0)

    def test_self_time_of_a_tree(self):
        spans = [Span(1, "root", 0.0, 10.0),
                 Span(2, "a", 1.0, 4.0, parent=1),
                 Span(3, "b", 5.0, 9.0, parent=1),
                 Span(4, "leaf", 6.0, 8.0, parent=3)]
        own = self_times(spans)
        self.assertEqual(own, {1: 3.0, 2: 3.0, 3: 2.0, 4: 2.0})
        self.assertAlmostEqual(sum(own.values()), spans[0].duration)

    def test_recorder_links_parents_and_request_ids(self):
        recorder = Recorder()

        class Layer:
            def outer(self, target):
                return self.inner(2)

            def inner(self, x):
                return x * 2

        recorder.wrap(Layer, "inner", "inner",
                      attrs=lambda args, kwargs, result: {"out": result})
        recorder.wrap(Layer, "outer", "outer",
                      rid=lambda args, kwargs: int(args[1]))
        self.assertEqual(Layer().outer("7"), 4)
        self.assertEqual(Layer().inner(1), 2)
        inner, outer, bare = from_dicts(json.loads(json.dumps(recorder.to_list())))
        self.assertEqual((inner.parent, inner.rid, inner.attrs),
                         (outer.id, 7, {"out": 4}))
        self.assertEqual((outer.parent, outer.rid), (None, 7))
        self.assertEqual((bare.parent, bare.rid), (None, None))


SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())


class ScheduleTest(unittest.TestCase):
    def _ops(self, workload, seed):
        return run.schedule(workload, seed, SPEC["run_seconds"], False,
                            6000, 4000)

    def test_same_seed_same_schedule(self):
        for workload in run.WORKLOADS:
            first, again = self._ops(workload, 3), self._ops(workload, 3)
            self.assertEqual(list(first), list(again))
            for name in first:
                for field in ("kind", "user", "item", "due"):
                    a, b = getattr(first[name], field), getattr(again[name], field)
                    self.assertTrue(a is None and b is None or (a == b).all())

    def test_hot_users_shared_by_every_phase(self):
        ops = self._ops("serve-hot-read", 3)
        top = []
        for kind in ("warmup", "closed", "light", "heavy"):
            users = np.concatenate([o.user for name, o in ops.items()
                                    if name.startswith(kind)])
            top.append(set(np.bincount(users, minlength=6000).argsort()[-3:]))
        self.assertTrue(all(t == top[0] for t in top))

    def test_other_seed_other_schedule(self):
        a, b = self._ops("serve-hot-read", 3), self._ops("serve-hot-read", 4)
        self.assertFalse((a["light.0"].user == b["light.0"].user).all())
        self.assertFalse((a["light.0"].due == b["light.0"].due).all())

    def _reads(self, ops, kind):
        return [int((o.kind == READ).sum()) for name, o in ops.items()
                if name.startswith(kind + ".")]

    def test_phase_shape(self):
        seconds = SPEC["run_seconds"]
        for workload, spec in run.WORKLOADS.items():
            ops = self._ops(workload, 1)
            for kind in ("closed", "light", "heavy"):
                self.assertEqual(len(self._reads(ops, kind)), run.ROUNDS)
            # Closed rounds are sized from the nominal capacity.
            self.assertEqual(len(ops["closed.0"]), math.ceil(
                spec["closed_rate"] * run.SHARES["closed"] * seconds / run.ROUNDS))
            # The pooled light reads support a p95: ten samples beyond it.
            self.assertTrue(measure.supports_percentile(
                sum(self._reads(ops, "light")), 95))
            heavy = ops["heavy.0"]
            self.assertEqual(int((heavy.kind == UPDATE).sum()),
                             len(heavy) // spec["update_every"]
                             if spec["update_every"] else 0)
            # Poisson arrivals at the nominal rate.
            rate = len(heavy) / heavy.due[-1]
            self.assertAlmostEqual(rate / spec["heavy_rate"], 1.0, delta=0.25)


class BenchmarkSpecTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        for key, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            self.assertEqual({m["name"]: m["unit"] for m in SPEC[key]}, table)
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(run.WORKLOADS))


class OracleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        import serving

        cls.serving = serving
        path = run.WORK / "selftest-bundle"
        run.WORK.mkdir(exist_ok=True)
        cls.oracle = serving.Oracle(
            serving.build_bundle(path, seed=0, dataset_name="amazon-auto",
                                 scale=0.3))

    def _result(self, index, user, body, kind=READ, item=0, sent=0.0, done=0.0):
        return Result(index, kind, user, item, sent, sent, done, 200, body)

    def test_altered_body_is_rejected(self):
        self.oracle.precompute([0, 1])
        good = self.oracle.expected[1]
        altered = json.loads(good)
        altered["scores"][0] += 1e-9
        phase = Phase("p", [self._result(0, 1, good),
                            self._result(1, 1, json.dumps(altered).encode()),
                            self._result(2, 0, good)])
        errors = self.serving.check_read_only(self.oracle, [phase])
        self.assertEqual([op for op, _ in errors], ["p#1", "p#2"])

    def test_reference_rejects_a_wrong_list(self):
        self.oracle.precompute([1, 2])
        n = self.oracle.n_items
        reference = self.oracle.service.model.predict(np.full(n, 2), np.arange(n))
        reference[list(self.oracle.seen(2))] = np.inf
        wrong = json.loads(self.oracle.expected[2])
        wrong["items"][-1] = int(np.argmin(reference))
        phase = Phase("p", [self._result(0, 1, self.oracle.expected[1]),
                            self._result(1, 2, json.dumps(wrong).encode())])
        errors = self.serving.check_reference(self.oracle, [phase])
        self.assertEqual([op for op, _ in errors], ["p#1"])

    def test_read_write_invariants(self):
        self.oracle.precompute([1])
        good = json.loads(self.oracle.expected[1])
        seen = sorted(self.oracle.seen(1))
        fresh = good["items"][0]

        def body(**changes):
            return json.dumps({**good, **changes}).encode()

        ack = json.dumps({"events": 1, "novel": 1, "folded_in": True,
                          "invalidated": 0}).encode()
        results = [
            self._result(0, 1, body()),
            self._result(1, 1, body(items=good["items"][:-1] + good["items"][:1])),
            self._result(2, 1, body(scores=good["scores"][::-1])),
            self._result(3, 1, body(items=good["items"][:-1] + seen[:1])),
            self._result(4, 1, ack, kind=UPDATE, item=fresh, sent=1.0, done=2.0),
            self._result(5, 1, body(), sent=1.5),   # sent before the ack
            self._result(6, 1, body(), sent=3.0),   # lists the acked item
        ]
        errors, novel = self.serving.check_invariants(self.oracle,
                                                      [Phase("p", results)])
        self.assertEqual(novel, 1)
        self.assertEqual([op for op, _ in errors], ["p#1", "p#2", "p#3", "p#6"])


if __name__ == "__main__":
    unittest.main()
