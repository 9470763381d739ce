"""Tests for run.py's own arithmetic and bookkeeping.

    python3 -m unittest discover -s hostbench -p 'test_*.py'
"""

import json
import os
import unittest

import run


def rep(digest="d1", attempted=10, failed=0, e2e=None, layer=None,
        spans=None, failures=()):
    return {"digest": digest, "attempted": attempted, "failed": failed,
            "failures": list(failures), "e2e": e2e or {},
            "layer": layer or {}, "spans": spans or {}}


class NamesTest(unittest.TestCase):
    def test_declared_names_are_valid_and_unique(self):
        run.check_names()

    def test_name_rule(self):
        for ok in ("ns_per_cell", "p2p-bulk", "sim.events_per_cell", "9a"):
            self.assertTrue(run.NAME_RE.match(ok), ok)
        for bad in ("", "_x", ".x", "a b", "a/b", "a" * 65, 'a"b'):
            self.assertFalse(run.NAME_RE.match(bad), bad)

    def test_benchmark_json_matches_run_py(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside the benchmark")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)


class AggregateTest(unittest.TestCase):
    def e2e(self, ns):
        return {"ns_per_cell": ns, "ns_per_cell_p90": 2 * ns, "setup_s": 0.5,
                "teardown_s": 0.01, "peak_rss_mb": 30.0}

    def test_end_to_end_metrics_are_lower_quartiles(self):
        reps = [rep(e2e=self.e2e(ns)) for ns in (100.0, 300.0, 200.0)]
        out = run.aggregate(reps, [], trace=0)
        self.assertTrue(out["correct"])
        # statistics.quantiles([100, 200, 300], n=4)[0] == 100 (exclusive).
        self.assertEqual(out["metrics"]["ns_per_cell"],
                         {"value": 100.0, "unit": "ns"})
        reps += [rep(e2e=self.e2e(ns)) for ns in (400.0, 500.0, 600.0, 700.0)]
        out = run.aggregate(reps, [], trace=0)
        self.assertEqual(out["metrics"]["ns_per_cell"]["value"], 200.0)
        self.assertEqual(set(out["metrics"]), {n for n, _ in run.END_TO_END})

    def test_operations_include_digest_checks(self):
        reps = [rep(e2e=self.e2e(1.0)) for _ in range(3)]
        out = run.aggregate(reps, [], trace=0)
        # Every repetition's operations, plus one digest check per
        # repetition after the first.
        self.assertEqual(out["attempted"], 32)

    def test_digest_mismatch_is_a_failure(self):
        reps = [rep(e2e=self.e2e(1.0)), rep(digest="d2", e2e=self.e2e(1.0))]
        out = run.aggregate(reps, [], trace=0)
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], 1)

    def test_repetition_failures_add_up(self):
        reps = [rep(failed=2, failures=["floor: x"], e2e=self.e2e(1.0)),
                rep(failed=1, e2e=self.e2e(1.0))]
        out = run.aggregate(reps, [], trace=0)
        self.assertEqual(out["failed"], 3)
        self.assertIn("floor: x", out["failures"])

    def test_missing_metric_fails_but_still_reports_every_name(self):
        out = run.aggregate([rep(e2e={"ns_per_cell": 5.0})], [], trace=0)
        self.assertFalse(out["correct"])
        self.assertEqual(set(out["metrics"]), {n for n, _ in run.END_TO_END})

    def test_traced_run_takes_spans_from_traced_reps(self):
        layer = {n: 1.0 for n, _ in run.PER_LAYER}
        untraced = [rep(e2e=self.e2e(100.0), layer=layer)]
        traced = [rep(e2e=self.e2e(130.0), layer=layer,
                      spans={"net.link.send_ns_per_cell": 42.0})]
        out = run.aggregate(untraced, traced, trace=1)
        self.assertTrue(out["correct"])
        m = out["metrics"]
        self.assertEqual(set(m), {n for n, _ in run.PER_LAYER})
        self.assertEqual(m["net.link.send_ns_per_cell"]["value"], 42.0)
        self.assertEqual(m["sim.events_per_cell"]["value"], 1.0)
        self.assertEqual(m["trace.overhead_ns_per_cell"]["value"], 30.0)


if __name__ == "__main__":
    unittest.main()
