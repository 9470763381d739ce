#!/usr/bin/env python3
"""Unit tests for scripts/bench_compare.py — the perf-regression gate.

Run directly (``python3 scripts/test_bench_compare.py``) or via ctest,
which registers this file as the ``bench_compare_py`` test.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402


def doc(rows):
    return {"benchmarks": rows}


def rate_row(name, items_per_second):
    return {"name": name, "run_name": name, "run_type": "iteration",
            "real_time": 1.0, "items_per_second": items_per_second}


def cost_row(name, value):
    return {"name": name, "run_name": name, "run_type": "iteration",
            "real_time": 1.0, "lower_is_better": True, "value": value}


def score_row(name, value):
    return {"name": name, "run_name": name, "run_type": "iteration",
            "real_time": 1.0, "higher_is_better": True, "value": value}


def exact_row(name, value):
    return {"name": name, "run_type": "iteration", "real_time": value,
            "exact": True, "value": value}


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, payload):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            if isinstance(payload, str):
                f.write(payload)
            else:
                json.dump(payload, f)
        return path

    def run_gate(self, baseline, candidate, threshold=0.15):
        return self.run_gate_output(baseline, candidate, threshold)[0]

    def run_gate_output(self, baseline, candidate, threshold=0.15):
        """Returns (exit status, stdout) of one gate run."""
        argv = [baseline, candidate, "--threshold", str(threshold)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            status = bench_compare.main(argv)
        return status, out.getvalue()

    def test_identical_runs_pass(self):
        rows = doc([rate_row("kernel/events", 5e6)])
        self.assertEqual(
            self.run_gate(self.write("b.json", rows),
                          self.write("c.json", rows)), 0)

    def test_small_dip_within_threshold_passes(self):
        base = self.write("b.json", doc([rate_row("kernel/events", 100.0)]))
        cand = self.write("c.json", doc([rate_row("kernel/events", 90.0)]))
        self.assertEqual(self.run_gate(base, cand, threshold=0.15), 0)

    def test_regression_beyond_threshold_fails(self):
        base = self.write("b.json", doc([rate_row("kernel/events", 100.0)]))
        cand = self.write("c.json", doc([rate_row("kernel/events", 80.0)]))
        self.assertEqual(self.run_gate(base, cand, threshold=0.15), 1)

    def test_threshold_is_a_closed_bound(self):
        # Exactly at (1 - threshold) passes; just below fails.
        base = self.write("b.json", doc([rate_row("r", 100.0)]))
        at = self.write("at.json", doc([rate_row("r", 85.0)]))
        below = self.write("below.json", doc([rate_row("r", 84.9)]))
        self.assertEqual(self.run_gate(base, at, threshold=0.15), 0)
        self.assertEqual(self.run_gate(base, below, threshold=0.15), 1)

    def test_lower_is_better_gates_growth(self):
        base = self.write("b.json", doc([cost_row("p2/bytes_per_vc", 100.0)]))
        ok = self.write("ok.json", doc([cost_row("p2/bytes_per_vc", 110.0)]))
        bad = self.write("bad.json", doc([cost_row("p2/bytes_per_vc", 130.0)]))
        self.assertEqual(self.run_gate(base, ok, threshold=0.15), 0)
        self.assertEqual(self.run_gate(base, bad, threshold=0.15), 1)

    def test_lower_is_better_improvement_passes(self):
        base = self.write("b.json", doc([cost_row("c", 100.0)]))
        cand = self.write("c.json", doc([cost_row("c", 50.0)]))
        self.assertEqual(self.run_gate(base, cand), 0)

    def test_higher_is_better_score_compares_directly(self):
        base = self.write("b.json", doc([score_row("r4/jain", 0.99)]))
        ok = self.write("ok.json", doc([score_row("r4/jain", 0.95)]))
        bad = self.write("bad.json", doc([score_row("r4/jain", 0.50)]))
        self.assertEqual(self.run_gate(base, ok, threshold=0.15), 0)
        self.assertEqual(self.run_gate(base, bad, threshold=0.15), 1)

    def test_exact_row_fails_on_any_change_in_either_direction(self):
        name = "fleet/determinism-p2p/events_per_cell"
        base = self.write("b.json", doc([exact_row(name, 6.4166666667)]))
        same = self.write("same.json", doc([exact_row(name, 6.4166666667)]))
        lower = self.write("lower.json", doc([exact_row(name, 5.4166666667)]))
        higher = self.write("higher.json",
                            doc([exact_row(name, 6.4166666668)]))
        # The threshold does not soften an exact row: even a generous
        # one fails a 16% fall and a 1e-10 rise alike.
        self.assertEqual(self.run_gate(base, same, threshold=0.5), 0)
        self.assertEqual(self.run_gate(base, lower, threshold=0.5), 1)
        self.assertEqual(self.run_gate(base, higher, threshold=0.5), 1)

    def test_missing_exact_row_fails(self):
        base = self.write("b.json", doc([exact_row("c/total", 3.0),
                                         exact_row("c/framer", 1.0)]))
        cand = self.write("c.json", doc([exact_row("c/total", 3.0)]))
        self.assertEqual(self.run_gate(base, cand), 1)

    def test_new_exact_row_fails(self):
        # A new scenario's census must be recorded before it is gated;
        # without the baseline row it would never be gated at all.
        base = self.write("b.json", doc([exact_row("c/total", 3.0)]))
        cand = self.write("c.json", doc([exact_row("c/total", 3.0),
                                         exact_row("new/total", 7.0)]))
        self.assertEqual(self.run_gate(base, cand), 1)

    def test_exact_baseline_alone_is_a_valid_baseline(self):
        # A census-only baseline is not "empty" (that is exit 2); mixed
        # with rate rows, each row keeps its own rule.
        base = self.write("b.json", doc([exact_row("c/total", 3.0),
                                         rate_row("k", 100.0)]))
        cand = self.write("c.json", doc([exact_row("c/total", 3.0),
                                         rate_row("k", 90.0)]))
        self.assertEqual(self.run_gate(base, cand, threshold=0.15), 0)

    def test_hosts_are_printed_and_a_differing_one_is_named(self):
        vm = {"host_name": "vm", "num_cpus": 1, "mhz_per_cpu": 2100,
              "load_avg": [0.5]}
        box = {"host_name": "box", "num_cpus": 4, "mhz_per_cpu": 3000}
        base = self.write("b.json", {"context": vm,
                                     "benchmarks": [rate_row("k", 100.0)]})
        slow = {"benchmarks": [rate_row("k", 50.0)]}
        elsewhere = self.write("e.json", {**slow, "context": box})
        same = self.write("s.json", {**slow, "context": vm})
        fast = self.write("f.json", {"context": box,
                                     "benchmarks": [rate_row("k", 100.0)]})

        status, out = self.run_gate_output(base, elsewhere)
        self.assertEqual(status, 1)  # the note changes no verdict
        self.assertIn("baseline host:  host_name=vm, num_cpus=1, "
                      "mhz_per_cpu=2100", out)
        self.assertIn("candidate host: host_name=box, num_cpus=4, "
                      "mhz_per_cpu=3000", out)
        self.assertIn("recorded on another host", out)
        # Same machine, or nothing failed: no note.
        status, out = self.run_gate_output(base, same)
        self.assertEqual(status, 1)
        self.assertNotIn("another host", out)
        status, out = self.run_gate_output(base, fast)
        self.assertEqual(status, 0)
        self.assertNotIn("another host", out)
        # Documents without a context print no host lines.
        plain = self.write("p.json", doc([rate_row("k", 100.0)]))
        status, out = self.run_gate_output(plain, plain)
        self.assertEqual(status, 0)
        self.assertNotIn("host", out)

    def test_missing_benchmark_fails(self):
        base = self.write("b.json", doc([rate_row("a", 1.0),
                                         rate_row("b", 1.0)]))
        cand = self.write("c.json", doc([rate_row("a", 1.0)]))
        self.assertEqual(self.run_gate(base, cand), 1)

    def test_renamed_benchmark_fails(self):
        base = self.write("b.json", doc([rate_row("kernel/events", 1.0)]))
        cand = self.write("c.json", doc([rate_row("kernel/event", 1.0)]))
        self.assertEqual(self.run_gate(base, cand), 1)

    def test_extra_candidate_rows_are_ignored(self):
        base = self.write("b.json", doc([rate_row("a", 1.0)]))
        cand = self.write("c.json", doc([rate_row("a", 1.0),
                                         rate_row("new", 9.0)]))
        self.assertEqual(self.run_gate(base, cand), 0)

    def test_aggregate_median_preferred_over_raw(self):
        # Three noisy repetitions plus a median aggregate: the gate must
        # read the median (150), not the best raw repetition (300).
        rows = [rate_row("k", 100.0), rate_row("k", 300.0),
                rate_row("k", 140.0),
                {"name": "k_median", "run_name": "k",
                 "run_type": "aggregate", "aggregate_name": "median",
                 "real_time": 1.0, "items_per_second": 150.0}]
        base = self.write("b.json", doc(rows))
        cand = self.write("c.json", doc([rate_row("k", 140.0)]))
        # 140/150 = 0.93: passes at 15%, fails at 5%.
        self.assertEqual(self.run_gate(base, cand, threshold=0.15), 0)
        self.assertEqual(self.run_gate(base, cand, threshold=0.05), 1)

    def test_empty_baseline_is_usage_error(self):
        base = self.write("b.json", doc([]))
        cand = self.write("c.json", doc([rate_row("a", 1.0)]))
        with self.assertRaises(SystemExit) as ctx:
            self.run_gate(base, cand)
        self.assertEqual(ctx.exception.code, 2)

    def test_malformed_json_is_usage_error(self):
        base = self.write("b.json", "{not json")
        cand = self.write("c.json", doc([rate_row("a", 1.0)]))
        with self.assertRaises(SystemExit) as ctx:
            self.run_gate(base, cand)
        self.assertEqual(ctx.exception.code, 2)

    def test_missing_file_is_usage_error(self):
        cand = self.write("c.json", doc([rate_row("a", 1.0)]))
        with self.assertRaises(SystemExit) as ctx:
            self.run_gate(os.path.join(self.dir.name, "absent.json"), cand)
        self.assertEqual(ctx.exception.code, 2)


if __name__ == "__main__":
    unittest.main()
