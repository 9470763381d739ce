#!/usr/bin/env python3
"""Unit tests for the arithmetic of scripts/ab.py, on canned numbers.

Run directly (``python3 scripts/test_ab.py``) or via ctest, which
registers this file as the ``ab_py`` test.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402


class PairSeeds(unittest.TestCase):
    def test_distinct_and_skip_the_reserved_seed(self):
        seeds = ab.pair_seeds(7915, 10)
        self.assertEqual(len(seeds), 10)
        self.assertEqual(len(set(seeds)), 10)
        self.assertNotIn(7919, seeds)
        self.assertEqual(seeds[:5], [7915, 7916, 7917, 7918, 7920])


class Summarize(unittest.TestCase):
    def test_lower_is_better_gain(self):
        parent = [100, 110, 90, 105, 95]
        change = [75, 80, 70, 77, 74]
        s = ab.summarize(parent, change, "lower", 0.25)
        # Ratios 0.75, 0.727, 0.778, 0.733, 0.779: median 0.75.
        self.assertAlmostEqual(s["median_ratio"], 0.75)
        self.assertEqual(s["wins"], 5)
        self.assertEqual(s["pairs"], 5)
        self.assertEqual(s["parent_median"], 100)
        self.assertEqual(s["change_median"], 75)
        self.assertFalse(s["regressed"])
        self.assertTrue(s["beyond_iqr"])

    def test_median_of_ratios_not_ratio_of_medians(self):
        parent = [100, 200, 300]
        change = [90, 300, 330]
        s = ab.summarize(parent, change, "lower", 0.25)
        # Ratios 0.9, 1.5, 1.1: median 1.1, though 300/200 = 1.5.
        self.assertAlmostEqual(s["median_ratio"], 1.1)
        self.assertEqual(s["wins"], 1)

    def test_regression_past_bound(self):
        s = ab.summarize([10, 10, 10], [13, 12.6, 13], "lower", 0.25)
        self.assertTrue(s["regressed"])
        s = ab.summarize([10, 10, 10], [12.4, 12.4, 12.4], "lower", 0.25)
        self.assertFalse(s["regressed"])

    def test_higher_is_better(self):
        s = ab.summarize([10, 10, 10, 10], [7, 7, 7, 11], "higher", 0.25)
        self.assertAlmostEqual(s["median_ratio"], 0.7)
        self.assertTrue(s["regressed"])
        self.assertEqual(s["wins"], 1)

    def test_parent_iqr(self):
        parent = [1, 2, 3, 4, 5, 6, 7, 8]
        # statistics.quantiles(n=4), exclusive method: 2.25 and 6.75.
        self.assertAlmostEqual(ab.iqr(parent), 4.5)
        s = ab.summarize(parent, [p + 4 for p in parent], "lower", 10)
        self.assertFalse(s["beyond_iqr"])  # a shift of 4 < IQR 4.5
        self.assertEqual(ab.iqr([5]), 0.0)

    def test_mismatched_runs_rejected(self):
        with self.assertRaises(ValueError):
            ab.summarize([1, 2], [1], "lower", 0.25)
        with self.assertRaises(ValueError):
            ab.summarize([], [], "lower", 0.25)


class LoadMetrics(unittest.TestCase):
    def test_reads_end_to_end_bounds(self):
        doc = {"end_to_end": [
            {"name": "ns_per_cell", "unit": "ns", "better": "lower",
             "bound": 0.25},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
             "bound": 0.05}],
               "per_layer": []}
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "BENCHMARK.json")
            with open(path, "w") as f:
                json.dump(doc, f)
            self.assertEqual(ab.load_metrics(path),
                             [("ns_per_cell", "lower", 0.25),
                              ("peak_rss_mb", "lower", 0.05)])

    def test_table_names_the_verdict(self):
        s = ab.summarize([10, 10], [13, 13], "lower", 0.25)
        table = ab.format_table("p2p-bulk", [("ns_per_cell", 0.25, s)])
        self.assertIn("| ns_per_cell |", table)
        self.assertIn("0/2", table)
        self.assertIn("WORSE than bound 0.25", table)


class Verdict(unittest.TestCase):
    # Parent runs with median 100 and IQR 4 (4 % of the median).
    PARENT = [96, 98, 99, 100, 100, 101, 102, 104]

    def verdict(self, parent, change, better="lower", bound=0.25):
        return ab.verdict(ab.summarize(parent, change, better, bound), bound)

    def test_worse_than_bound(self):
        self.assertEqual(self.verdict(self.PARENT, [130] * 8),
                         "WORSE than bound 0.25")

    def test_unresolved_when_the_parent_spread_passes_the_bound(self):
        # IQR 4 on a median of 100 is wider than a 0.02 bound.
        s = ab.summarize(self.PARENT, [p - 1 for p in self.PARENT],
                         "lower", 0.02)
        self.assertTrue(s["unresolved"])
        self.assertEqual(ab.verdict(s, 0.02), "unresolved")

    def test_wide_spread_resolves_when_every_change_run_is_better(self):
        change = [90, 91, 92, 93, 94, 94, 95, 95]  # all below 96
        self.assertEqual(self.verdict(self.PARENT, change, bound=0.02),
                         "better, beyond IQR")
        change = [106, 107, 108, 109, 110, 111, 112, 113]
        self.assertEqual(
            self.verdict(self.PARENT, change, better="higher", bound=0.02),
            "better, beyond IQR")

    def test_better_beyond_iqr(self):
        self.assertEqual(self.verdict(self.PARENT, [p - 10 for p in self.PARENT]),
                         "better, beyond IQR")
        self.assertEqual(
            self.verdict(self.PARENT, [p + 10 for p in self.PARENT],
                         better="higher"),
            "better, beyond IQR")

    def test_worse_beyond_iqr(self):
        self.assertEqual(self.verdict(self.PARENT, [p + 10 for p in self.PARENT]),
                         "worse, beyond IQR")
        self.assertEqual(
            self.verdict(self.PARENT, [p - 10 for p in self.PARENT],
                         better="higher"),
            "worse, beyond IQR")

    def test_within_iqr(self):
        self.assertEqual(self.verdict(self.PARENT, [p + 1 for p in self.PARENT]),
                         "within IQR")


if __name__ == "__main__":
    unittest.main()
