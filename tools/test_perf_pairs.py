#!/usr/bin/env python3
"""Self-test for perf_pairs.py's statistics: seed lists, quartiles, wins
and the per-metric row.  Stdlib-only (unittest); run directly or via
ctest (perf_pairs_selftest).  Runs no benchmark and touches no git state.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_pairs  # noqa: E402


class Stats(unittest.TestCase):
    def test_seed_lists(self):
        self.assertEqual(perf_pairs.parse_seeds("11-14"), [11, 12, 13, 14])
        self.assertEqual(perf_pairs.parse_seeds("3,5,7-8"), [3, 5, 7, 8])
        with self.assertRaises(ValueError):
            perf_pairs.parse_seeds("x")

    def test_quartiles_interpolate_between_ranks(self):
        med, q1, q3, iqr = perf_pairs.summarize([4, 1, 3, 2, 5])
        self.assertEqual((med, q1, q3, iqr), (3, 2, 4, 2))
        med, q1, q3, iqr = perf_pairs.summarize([1, 2, 3, 4])
        self.assertEqual((med, q1, q3, iqr), (2.5, 1.75, 3.25, 1.5))
        self.assertEqual(perf_pairs.summarize([7]), (7, 7, 7, 0))

    def test_wins_follow_the_metric_direction(self):
        base, change = [10, 10, 10], [12, 8, 10]
        self.assertEqual(perf_pairs.wins(base, change, "higher"), 1)
        self.assertEqual(perf_pairs.wins(base, change, "lower"), 1)

    def test_row_reports_gap_against_base_iqr(self):
        r = perf_pairs.row("node-burst", "req_per_s", "1/s", "higher",
                           [100, 102, 98, 101, 99], [150, 149, 152, 97, 151])
        self.assertEqual(r["base"]["median"], 100)
        self.assertEqual(r["change"]["median"], 150)
        self.assertAlmostEqual(r["median_change"], 0.5)
        self.assertTrue(r["gap_exceeds_base_iqr"])
        self.assertEqual((r["wins"], r["pairs"]), (4, 5))
        flat = perf_pairs.row("w", "m", "ms", "lower", [1, 2, 3], [2, 2, 2])
        self.assertFalse(flat["gap_exceeds_base_iqr"])
        unused = perf_pairs.row("w", "m", "ms", "lower", [0, 0], [0, 0])
        self.assertIsNone(unused["median_change"])


if __name__ == "__main__":
    unittest.main()
