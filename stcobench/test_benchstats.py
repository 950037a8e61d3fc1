"""Tests of the benchmark's statistics helpers.

    python3 -m unittest discover -s stcobench -p 'test_*.py'
"""

import math
import statistics
import unittest

import benchstats


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchstats.percentile(values, 50), 50)
        self.assertEqual(benchstats.percentile(values, 90), 90)
        self.assertEqual(benchstats.percentile(values, 100), 100)
        self.assertEqual(benchstats.percentile([7.0], 90), 7.0)

    def test_order_does_not_matter(self):
        self.assertEqual(benchstats.percentile([5, 1, 4, 2, 3], 60), 3)

    def test_rejects_empty_and_bad_rank(self):
        with self.assertRaises(ValueError):
            benchstats.percentile([], 50)
        with self.assertRaises(ValueError):
            benchstats.percentile([1.0], 0)

    def test_samples_beyond(self):
        # p90 of 100 samples is the 90th; ten lie above it.
        self.assertEqual(benchstats.samples_beyond(100, 90), 10)
        self.assertEqual(benchstats.samples_beyond(10, 90), 1)
        self.assertEqual(benchstats.samples_beyond(1, 90), 0)

    def test_summary_carries_count(self):
        s = benchstats.summary([3.0, 1.0, 2.0, 10.0])
        self.assertEqual(s["n"], 4)
        self.assertEqual(s["p50"], 2.5)
        self.assertEqual(s["p90"], 10.0)


class QuartileSpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.0, 10.3]
        med, q1, q3, spread = benchstats.quartile_spread(values)
        eq1, _, eq3 = statistics.quantiles(values, n=4)
        self.assertEqual((q1, q3), (eq1, eq3))
        self.assertEqual(med, statistics.median(values))
        self.assertAlmostEqual(spread, (eq3 - eq1) / med)

    def test_constant_values_have_zero_spread(self):
        self.assertEqual(benchstats.quartile_spread([2.0, 2.0, 2.0])[3], 0.0)

    def test_needs_two_samples(self):
        with self.assertRaises(ValueError):
            benchstats.quartile_spread([1.0])


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_duration(self):
        self.assertEqual(benchstats.self_times([("a", 1.0, 3.0, -1)]), [2.0])

    def test_children_are_subtracted(self):
        spans = [
            ("search", 0.0, 10.0, -1),
            ("cost", 1.0, 4.0, 0),
            ("cost", 5.0, 6.0, 0),
            ("build", 1.5, 3.5, 1),
        ]
        st = benchstats.self_times(spans)
        self.assertAlmostEqual(st[0], 6.0)   # 10 - 3 - 1
        self.assertAlmostEqual(st[1], 1.0)   # 3 - 2
        self.assertAlmostEqual(st[2], 1.0)
        self.assertAlmostEqual(st[3], 2.0)

    def test_overlapping_children_count_once(self):
        # Children on other lanes may overlap; covered time is their union.
        spans = [("p", 0.0, 10.0, -1), ("c", 2.0, 6.0, 0), ("c", 4.0, 8.0, 0)]
        self.assertAlmostEqual(benchstats.self_times(spans)[0], 4.0)

    def test_children_are_clipped_to_parent(self):
        spans = [("p", 0.0, 5.0, -1), ("c", 4.0, 9.0, 0)]
        self.assertAlmostEqual(benchstats.self_times(spans)[0], 4.0)

    def test_by_name(self):
        spans = [("p", 0.0, 4.0, -1), ("c", 1.0, 2.0, 0), ("c", 2.0, 3.0, 0)]
        totals = benchstats.self_time_by_name(spans)
        self.assertEqual(totals["c"][1], 2)
        self.assertAlmostEqual(totals["c"][0], 2.0)
        self.assertAlmostEqual(totals["p"][0], 2.0)


class FailureShareTest(unittest.TestCase):
    def test_share(self):
        self.assertEqual(benchstats.failure_share(10, 0), 0.0)
        self.assertEqual(benchstats.failure_share(8, 2), 0.25)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            benchstats.failure_share(0, 0)
        with self.assertRaises(ValueError):
            benchstats.failure_share(3, 4)

    def test_ratio_of_nothing_is_zero(self):
        self.assertEqual(benchstats.ratio(0, 0), 0.0)
        self.assertTrue(math.isclose(benchstats.ratio(1, 3), 1 / 3))


if __name__ == "__main__":
    unittest.main()
