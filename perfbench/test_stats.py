"""Self-tests for the benchmark's statistics (stats.py).

    python3 perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class Quantiles(unittest.TestCase):
    def test_endpoints_and_median(self):
        v = [5.0, 1.0, 3.0, 2.0, 4.0]
        self.assertEqual(stats.quantile(v, 0.0), 1.0)
        self.assertEqual(stats.quantile(v, 1.0), 5.0)
        self.assertEqual(stats.quantile(v, 0.5), 3.0)

    def test_interpolates_between_order_statistics(self):
        self.assertAlmostEqual(stats.quantile([0.0, 10.0], 0.25), 2.5)
        self.assertAlmostEqual(stats.quantile(list(range(101)), 0.99), 99.0)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.quantile([], 0.5)
        with self.assertRaises(ValueError):
            stats.quantile([1.0], 1.5)


class TailRule(unittest.TestCase):
    def test_keeps_wanted_level_with_enough_samples(self):
        # 10 000 samples leave 100 beyond p99 and 10 beyond p99.9.
        self.assertEqual(stats.tail_level(10000, 0.99), 0.99)
        self.assertAlmostEqual(stats.tail_level(10000, 0.999), 0.999)

    def test_lowers_level_to_keep_ten_beyond(self):
        self.assertAlmostEqual(stats.tail_level(100, 0.99), 0.90)
        self.assertAlmostEqual(stats.tail_level(200, 0.99), 0.95)
        # The level chosen always leaves at least ten samples beyond it.
        for n in (20, 57, 100, 999, 5000):
            level = stats.tail_level(n, 0.99)
            self.assertGreaterEqual(n * (1 - level), 10 - 1e-9)

    def test_never_below_median(self):
        self.assertEqual(stats.tail_level(12, 0.99), 0.5)

    def test_tail_value(self):
        values = list(range(1, 101))  # 1..100
        level, value = stats.tail(values, 0.99)
        self.assertAlmostEqual(level, 0.90)
        self.assertAlmostEqual(value, stats.quantile(values, 0.90))


class MedianMad(unittest.TestCase):
    def test_median_and_mad(self):
        v = [1.0, 2.0, 3.0, 4.0, 100.0]
        self.assertEqual(stats.median(v), 3.0)
        self.assertEqual(stats.mad(v), 1.0)

    def test_mad_is_robust_to_one_outlier(self):
        v = [10.0] * 9 + [1e9]
        self.assertEqual(stats.mad(v), 0.0)


class Ladder(unittest.TestCase):
    def test_rung_decision(self):
        ok = dict(light_p99_us=900, limit_us=1000, early_p50_us=50,
                  late_p50_us=60, lag_p99_us=100, lag_limit_us=500,
                  failed=False)
        self.assertTrue(stats.rung_passes(**ok))
        self.assertFalse(stats.rung_passes(**{**ok, "light_p99_us": 1001}))
        self.assertFalse(stats.rung_passes(**{**ok, "failed": True}))
        # A generator that fell behind fails the rung: not fast, failed.
        self.assertFalse(stats.rung_passes(**{**ok, "lag_p99_us": 501}))
        # A backlog that grows through the rung fails it.
        self.assertFalse(stats.rung_passes(**{**ok, "late_p50_us": 1101}))
        self.assertTrue(stats.rung_passes(**{**ok, "late_p50_us": 1099}))

    def test_ladder_is_geometric_and_fixed(self):
        ladder = stats.geometric_ladder(1000, 2000, 1.25)
        self.assertEqual(ladder, [1000, 1250, 1562, 1953])

    def test_bisection_finds_capacity(self):
        ladder = stats.geometric_ladder(1000, 100000, 1.1)
        for capacity in (1000, 5000, 33333, 100000):
            rate, probed = stats.max_rate(ladder, lambda r: r <= capacity)
            self.assertEqual(rate, max(r for r in ladder if r <= capacity))
            self.assertLessEqual(len(probed), 6)

    def test_bisection_when_nothing_passes(self):
        rate, _ = stats.max_rate([10, 20, 30], lambda r: False)
        self.assertIsNone(rate)


if __name__ == "__main__":
    unittest.main()
