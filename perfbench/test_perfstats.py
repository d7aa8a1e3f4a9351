"""Tests of the benchmark's arithmetic. Run: python3 -m unittest discover perfbench"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perfstats  # noqa: E402


class NearestRank(unittest.TestCase):
    def test_median_is_an_observed_sample(self):
        values = list(range(1, 21))  # 20 samples
        self.assertEqual(perfstats.nearest_rank(values, 50), 10)

    def test_p90_of_100(self):
        values = [float(v) for v in range(100, 0, -1)]  # unsorted input
        self.assertEqual(perfstats.nearest_rank(values, 90), 90.0)

    def test_no_interpolation(self):
        self.assertEqual(perfstats.nearest_rank([1.0] * 10 + [5.0] * 11, 50), 5.0)

    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(perfstats.TooFewSamples):
            perfstats.nearest_rank(list(range(99)), 90)  # rank 90, 9 beyond
        with self.assertRaises(perfstats.TooFewSamples):
            perfstats.nearest_rank(list(range(19)), 50)  # rank 10, 9 beyond
        self.assertEqual(perfstats.nearest_rank(list(range(100)), 90), 89)

    def test_rejects_out_of_range_percentile(self):
        with self.assertRaises(ValueError):
            perfstats.nearest_rank(list(range(100)), 100)


class SelfTime(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(perfstats.self_time((0, 100), []), 100)

    def test_disjoint_children(self):
        self.assertEqual(perfstats.self_time((0, 100), [(10, 20), (50, 80)]), 60)

    def test_overlapping_children_counted_once(self):
        self.assertEqual(perfstats.self_time((0, 100), [(10, 40), (30, 60), (55, 58)]), 50)

    def test_children_clipped_to_span(self):
        self.assertEqual(perfstats.self_time((10, 20), [(0, 15), (18, 30)]), 3)

    def test_empty_child_ignored(self):
        self.assertEqual(perfstats.self_time((0, 10), [(5, 5)]), 10)


class FailureShare(unittest.TestCase):
    def test_share(self):
        self.assertEqual(perfstats.failure_share(3, 300), 0.01)
        self.assertEqual(perfstats.failure_share(0, 5), 0.0)

    def test_nothing_attempted_is_total_failure(self):
        self.assertEqual(perfstats.failure_share(0, 0), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            perfstats.failure_share(6, 5)


class HostFactor(unittest.TestCase):
    def test_median_over_nominal(self):
        bursts = [5.0, 6.0, 100.0, 6.0, 5.5, 6.0, 7.0, 6.0, 5.0, 6.0, 6.5]  # one stall
        self.assertEqual(perfstats.host_factor(bursts, 5.0), 1.2)

    def test_refuses_few_bursts(self):
        with self.assertRaises(ValueError):
            perfstats.host_factor([5.0] * 9, 5.0)
        with self.assertRaises(ValueError):
            perfstats.host_factors([5.0] * 9, 5.0, 1)

    def test_per_chunk_median_of_neighbours(self):
        bursts = [5.0, 5.0, 5.0, 10.0, 10.0, 10.0, 10.0, 5.0, 50.0, 5.0]
        # the window keeps its width at the ends: chunk 9 takes bursts 7-9
        self.assertEqual(perfstats.host_factors(bursts, 5.0, 1),
                         [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0, 1.0])
        self.assertEqual(perfstats.host_factors(bursts, 5.0, 0)[8], 10.0)


class Spread(unittest.TestCase):
    def test_quartile_spread(self):
        values = [10.0, 10.0, 10.0, 10.0, 11.0, 9.0, 10.0, 10.0, 10.0, 10.0]
        self.assertEqual(perfstats.quartile_spread(values), 0.0)
        self.assertAlmostEqual(perfstats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                               (8.25 - 2.75) / 5.5)

    def test_median_or_zero(self):
        self.assertEqual(perfstats.median_or_zero([]), 0.0)
        self.assertEqual(perfstats.median_or_zero([3, 1, 2, 4]), 2)


class CostClasses(unittest.TestCase):
    @staticmethod
    def mix(light, heavy, stragglers=0):
        return ([(1.0 + i * 1e-3, "light") for i in range(light - stragglers)]
                + [(20.0 + i, "light") for i in range(stragglers)]
                + [(7.0 + i * 1e-3, "heavy") for i in range(heavy)])

    def test_margins_are_measured_from_ranks(self):
        c = perfstats.cost_classes(self.mix(300, 700))
        self.assertEqual((c["p50_class"], c["p90_class"]), ("heavy", "heavy"))
        # p50 rank 500 is 215 ranks above the light class's 95th-percentile
        # member (rank 285); p90 rank 900 has no slower class above it, so
        # its distance runs to n + 1: 101 ranks
        self.assertAlmostEqual(c["p50_margin"], 0.215)
        self.assertAlmostEqual(c["p90_margin"], 0.101)
        self.assertTrue(c["one_class"])

    def test_stragglers_do_not_move_the_edge(self):
        c = perfstats.cost_classes(self.mix(300, 700, stragglers=12))
        self.assertAlmostEqual(c["p50_margin"], 0.215)

    def test_straggler_at_the_p50_rank_does_not_set_its_class(self):
        samples = self.mix(300, 700) + [(7.0 + 349.5e-3, "light")]
        c = perfstats.cost_classes(samples)
        self.assertEqual(c["p50_class"], "heavy")

    def test_overlapping_classes_give_a_negative_margin(self):
        c = perfstats.cost_classes(self.mix(300, 700, stragglers=30))
        self.assertLess(c["p50_margin"], 0)
        self.assertFalse(c["one_class"])

    def test_labels_of_one_cost_merge(self):
        samples = ([(7.0 + i * 1e-2, "hit") for i in range(60)]
                   + [(7.3 + i * 1e-2, "miss") for i in range(60)]
                   + [(1.0, "light")] * 30)
        c = perfstats.cost_classes(samples)
        self.assertEqual(c["classes"], {"hit|miss": 120, "light": 30})
        self.assertEqual(c["p50_class"], "hit|miss")
        self.assertAlmostEqual(c["p50_margin"], (75 - 29) / 150)  # light 95th pct: rank 29

    def test_p50_in_the_gap(self):
        c = perfstats.cost_classes(self.mix(50, 50))
        self.assertEqual((c["p50_class"], c["p90_class"]), ("light", "heavy"))
        self.assertFalse(c["one_class"])

    def test_needs_100_samples(self):
        self.assertIsNone(perfstats.cost_classes(self.mix(30, 69)))


if __name__ == "__main__":
    unittest.main()
