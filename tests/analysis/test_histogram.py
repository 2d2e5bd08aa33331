"""Deviation histograms."""

import pytest

from repro.analysis import DeviationHistogram, histogram_of


class TestHistogram:
    def test_add_and_count(self):
        histogram = histogram_of([0, 0, 1, 2])
        assert histogram.n_loops == 4
        assert histogram.counts == {0: 2, 1: 1, 2: 1}

    def test_percentage(self):
        histogram = histogram_of([0, 0, 0, 1])
        assert histogram.percentage(0) == 75.0
        assert histogram.percentage(1) == 25.0
        assert histogram.percentage(5) == 0.0

    def test_percentage_at_most(self):
        histogram = histogram_of([0, 1, 1, 3])
        assert histogram.percentage_at_most(0) == 25.0
        assert histogram.percentage_at_most(1) == 75.0
        assert histogram.percentage_at_most(3) == 100.0

    def test_match_percentage(self):
        assert histogram_of([0, 1]).match_percentage == 50.0

    def test_mean_and_max(self):
        histogram = histogram_of([0, 2, 4])
        assert histogram.mean_deviation == pytest.approx(2.0)
        assert histogram.max_deviation == 4

    def test_empty_histogram(self):
        histogram = DeviationHistogram()
        assert histogram.n_loops == 0
        assert histogram.percentage(0) == 0.0
        assert histogram.percentage_at_most(3) == 0.0
        assert histogram.mean_deviation == 0.0
        assert histogram.max_deviation == 0

    def test_buckets_figure_layout(self):
        histogram = histogram_of([0] * 90 + [1] * 5 + [2] * 3 + [7] * 2)
        buckets = histogram.buckets()
        assert buckets[0] == ("0", 90.0)
        assert buckets[1] == ("1", 5.0)
        assert buckets[2] == ("2", 3.0)
        label, pct = buckets[3]
        assert label == "3+"
        assert pct == pytest.approx(2.0)

    def test_buckets_empty(self):
        buckets = DeviationHistogram().buckets()
        assert all(pct == 0.0 for _, pct in buckets)
