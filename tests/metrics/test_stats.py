"""Tests for the statistics helpers, incl. hypothesis properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import stats
from repro.sim import SimulationError


class TestBasics:
    def test_mean(self):
        assert stats.mean([1, 2, 3]) == 2.0

    def test_mean_empty_is_none(self):
        assert stats.mean([]) is None

    def test_median_odd(self):
        assert stats.median([5, 1, 3]) == 3

    def test_median_even(self):
        assert stats.median([1, 2, 3, 4]) == 2.5

    def test_median_empty_is_none(self):
        assert stats.median([]) is None

    def test_quantile_bounds(self):
        values = list(range(11))
        assert stats.quantile(values, 0.0) == 0
        assert stats.quantile(values, 1.0) == 10
        assert stats.quantile(values, 0.5) == 5

    def test_quantile_interpolates(self):
        assert stats.quantile([0, 10], 0.25) == 2.5

    def test_quantile_range_checked(self):
        with pytest.raises(SimulationError):
            stats.quantile([1], 1.5)

    def test_quantile_empty_is_none(self):
        assert stats.quantile([], 0.5) is None


class TestCdf:
    def test_simple_cdf(self):
        values = [0.5, 1.5, 2.5, 3.5]
        assert stats.cumulative_distribution(values, [1, 2, 3, 4]) == \
            [0.25, 0.5, 0.75, 1.0]

    def test_empty_values(self):
        assert stats.cumulative_distribution([], [1, 2]) == [0.0, 0.0]

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_cdf_monotone_and_bounded(self, values):
        grid = [0, 25, 50, 75, 100]
        cdf = stats.cumulative_distribution(values, grid)
        assert all(0.0 <= c <= 1.0 for c in cdf)
        assert all(a <= b for a, b in zip(cdf, cdf[1:]))
        assert cdf[-1] == 1.0


class TestBuckets:
    def test_bucketing(self):
        buckets = stats.bucket_by([0.5, 1.5, 1.7, 9.0], lambda x: x,
                                  [0, 1, 2, 3])
        assert [len(members) for _l, _h, members in buckets] == [1, 2, 0]

    def test_edges_validated(self):
        with pytest.raises(SimulationError):
            stats.bucket_by([], lambda x: x, [3, 1])
        with pytest.raises(SimulationError):
            stats.bucket_by([], lambda x: x, [1])

    @given(st.lists(st.floats(0, 9.999), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_every_in_range_item_lands_in_one_bucket(self, values):
        buckets = stats.bucket_by(values, lambda x: x, list(range(11)))
        total = sum(len(members) for _l, _h, members in buckets)
        assert total == len(values)
