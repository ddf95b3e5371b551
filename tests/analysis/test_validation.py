"""Tests for the statistical validation utilities."""

import importlib
import math
import sys

import pytest

from repro.analysis import validation
from repro.analysis.validation import (
    confidence_interval,
    demand_distribution_ks,
    headline_metrics,
    ks_statistic,
    multi_seed_summary,
    relative_error,
    shape_report,
)
from repro.analysis import cached_month_run

RUN_KWARGS = {"days": 4, "job_scale": 0.08}


class TestConfidenceInterval:
    def test_exact_for_constant_sample(self):
        mean, half = confidence_interval([5.0, 5.0, 5.0])
        assert mean == 5.0
        assert half == 0.0

    def test_single_value_infinite_width(self):
        mean, half = confidence_interval([3.0])
        assert mean == 3.0
        assert math.isinf(half)

    def test_width_shrinks_with_samples(self):
        small = confidence_interval([1.0, 2.0, 3.0])[1]
        large = confidence_interval([1.0, 2.0, 3.0] * 10)[1]
        assert large < small

    def test_student_t_without_scipy(self, monkeypatch):
        # Five samples, df = 4: scipy.stats.t.ppf(0.975, 4) = 2.776445105,
        # not the normal 1.96, whether or not scipy is installed.
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.stats", None)
        module = importlib.reload(validation)
        mean, half = module.confidence_interval([1.0, 2.0, 3.0, 4.0, 5.0])
        assert mean == 3.0
        assert half == pytest.approx(2.776445105 * math.sqrt(2.5 / 5),
                                     rel=1e-9)

    def test_t_table_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for df in range(1, 31):
            assert validation._t_critical(df) == pytest.approx(
                scipy_stats.t.ppf(0.975, df), rel=1e-9), df
        assert validation._t_critical(31) == 1.96


class TestKs:
    def test_perfect_fit_small_distance(self):
        # Large exponential sample against its own CDF.
        import random
        rng = random.Random(4)
        values = [rng.expovariate(1.0) for _ in range(4000)]
        d = ks_statistic(values, lambda x: 1.0 - math.exp(-x))
        assert d < 0.03

    def test_bad_fit_large_distance(self):
        values = [10.0] * 100
        d = ks_statistic(values, lambda x: 1.0 - math.exp(-x))
        assert d > 0.5

    def test_empty_sample(self):
        assert ks_statistic([], lambda x: 0.5) is None


class TestRelativeError:
    def test_basic(self):
        assert relative_error(110.0, 100.0) == pytest.approx(0.1)

    def test_zero_target(self):
        assert relative_error(1.0, 0.0) is None


class TestOnRuns:
    def test_headline_metrics_keys(self):
        run = cached_month_run(seed=11, days=6, job_scale=0.15)
        metrics = headline_metrics(run)
        assert set(metrics) == {
            "jobs_submitted", "completion_rate", "local_utilization",
            "remote_hours", "available_hours", "avg_leverage",
            "avg_wait_light", "avg_wait_heavy",
        }
        assert 0.0 <= metrics["completion_rate"] <= 1.0

    def test_multi_seed_summary_stability(self):
        summary = multi_seed_summary(seeds=(1, 2, 3), **RUN_KWARGS)
        mean_util, half_util = summary["local_utilization"]
        # Calibration holds across seeds, not just on seed 42.
        assert 0.12 < mean_util < 0.35
        assert half_util < mean_util        # CI narrower than the value
        mean_rate, _ = summary["completion_rate"]
        assert mean_rate > 0.6

    def test_demand_generator_matches_model(self):
        run = cached_month_run(seed=11, days=6, job_scale=0.15)
        profile = next(p for p in run.profiles if p.name == "A")
        d = demand_distribution_ks(run, profile)
        # ~100 samples: KS distance must be small for a faithful sampler.
        assert d < 0.15

    def test_shape_report_rows(self):
        summary = {"local_utilization": (0.24, 0.02)}
        rows = shape_report(summary, {"local_utilization": 0.25})
        metric, target, mean, half, error = rows[0]
        assert metric == "local_utilization"
        assert error == pytest.approx(0.04)
