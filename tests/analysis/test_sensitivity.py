"""Tests for the sensitivity sweep utilities."""

import pytest

from repro.analysis.ablation import baseline_trace
from repro.analysis.sensitivity import metric_series, monotone
from repro.analysis.sweep import sweep_values
from repro.sim import MINUTE

TRACE_KWARGS = {"seed": 3, "days": 2, "job_scale": 0.04}


@pytest.fixture(scope="module")
def trace():
    return baseline_trace(**TRACE_KWARGS)


def test_sweep_returns_one_summary_per_value(trace):
    results = sweep_values(trace, "grace_period",
                           (0.0, 5 * MINUTE), days=2, seed=3)
    assert [v for v, _s in results] == [0.0, 5 * MINUTE]
    assert all("checkpoints" in s for _v, s in results)


def test_metric_series_extraction():
    sweep = [(1, {"m": 10.0}), (2, {"m": 20.0})]
    assert metric_series(sweep, "m") == [(1, 10.0), (2, 20.0)]


def test_monotone_checks():
    rising = [(1, 1.0), (2, 2.0), (3, 3.0)]
    assert monotone(rising, increasing=True)
    assert not monotone(rising, increasing=False)
    wiggle = [(1, 1.0), (2, 0.99), (3, 3.0)]
    assert monotone(wiggle, increasing=True, tolerance=0.05)
