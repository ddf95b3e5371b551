"""Tests for per-job metric aggregation (Table 1 / Figs. 2, 4, 8, 9)."""

import pytest

from repro.core.job import Job
from repro.metrics import jobs as job_metrics
from repro.sim import HOUR


def finished_job(user="A", demand_hours=5.0, wait_hours=0.0,
                 checkpoints=0, support=None, remote=None):
    job = Job(user=user, home="ws-1", demand_seconds=demand_hours * HOUR)
    job.submitted_at = 0.0
    job.completed_at = (demand_hours + wait_hours) * HOUR
    job.checkpoint_count = checkpoints
    job.remote_cpu_seconds = (remote if remote is not None
                              else demand_hours * HOUR)
    for kind, seconds in (support or {}).items():
        job.add_support(kind, seconds)
    job.transition("placing")
    job.transition("running")
    job.transition("completed")
    return job


class TestUserTable:
    def test_single_user(self):
        jobs = [finished_job(demand_hours=2.0), finished_job(demand_hours=4.0)]
        rows, totals = job_metrics.user_table(jobs)
        assert len(rows) == 1
        assert rows[0]["jobs"] == 2
        assert rows[0]["avg_demand_hours"] == pytest.approx(3.0)
        assert rows[0]["job_share"] == 100.0
        assert totals["total_demand_hours"] == pytest.approx(6.0)

    def test_rows_sorted_by_demand(self):
        jobs = [finished_job(user="small", demand_hours=1.0),
                finished_job(user="big", demand_hours=10.0)]
        rows, _totals = job_metrics.user_table(jobs)
        assert [row["user"] for row in rows] == ["big", "small"]

    def test_shares_sum_to_100(self):
        jobs = [finished_job(user=u, demand_hours=d)
                for u, d in (("A", 6.0), ("B", 3.0), ("C", 1.0))]
        rows, _totals = job_metrics.user_table(jobs)
        assert sum(row["job_share"] for row in rows) == pytest.approx(100.0)
        assert sum(row["demand_share"] for row in rows) == pytest.approx(100.0)

    def test_empty_jobs(self):
        rows, totals = job_metrics.user_table([])
        assert rows == []
        assert totals["jobs"] == 0


class TestCdf:
    def test_demand_cdf(self):
        jobs = [finished_job(demand_hours=h) for h in (0.5, 1.5, 2.5, 10.0)]
        cdf = job_metrics.demand_cdf(jobs, [1, 2, 3])
        assert cdf == [0.25, 0.5, 0.75]


class TestPerDemandSeries:
    def test_wait_ratio_buckets(self):
        jobs = [
            finished_job(demand_hours=0.5, wait_hours=0.5),   # ratio 1.0
            finished_job(demand_hours=1.5, wait_hours=0.0),   # ratio 0.0
            finished_job(demand_hours=1.6, wait_hours=1.6),   # ratio 1.0
        ]
        series = job_metrics.wait_ratio_by_demand(jobs, edges=(0, 1, 2))
        assert len(series) == 2
        assert series[0]["value"] == pytest.approx(1.0)
        assert series[1]["value"] == pytest.approx(0.5)
        assert series[1]["jobs"] == 2

    def test_empty_buckets_skipped(self):
        jobs = [finished_job(demand_hours=0.5)]
        series = job_metrics.checkpoint_rate_by_demand(jobs, edges=(0, 1, 2))
        assert len(series) == 1
        assert series[0]["low_hours"] == 0

    def test_checkpoint_rate_values(self):
        jobs = [finished_job(demand_hours=2.0, checkpoints=4)]
        series = job_metrics.checkpoint_rate_by_demand(jobs, edges=(0, 4))
        assert series[0]["value"] == pytest.approx(2.0)

    def test_leverage_series_skips_zero_support(self):
        supported = finished_job(demand_hours=1.0,
                                 support={"placement": 3.6})
        unsupported = finished_job(demand_hours=1.0)
        series = job_metrics.leverage_by_demand(
            [supported, unsupported], edges=(0, 2)
        )
        assert series[0]["jobs"] == 1
        assert series[0]["value"] == pytest.approx(1000.0)


class TestAggregates:
    def test_average_leverage_below(self):
        short = finished_job(demand_hours=1.0, support={"placement": 6.0})
        long_job = finished_job(demand_hours=10.0,
                                support={"placement": 6.0})
        below = job_metrics.average_leverage_below([short, long_job], 2.0)
        assert below == pytest.approx(600.0)

    def test_average_wait_ratio(self):
        jobs = [finished_job(wait_hours=0.0),
                finished_job(demand_hours=1.0, wait_hours=2.0)]
        assert job_metrics.average_wait_ratio(jobs) == pytest.approx(1.0)

    def test_average_image(self):
        jobs = [finished_job(), finished_job()]
        assert job_metrics.average_checkpoint_image_mb(jobs) == \
            pytest.approx(0.5)
