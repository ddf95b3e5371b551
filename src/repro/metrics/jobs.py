"""Per-job metric aggregation: the material of Table 1 and Figs. 2/4/8/9.

All functions take plain lists of :class:`~repro.core.job.Job` objects so
they work on live systems, trace replays, and synthetic fixtures alike.
"""

from repro.metrics import stats
from repro.sim import HOUR

#: Demand-hour bucket edges used by the per-demand figures (4, 8, 9).
#: The paper plots jobs out to ~24 hours of service demand.
DEFAULT_DEMAND_EDGES = (0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 1000)


def demand_hours(job):
    """A job's service demand in hours (the x-axis of Figs. 2/4/8/9)."""
    return job.demand_seconds / HOUR


def completed(jobs):
    """Only the jobs that finished (the population the paper measures)."""
    return [job for job in jobs if job.finished]


def by_user(jobs):
    """Jobs grouped by user name, insertion-ordered by first appearance."""
    groups = {}
    for job in jobs:
        groups.setdefault(job.user, []).append(job)
    return groups


def user_table(jobs):
    """Table 1 rows: per user — job count, % of jobs, average demand/job
    (hours), total demand (hours), % of total demand.

    Returns ``(rows, totals)`` where each row is a dict; rows are sorted
    by total demand descending (the paper's A..E ordering).
    """
    total_jobs = len(jobs)
    total_demand = sum(demand_hours(job) for job in jobs)
    rows = []
    for user, user_jobs in by_user(jobs).items():
        demand = sum(demand_hours(job) for job in user_jobs)
        rows.append({
            "user": user,
            "jobs": len(user_jobs),
            "job_share": 100.0 * len(user_jobs) / total_jobs if total_jobs else 0.0,
            "avg_demand_hours": demand / len(user_jobs),
            "total_demand_hours": demand,
            "demand_share": 100.0 * demand / total_demand if total_demand else 0.0,
        })
    rows.sort(key=lambda row: -row["total_demand_hours"])
    totals = {
        "jobs": total_jobs,
        "avg_demand_hours": total_demand / total_jobs if total_jobs else 0.0,
        "total_demand_hours": total_demand,
    }
    return rows, totals


def demand_cdf(jobs, grid_hours):
    """Figure 2: fraction of jobs with demand <= each grid point."""
    return stats.cumulative_distribution(
        [demand_hours(job) for job in jobs], grid_hours
    )


def _per_demand_bucket(jobs, value_fn, edges):
    """Average ``value_fn(job)`` per demand bucket, skipping ``None``."""
    buckets = stats.bucket_by(jobs, demand_hours, edges)
    rows = []
    for low, high, members in buckets:
        values = [value_fn(job) for job in members]
        values = [v for v in values if v is not None]
        if not values:
            continue
        rows.append({
            "low_hours": low,
            "high_hours": high,
            "jobs": len(values),
            "value": stats.mean(values),
        })
    return rows


def wait_ratio_by_demand(jobs, edges=DEFAULT_DEMAND_EDGES):
    """Figure 4 series: average wait ratio per service-demand bucket."""
    return _per_demand_bucket(jobs, lambda job: job.wait_ratio(), edges)


def checkpoint_rate_by_demand(jobs, edges=DEFAULT_DEMAND_EDGES):
    """Figure 8 series: checkpoints per hour of demand, per bucket."""
    return _per_demand_bucket(
        jobs, lambda job: job.checkpoint_rate_per_hour(), edges
    )


def leverage_by_demand(jobs, edges=DEFAULT_DEMAND_EDGES):
    """Figure 9 series: average leverage per service-demand bucket."""
    return _per_demand_bucket(jobs, lambda job: job.leverage(), edges)


def average_wait_ratio(jobs):
    ratios = [job.wait_ratio() for job in jobs]
    return stats.mean([r for r in ratios if r is not None])


def average_leverage(jobs):
    values = [job.leverage() for job in jobs]
    return stats.mean([v for v in values if v is not None])


def average_leverage_below(jobs, max_demand_hours):
    """Average leverage of jobs shorter than ``max_demand_hours`` — the
    paper quotes ≈600 for jobs under 2 hours."""
    values = [job.leverage() for job in jobs
              if demand_hours(job) < max_demand_hours]
    return stats.mean([v for v in values if v is not None])


def average_checkpoint_image_mb(jobs):
    """Mean image size over all placements/checkpoints (paper: 0.5 MB)."""
    sizes = [job.image_mb() for job in jobs]
    return stats.mean(sizes)
