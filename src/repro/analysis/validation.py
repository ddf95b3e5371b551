"""Statistical validation: is the reproduction stable across seeds?

A single seeded month could match the paper by luck.  These utilities
re-run the experiment across seeds and summarise each headline metric as
mean ± a 95% Student-t confidence interval, and test distributional
targets (Fig. 2's demand distribution) with a Kolmogorov-Smirnov
statistic.  Both are computed by hand, so the results are the same on
every install.
"""

import math

from repro.metrics import jobs as job_metrics
from repro.telemetry import kinds

#: Two-sided 95% quantiles of Student's t for df = 1..30
#: (``scipy.stats.t.ppf(0.975, df)`` to 10 significant digits).
_T95 = (
    12.70620474, 4.30265273, 3.182446305, 2.776445105, 2.570581836,
    2.446911851, 2.364624252, 2.306004135, 2.262157163, 2.228138852,
    2.20098516, 2.17881283, 2.160368656, 2.144786688, 2.131449546,
    2.119905299, 2.109815578, 2.10092204, 2.093024054, 2.085963447,
    2.079613845, 2.073873068, 2.06865761, 2.063898562, 2.059538553,
    2.055529439, 2.051830516, 2.048407142, 2.045229642, 2.042272456,
)


def _t_critical(df):
    """Two-sided 95% t quantile; the normal 1.96 beyond df = 30."""
    return _T95[df - 1] if df <= len(_T95) else 1.96


def confidence_interval(values):
    """(mean, half_width) of a 95% t confidence interval for the mean."""
    values = list(values)
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, float("inf")
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = _t_critical(n - 1) * math.sqrt(variance / n)
    return mean, half


def headline_metrics(run):
    """The scalar metrics tracked across seeds."""
    completed = run.completed_jobs
    horizon = run.horizon
    metrics = {
        "jobs_submitted": float(len(run.jobs)),
        "completion_rate": (len(completed) / len(run.jobs)
                            if run.jobs else 0.0),
        "local_utilization": run.util.average_local_utilization(horizon),
        "remote_hours": run.util.remote_hours(),
        "available_hours": run.util.available_hours(horizon),
        "avg_leverage": job_metrics.average_leverage(completed) or 0.0,
        "avg_wait_light": job_metrics.average_wait_ratio(
            run.light_jobs()) or 0.0,
        "avg_wait_heavy": job_metrics.average_wait_ratio(
            run.heavy_jobs()) or 0.0,
    }
    if run.system.matchmaker is not None:
        metrics["leases_granted"] = float(
            run.telemetry.counts[kinds.CROSS_POOL_LEASE_GRANTED])
    return metrics


def multi_seed_summary(seeds, jobs=None, **run_kwargs):
    """Run the experiment for every seed; summarise metric -> (mean, ±).

    ``run_kwargs`` are forwarded to
    :func:`repro.analysis.experiment.run_month` (use ``days``/``job_scale``
    to keep this quick).  ``jobs=N`` fans the seeds out over N worker
    processes via :mod:`repro.analysis.sweep`; the summary is identical
    either way.
    """
    from repro.analysis.sweep import sweep_seeds

    per_seed = [metrics for _seed, metrics
                in sweep_seeds(seeds, jobs=jobs, **run_kwargs)]
    summary = {}
    for metric in per_seed[0]:
        values = [metrics[metric] for metrics in per_seed]
        summary[metric] = confidence_interval(values)
    return summary


def ks_statistic(values, cdf):
    """Kolmogorov-Smirnov distance between a sample and a model CDF."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None
    worst = 0.0
    for i, value in enumerate(ordered):
        model = cdf(value)
        worst = max(worst, abs((i + 1) / n - model), abs(i / n - model))
    return worst


def demand_distribution_ks(run, profile):
    """KS distance between a user's realised demands and their fitted
    hyperexponential (sanity check on the workload generator)."""
    demands = [job.demand_seconds for job in run.jobs
               if job.user == profile.name]
    dist = profile.demand_dist

    def model_cdf(x):
        # Hyperexponential CDF: sum p_i (1 - exp(-x / m_i)).
        return sum(p * (1.0 - math.exp(-x / m)) for p, m in dist.branches)

    return ks_statistic(demands, model_cdf)


def relative_error(measured, target):
    """|measured - target| / target; ``None`` when target is falsy."""
    if not target:
        return None
    return abs(measured - target) / target


def shape_report(summary, targets):
    """Rows of (metric, target, mean, ±CI, rel. error) for reporting."""
    rows = []
    for metric, target in targets.items():
        mean, half = summary.get(metric, (None, None))
        rows.append((metric, target, mean, half,
                     relative_error(mean, target) if mean is not None
                     else None))
    return rows
