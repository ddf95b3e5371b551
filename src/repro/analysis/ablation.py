"""Ablation harness: replay one fixed workload under scheduler variants.

The ablation benchmarks compare design choices the paper calls out
(Up-Down vs FCFS, checkpointing vs Butler-style kills, the 5-minute
grace, placement throttling, ...).  For the comparison to mean anything
every variant must see the *same* workload and the *same* owner
behaviour, so:

* the workload is a trace exported from one baseline run and replayed
  verbatim into each variant;
* the cluster is rebuilt from the same master seed, so every owner
  arrival lands at the same simulated instant in every variant.

A variant is an :class:`~repro.analysis.experiment.ExperimentRun` built
with ``records``: the same run builder as the month, with the trace
replayed in place of the generated workload.  Only the scheduler
configuration/policy differs.
"""

from repro.analysis import paper
from repro.analysis.experiment import ExperimentRun
from repro.core.config import CondorConfig
from repro.metrics import jobs as job_metrics
from repro.sim import DAY
from repro.sim.randomness import RandomStream
from repro.workload.cluster import build_cluster_specs, default_user_homes
from repro.workload.traces import export_trace
from repro.workload.users import paper_profiles

#: Default ablation scale: big enough for stable shapes, small enough
#: that a bench suite of many variants stays quick.
ABLATION_DAYS = 8
ABLATION_JOB_SCALE = 0.25


_TRACE_CACHE = {}


def baseline_trace(seed=42, days=ABLATION_DAYS,
                   job_scale=ABLATION_JOB_SCALE, stations=paper.STATIONS,
                   saturate=True):
    """Export (and cache) the workload trace the ablations replay.

    The trace comes from a baseline :class:`ExperimentRun` with the same
    seed/cluster.  With ``saturate`` (the default) the heavy user floods
    the pool — unpaced submissions, work-conserving scheduler — because
    the ablated mechanisms (preemption, fairness, throttling) only
    matter under contention.
    """
    key = (seed, days, job_scale, stations, saturate)
    if key not in _TRACE_CACHE:
        specs = build_cluster_specs(RandomStream(seed).fork("cluster"),
                                    count=stations)
        homes = default_user_homes(specs)
        profiles = None
        config = None
        if saturate:
            # Heavy user floods: big budget, no daily pacing; scheduler
            # work-conserving (no per-station cap).
            profiles = paper_profiles(homes, days * DAY,
                                      job_scale=max(job_scale, 0.8))
            for profile in profiles:
                if profile.heavy:
                    profile.daily_quota = None
            config = CondorConfig()
        run = ExperimentRun(seed=seed, days=days, stations=stations,
                            job_scale=job_scale, profiles=profiles,
                            config=config).execute()
        _TRACE_CACHE[key] = export_trace(run.jobs)
    return _TRACE_CACHE[key]


def run_variant(records, config=None, policy=None, seed=42,
                days=ABLATION_DAYS, stations=paper.STATIONS):
    """Execute one variant over the trace and return the finished run.

    The config defaults to a plain :class:`CondorConfig`, not the
    month's per-station cap: the ablated mechanisms only matter under
    contention.
    """
    return ExperimentRun(seed=seed, days=days, stations=stations,
                         config=config or CondorConfig(), policy=policy,
                         records=records).execute()


def summarize(run):
    """The comparison metrics every ablation bench reports."""
    completed = run.completed_jobs
    return {
        "completed": len(completed),
        "completion_rate": (len(completed) / len(run.jobs)
                            if run.jobs else 0.0),
        "remote_hours": run.util.remote_hours(),
        "wasted_hours": sum(j.wasted_cpu_seconds for j in run.jobs) / 3600.0,
        "checkpoints": sum(j.checkpoint_count for j in run.jobs),
        "kills": sum(j.kill_count for j in run.jobs),
        "preemptions": sum(j.priority_preemptions for j in run.jobs),
        "avg_wait_all": job_metrics.average_wait_ratio(completed),
        "avg_wait_light": job_metrics.average_wait_ratio(run.light_jobs()),
        "avg_wait_heavy": job_metrics.average_wait_ratio(run.heavy_jobs()),
        "avg_leverage": job_metrics.average_leverage(completed),
    }
