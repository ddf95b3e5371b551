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

Only the scheduler configuration/policy differs.
"""

from repro.analysis import paper
from repro.core.condor import CondorSystem
from repro.core.config import CondorConfig
from repro.metrics.queues import QueueLengthMonitor
from repro.metrics.utilization import UtilizationMonitor
from repro.sim import DAY, Simulation
from repro.sim.randomness import RandomStream
from repro.workload.cluster import build_cluster_specs
from repro.workload.traces import TraceReplayer, export_trace

#: Default ablation scale: big enough for stable shapes, small enough
#: that a bench suite of many variants stays quick.
ABLATION_DAYS = 8
ABLATION_JOB_SCALE = 0.25
HEAVY_USER = "A"


class ReplayRun:
    """One scheduler variant executing a fixed workload trace."""

    def __init__(self, records, seed=42, days=ABLATION_DAYS,
                 stations=paper.STATIONS, config=None, policy=None):
        self.records = records
        self.seed = seed
        self.days = days
        self.horizon = days * DAY
        self.sim = Simulation()
        stream = RandomStream(seed)
        self.specs = build_cluster_specs(stream.fork("cluster"),
                                         count=stations)
        self.config = config or CondorConfig()
        self.system = CondorSystem(self.sim, self.specs, config=self.config,
                                   policy=policy)
        self.replayer = TraceReplayer(self.sim, self.system, records)
        self.util = UtilizationMonitor(self.system.stations.values())
        users = {record["user"] for record in records}
        self.light_users = frozenset(users - {HEAVY_USER})
        self.queues = QueueLengthMonitor(self.sim, self.system,
                                         self.light_users)
        self.executed = False

    def execute(self):
        if self.executed:
            return self
        self.system.start()
        self.replayer.start()
        self.queues.start()
        self.sim.run(until=self.horizon)
        self.system.finalize()
        self.executed = True
        return self

    @property
    def jobs(self):
        return self.replayer.jobs

    @property
    def completed_jobs(self):
        return [job for job in self.jobs if job.finished]

    def light_jobs(self):
        return [job for job in self.completed_jobs
                if job.user in self.light_users]

    def heavy_jobs(self):
        return [job for job in self.completed_jobs
                if job.user not in self.light_users]

    def __repr__(self):
        return (
            f"<ReplayRun days={self.days} jobs={len(self.records)} "
            f"policy={self.system.policy.name}>"
        )


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
        from repro.analysis.experiment import ExperimentRun
        from repro.sim import DAY as _DAY
        from repro.workload.cluster import (
            build_cluster_specs as _specs_builder,
            default_user_homes,
        )
        from repro.workload.users import paper_profiles
        from repro.sim.randomness import RandomStream as _RS

        specs = _specs_builder(_RS(seed).fork("cluster"), count=stations)
        homes = default_user_homes(specs)
        profiles = None
        config = None
        if saturate:
            # Heavy user floods: big budget, no daily pacing; scheduler
            # work-conserving (no per-station cap).
            profiles = paper_profiles(homes, days * _DAY,
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
    """Execute one variant over the trace and return the ReplayRun."""
    return ReplayRun(records, seed=seed, days=days, stations=stations,
                     config=config, policy=policy).execute()


def summarize(run):
    """The comparison metrics every ablation bench reports."""
    from repro.metrics import jobs as job_metrics

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
