"""The canonical experiment: one simulated month of the 23-station cluster.

:func:`run_month` assembles the full stack — cluster, Condor system,
Table-1 workload, monitors — runs it, and returns an
:class:`ExperimentRun` from which every table and figure of the paper is
computed.  A process-wide cache lets the per-exhibit benchmarks share one
simulated month instead of re-simulating it nine times.

With ``records`` (an exported workload trace) the same class replays
those jobs instead of generating Table 1's users: a replay is how the
ablation studies (:mod:`repro.analysis.ablation`) compare variants.
"""

import dataclasses

from repro.analysis import paper
from repro.core.condor import CondorSystem
from repro.core.config import CondorConfig
from repro.metrics.queues import QueueLengthMonitor
from repro.metrics.utilization import UtilizationMonitor
from repro.sim import DAY, Simulation
from repro.sim.randomness import RandomStream
from repro.telemetry import TraceRecorder
from repro.workload.cluster import build_cluster_specs, default_user_homes
from repro.workload.generator import WorkloadGenerator
from repro.workload.users import paper_profiles

#: The user who floods the pool (Table 1's ``A``); in a replayed
#: workload every other user counts as light.
HEAVY_USER = "A"


class ExperimentRun:
    """A configured (and, after :meth:`execute`, completed) experiment."""

    def __init__(self, seed=42, days=paper.OBSERVATION_DAYS,
                 stations=paper.STATIONS, config=None, policy=None,
                 job_scale=1.0, disk_mb=None, profiles=None,
                 busyness_mix=None, network=None, trace_path=None,
                 pools=None, records=None):
        self.seed = seed
        self.days = days
        self.horizon = days * DAY
        self.sim = Simulation()
        self.stream = RandomStream(seed)

        cluster_kwargs = {"count": stations, "disk_mb": disk_mb}
        if busyness_mix is not None:
            cluster_kwargs["busyness_mix"] = busyness_mix
        self.specs = build_cluster_specs(
            self.stream.fork("cluster"), **cluster_kwargs
        )
        # The deployed system's per-station concurrency was effectively
        # ~6-7 machines (Table 1: the heavy user consumed 4278 h over a
        # 720 h month while 30+ jobs queued); a work-conserving default
        # would drain the backlog in days and flatten Figs. 3/7.
        self.config = config or CondorConfig(max_machines_per_station=6)
        if pools is not None:
            # Federate the pool: K per-pool coordinators under the
            # matchmaker.
            self.config = dataclasses.replace(self.config,
                                              federation_pools=pools)
        self.system = CondorSystem(
            self.sim, self.specs, config=self.config, policy=policy,
            network=network,
        )
        # The workload source: Table 1's users, or a recorded trace
        # replayed verbatim (``profiles`` is then ``None``).
        if records is None:
            if profiles is None:
                profiles = paper_profiles(default_user_homes(self.specs),
                                          self.horizon, job_scale=job_scale)
            self.generator = WorkloadGenerator(
                self.sim, self.system, profiles,
                self.stream.fork("workload"), horizon=self.horizon,
            )
            self.light_users = self.generator.light_user_names()
        else:
            from repro.workload.traces import TraceReplayer

            profiles = None
            self.generator = TraceReplayer(self.sim, self.system, records)
            self.light_users = frozenset(
                {record["user"] for record in records} - {HEAVY_USER})
        self.profiles = profiles
        #: The system's telemetry spine and metric instruments.
        self.telemetry = self.system.telemetry
        self.metrics = self.system.metrics
        self.trace_path = trace_path
        self._recorder = (TraceRecorder(self.telemetry, trace_path)
                          if trace_path else None)
        # The monitor attaches to the ledgers, not the hub, so
        # ``wants(ledger_entry)`` stays false in unrecorded runs and the
        # ledgers skip building ~1.6M event objects per simulated day at
        # 50k stations.  A trace recorder subscribes the hub wholesale
        # and still captures every entry.
        self.util = UtilizationMonitor(self.system.stations.values())
        self.queues = QueueLengthMonitor(
            self.sim, self.system, self.light_users,
            registry=self.metrics,
        )
        self.executed = False

    def execute(self):
        """Run the experiment to its horizon.  Idempotent."""
        if self.executed:
            return self
        self.system.start()
        self.generator.start()
        self.queues.start()
        self.sim.run(until=self.horizon)
        self.system.finalize()
        if self._recorder is not None:
            self._recorder.close()
        self.executed = True
        return self

    # ------------------------------------------------------------------
    # convenience accessors used by the exhibit functions

    @property
    def jobs(self):
        """All successfully submitted jobs."""
        return self.generator.all_jobs()

    @property
    def completed_jobs(self):
        return [job for job in self.jobs if job.finished]

    def light_jobs(self, only_completed=True):
        jobs = (self.completed_jobs if only_completed else self.jobs)
        return [job for job in jobs if job.user in self.light_users]

    def heavy_jobs(self, only_completed=True):
        jobs = (self.completed_jobs if only_completed else self.jobs)
        return [job for job in jobs if job.user not in self.light_users]

    @property
    def hours(self):
        return int(self.horizon // 3600)

    def __repr__(self):
        state = "executed" if self.executed else "pending"
        return (
            f"<ExperimentRun seed={self.seed} days={self.days} "
            f"stations={len(self.specs)} {state}>"
        )


def run_month(seed=42, **kwargs):
    """Build and execute a month experiment (uncached)."""
    return ExperimentRun(seed=seed, **kwargs).execute()


_CACHE = {}


class _Uncacheable(Exception):
    """A run kwarg whose identity can't be captured by value."""


def _freeze(value):
    """A hashable, *by-value* key component for one run kwarg.

    Dataclass instances (``CondorConfig``, profiles) are flattened to
    their field values — two configs that compare equal share a cache
    entry, and a config mutated after an earlier call no longer aliases
    the entry made under its old field values.  Values we can't freeze
    by value (live network objects, open files) raise
    :class:`_Uncacheable` and the run bypasses the cache entirely —
    a miss is safe, a false hit returns the wrong experiment.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__qualname__,) + tuple(
            (f.name, _freeze(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        )
    if isinstance(value, dict):
        return tuple(sorted(
            (k, _freeze(v)) for k, v in value.items()
        ))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(_freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(_freeze(v) for v in value)
    try:
        hash(value)
    except TypeError:
        raise _Uncacheable(repr(value)) from None
    return value


def cached_month_run(seed=42, **kwargs):
    """Process-wide cached :func:`run_month`.

    The month simulation takes seconds; the nine exhibit benchmarks and
    the integration tests share one instance per parameter set.  The
    cache key freezes dataclass kwargs (notably ``config``) by field
    value; kwargs with no by-value identity skip the cache.
    """
    try:
        key = (seed, tuple(
            (name, _freeze(value)) for name, value in sorted(kwargs.items())
        ))
    except _Uncacheable:
        return run_month(seed=seed, **kwargs)
    if key not in _CACHE:
        _CACHE[key] = run_month(seed=seed, **kwargs)
    return _CACHE[key]


def clear_cache():
    """Drop cached runs (test isolation)."""
    _CACHE.clear()
