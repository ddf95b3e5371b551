"""The chaos experiment: seeded fault schedules with recovery validation.

Each scenario runs a small cluster (one always-active home plus churny
hosts) under a named :class:`~repro.faults.ChaosSchedule` and validates
the paper's §2 fault-tolerance promise end to end:

* **zero lost jobs** — every submitted job completes exactly once
  (:class:`~repro.faults.NoLostJobsChecker`);
* **no corruption** — the full invariant suite is sampled every ten
  simulated minutes throughout the run;
* **byte-replayable** — the run's entire telemetry trace is canonical
  JSONL, and re-running the same schedule + seed reproduces it
  byte-for-byte (:func:`replay_identical`), so any chaos failure can be
  archived and re-examined deterministically.

Exposed on the command line as ``repro-condor chaos``.
"""

from repro.core import (
    CondorConfig,
    CondorSystem,
    InvariantChecker,
    Job,
    StationSpec,
    reset_job_ids,
)
from repro.faults import (
    ChaosInjector,
    ChaosSchedule,
    CorruptCheckpoint,
    CrashCoordinator,
    CrashMidTransfer,
    CrashPoolCoordinator,
    CrashStation,
    DiskFail,
    DiskPressure,
    LossBurst,
    NoLostJobsChecker,
    Partition,
    TornWrite,
)
from repro.machine import AlternatingOwner, AlwaysActiveOwner
from repro.metrics.timeseries import PeriodicSampler
from repro.net import Network
from repro.sim import DAY, HOUR, MINUTE, RandomStream, Simulation
from repro.sim.errors import SimulationError
from repro.sim.randomness import Exponential, LogNormal, Uniform
from repro.telemetry.trace import encode_event


def _station_crashes():
    return ChaosSchedule(
        "station-crashes",
        [
            CrashStation("h1", at=1 * HOUR, duration=30 * MINUTE),
            CrashStation("h2", at=2 * HOUR, duration=45 * MINUTE),
            CrashStation("h3", at=5 * HOUR, duration=20 * MINUTE),
            CrashStation("h1", at=9 * HOUR, duration=25 * MINUTE),
        ],
        description="staggered workstation crashes with reboots",
    )


def _coordinator_outage():
    return ChaosSchedule(
        "coordinator-outage",
        [
            CrashCoordinator(at=90 * MINUTE, duration=30 * MINUTE),
            CrashCoordinator(at=6 * HOUR, duration=45 * MINUTE,
                             failover_to="h0"),
        ],
        description="coordinator dies twice; second restart fails over",
    )


def _partition():
    return ChaosSchedule(
        "partition",
        [
            Partition(("h0", "h1"), at=75 * MINUTE, duration=25 * MINUTE),
            Partition(("h2",), at=4 * HOUR, duration=40 * MINUTE),
        ],
        description="islands cut off from home and the coordinator",
    )


def _loss_burst():
    return ChaosSchedule(
        "loss-burst",
        [
            LossBurst(0.25, at=1 * HOUR, duration=30 * MINUTE),
            LossBurst(0.40, at=5 * HOUR, duration=20 * MINUTE),
        ],
        description="message-loss storms on the departmental LAN",
    )


def _crash_mid_transfer():
    return ChaosSchedule(
        "crash-mid-transfer",
        [
            CrashMidTransfer(at=0.0, duration=12 * HOUR,
                             downtime=20 * MINUTE, count=2),
        ],
        description="endpoints die in the middle of bulk transfers",
    )


def _kitchen_sink():
    return ChaosSchedule(
        "kitchen-sink",
        [
            CrashStation("h2", at=1 * HOUR, duration=25 * MINUTE),
            LossBurst(0.2, at=2 * HOUR, duration=20 * MINUTE),
            CrashCoordinator(at=3 * HOUR, duration=30 * MINUTE),
            Partition(("h0", "h1"), at=5 * HOUR, duration=20 * MINUTE),
            CrashMidTransfer(at=6 * HOUR, duration=6 * HOUR,
                             downtime=15 * MINUTE, count=1),
        ],
        description="every fault class in one run",
    )


def _pool_coordinator_crash():
    # Federated K=2 over the chaos cluster: pool 0 = {home, h0..h2}
    # carries all the demand, pool 1 = {h3..h5} is pure surplus, so
    # cross-pool leases are live for most of the run.  First the
    # *lender* dies mid-lease (its on-loan book and reclaim timers must
    # survive the outage), then the *borrower* dies and fails over to
    # h0 (it must drop and return everything it was borrowing while the
    # lender's reclaim backstop covers lost returns).
    return ChaosSchedule(
        "pool-coordinator-crash",
        [
            CrashPoolCoordinator(1, at=2 * HOUR, duration=30 * MINUTE),
            CrashPoolCoordinator(0, at=6 * HOUR, duration=30 * MINUTE,
                                 failover_to="h0"),
        ],
        description="lender then borrower pool coordinator die mid-lease; "
                    "failover reuses the epoch/lease recovery machinery",
    )


def _matchmaker_partition():
    # Same K=2 surplus layout.  The matchmaker is cut off from both pool
    # coordinators: adverts and lease requests drop on the floor until
    # the heal, then flocking resumes from the next changed advert.
    return ChaosSchedule(
        "matchmaker-partition",
        [
            Partition(("matchmaker",), at=90 * MINUTE + 5,
                      duration=2 * HOUR),
        ],
        description="matchmaker isolated for two hours; leases stall, "
                    "then resume",
    )


def _corrupt_restore():
    return ChaosSchedule(
        "corrupt-restore",
        [
            CorruptCheckpoint("home", at=2 * HOUR),
            CorruptCheckpoint("home", at=5 * HOUR),
            CorruptCheckpoint("home", at=9 * HOUR, newest=2),
        ],
        description="stored images rot on disk; verify-on-restore "
                    "falls back a generation",
    )


def _torn_write():
    return ChaosSchedule(
        "torn-write",
        [
            TornWrite("home", at=1 * HOUR, duration=6 * HOUR, count=3),
            TornWrite("home", at=10 * HOUR, duration=2 * HOUR, count=1),
        ],
        description="checkpoint writes tear mid-copy; two-phase commit "
                    "keeps the previous generation",
    )


def _disk_chaos():
    return ChaosSchedule(
        "disk-chaos",
        [
            DiskPressure("home", at=2 * HOUR, free_mb=0.2,
                         duration=90 * MINUTE),
            DiskFail("home", at=6 * HOUR, duration=45 * MINUTE),
        ],
        description="the home disk fills up, then fails outright",
    )


#: Named schedule builders — fresh action instances per call, because
#: actions carry per-run state (armed observers, restored loss rates).
SCHEDULES = {
    "station-crashes": _station_crashes,
    "coordinator-outage": _coordinator_outage,
    "partition": _partition,
    "loss-burst": _loss_burst,
    "crash-mid-transfer": _crash_mid_transfer,
    "kitchen-sink": _kitchen_sink,
    "pool-coordinator-crash": _pool_coordinator_crash,
    "matchmaker-partition": _matchmaker_partition,
    "corrupt-restore": _corrupt_restore,
    "torn-write": _torn_write,
    "disk-chaos": _disk_chaos,
}

#: Schedule groups runnable as ``repro-condor chaos --suite NAME``.
SUITES = {
    "network": ("station-crashes", "coordinator-outage", "partition",
                "loss-burst", "crash-mid-transfer", "kitchen-sink"),
    "storage": ("corrupt-restore", "torn-write", "disk-chaos"),
    "federation": ("pool-coordinator-crash", "matchmaker-partition"),
}

_FEDERATED_K2 = {"federation_pools": 2}

#: Per-scenario CondorConfig overrides, applied when the caller passes
#: no explicit config.  corrupt-restore keeps two generations so a
#: rotted newest image falls back instead of restarting from zero.
SCENARIO_CONFIGS = {
    "corrupt-restore": {"checkpoint_generations": 2},
    "pool-coordinator-crash": _FEDERATED_K2,
    "matchmaker-partition": _FEDERATED_K2,
}


class ChaosRun:
    """Outcome of one chaos scenario (see :func:`run_chaos`)."""

    def __init__(self, schedule, system, jobs, injector, invariants,
                 no_lost, trace_lines, horizon):
        self.schedule = schedule
        self.system = system
        self.jobs = jobs
        self.injector = injector
        self.invariants = invariants
        self.no_lost = no_lost
        #: Canonical JSONL lines of the full telemetry stream.
        self.trace_lines = trace_lines
        self.horizon = horizon

    @property
    def trace_bytes(self):
        return ("\n".join(self.trace_lines) + "\n").encode("utf-8")

    def headline(self):
        jobs = self.jobs
        completed = sum(1 for job in jobs if job.finished)
        return {
            "schedule": self.schedule.name,
            "jobs": len(jobs),
            "completed": completed,
            "faults_injected": self.injector.injected,
            "faults_cleared": self.injector.cleared,
            "transfers_failed": self.system.network.transfers_failed,
            "messages_dropped": self.system.network.messages_dropped,
            "wasted_hours": sum(j.wasted_cpu_seconds for j in jobs) / HOUR,
            "invariant_checks": self.invariants.checks_passed,
            "trace_events": len(self.trace_lines),
        }


def run_chaos(schedule_name, seed=7, stations=6, n_jobs=8,
              horizon=4 * DAY, config=None, strict=True):
    """Run one named chaos scenario; validate and return a :class:`ChaosRun`.

    With ``strict`` (the default) the run raises on any violated
    invariant or lost/duplicated job.  Everything inside is driven by
    ``seed`` — the same call is byte-reproducible.
    """
    try:
        build_schedule = SCHEDULES[schedule_name]
    except KeyError:
        known = ", ".join(sorted(SCHEDULES))
        raise SimulationError(
            f"unknown chaos schedule {schedule_name!r} (known: {known})"
        ) from None
    # Job ids (and the names derived from them) are process-global; pin
    # them so the trace bytes depend only on (schedule, seed).
    reset_job_ids()
    sim = Simulation()
    stream = RandomStream(seed, "chaos")
    network = Network(sim, loss_stream=stream.fork("net.loss"))
    config = config or CondorConfig(
        periodic_checkpoint_interval=15 * MINUTE,
        **SCENARIO_CONFIGS.get(schedule_name, {}),
    )
    specs = [StationSpec("home", owner_model=AlwaysActiveOwner(),
                         disk_mb=500.0)]
    for i in range(stations):
        specs.append(StationSpec(
            f"h{i}",
            owner_model=AlternatingOwner(
                Exponential(2 * HOUR), LogNormal(30 * MINUTE, 1.0),
                stream.fork(f"h{i}.owner"),
            ),
        ))
    system = CondorSystem(sim, specs, config=config, network=network,
                          coordinator_host="home")
    trace_lines = []
    system.telemetry.subscribe_all(
        lambda event: trace_lines.append(encode_event(event))
    )
    invariants = InvariantChecker(system)
    no_lost = NoLostJobsChecker(system.telemetry)
    jobs = []
    demand = Uniform(10 * MINUTE, 6 * HOUR)
    workload_stream = stream.fork("jobs")
    for i in range(n_jobs):
        job = Job(user=f"user-{i % 3}", home="home",
                  demand_seconds=demand.sample(workload_stream),
                  syscall_rate=workload_stream.uniform(0.0, 1.0))
        system.submit(job)
        jobs.append(job)
    schedule = build_schedule()
    injector = ChaosInjector(sim, system, schedule)
    sampler = PeriodicSampler(sim, invariants.check, interval=10 * MINUTE,
                              name="invariants")
    system.start()
    injector.start()
    sampler.start()
    sim.run(until=horizon)
    system.finalize()
    run = ChaosRun(schedule, system, jobs, injector, invariants, no_lost,
                   trace_lines, horizon)
    if strict:
        invariants.check_final()
        no_lost.check_final()
        if injector.injected == 0:
            raise SimulationError(
                f"schedule {schedule.name!r} injected no faults"
            )
    return run


def replay_identical(schedule_name, seed=7, **kwargs):
    """Run the scenario twice; True iff the traces are byte-identical."""
    first = run_chaos(schedule_name, seed=seed, **kwargs)
    second = run_chaos(schedule_name, seed=seed, **kwargs)
    return first.trace_bytes == second.trace_bytes, first


def run_suite(seed=7, schedules=None, **kwargs):
    """Run every (or the named) schedule; returns ``{name: ChaosRun}``."""
    names = list(schedules) if schedules else sorted(SCHEDULES)
    return {name: run_chaos(name, seed=seed, **kwargs) for name in names}
