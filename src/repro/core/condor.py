"""The CondorSystem facade: wire a whole cluster together.

This is the library's main entry point::

    sim = Simulation()
    system = CondorSystem(sim, specs=[StationSpec("ws-01"), ...])
    system.start()
    system.submit(Job(user="A", home="ws-01", demand_seconds=6 * HOUR))
    sim.run(until=30 * DAY)

Everything else (policies, owner models, configs) plugs in through the
constructor.
"""

import copy

from repro.core.config import CondorConfig
from repro.core.coordinator import PollingCoordinator
from repro.core.federation import (
    Matchmaker,
    PoolCoordinator,
    federation_pools,
    pool_name,
)
from repro.core.job import LiveJobs
from repro.core.local_scheduler import LocalScheduler
from repro.core.reservations import ReservationBook
from repro.core.updown import UpDownPolicy
from repro.machine import Workstation
from repro.net import Network
from repro.sim import HOUR
from repro.sim.errors import SimulationError
from repro.telemetry import TelemetryHub


class StationSpec:
    """Declarative description of one workstation in the cluster."""

    __slots__ = ("name", "owner_model", "disk_mb", "cpu_speed", "arch")

    def __init__(self, name, owner_model=None, disk_mb=None, cpu_speed=1.0,
                 arch="vax"):
        self.name = name
        self.owner_model = owner_model
        self.disk_mb = disk_mb
        self.cpu_speed = cpu_speed
        self.arch = arch

    def __repr__(self):
        return f"StationSpec({self.name!r})"


class CondorSystem:
    """A complete Condor installation over a set of workstations."""

    def __init__(self, sim, specs, config=None, policy=None, network=None,
                 coordinator_host=None):
        if not specs:
            raise SimulationError("CondorSystem needs at least one station")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate station names in {names}")
        self.sim = sim
        self.config = config or CondorConfig()
        #: The run's telemetry spine: every lifecycle event and ledger
        #: entry flows through it; trace recorders subscribe here.
        self.telemetry = TelemetryHub()
        self.telemetry.bind_clock(lambda: sim.now)
        #: The run's metric instruments (counters/gauges/histograms).
        self.metrics = self.telemetry.metrics
        self.network = network or Network(sim)
        self.policy = policy or UpDownPolicy()

        self.stations = {}
        self.schedulers = {}
        for spec in specs:
            kwargs = {"owner_model": spec.owner_model,
                      "cpu_speed": spec.cpu_speed, "arch": spec.arch}
            if spec.disk_mb is not None:
                kwargs["disk_mb"] = spec.disk_mb
            station = Workstation(sim, spec.name, **kwargs)
            station.ledger.attach_hub(self.telemetry)
            self.stations[spec.name] = station
            self.schedulers[spec.name] = LocalScheduler(
                sim, self.network, station, self.telemetry, self.config
            )

        host_name = coordinator_host or names[0]
        if host_name not in self.stations:
            raise SimulationError(f"unknown coordinator host {host_name!r}")
        #: Advance capacity reservations (future work §5(3)); unavailable
        #: under federation (a reservation would need matchmaker
        #: mediation).
        self.reservations = (ReservationBook(sim)
                             if self.config.federation_pools == 1 else None)
        #: The matchmaker daemon (more than one pool), else None.
        self.matchmaker = None
        self.coordinators = self._build_pools(names, host_name)
        #: Pool 0's coordinator (the only one with a single pool) —
        #: kept as an attribute for reports, sweeps and fault schedules.
        self.coordinator = self.coordinators[0]
        #: All jobs ever submitted through this system, in order
        #: (append-only: ``_live`` reads it incrementally).
        self.jobs = []
        self._live = LiveJobs(self.jobs)
        #: All gang (parallel) jobs submitted, in order.
        self.gangs = []
        self._started = False

    def _build_pools(self, names, host_name):
        """Construct the pool coordinators (and, above one pool, the
        matchmaker).  One pool is one coordinator named ``"coordinator"``
        holding the whole cluster and the reservation book — under
        ``"poll"``, the 1988 reference :class:`PollingCoordinator`."""
        if self.config.coordinator_mode == "poll":
            return [PollingCoordinator(
                self.sim, self.network, names, self.policy, self.telemetry,
                self.config, host_station=self.stations[host_name],
                reservations=self.reservations,
            )]
        n_pools = self.config.federation_pools
        pools = federation_pools(names, n_pools)
        matchmaker_name = "matchmaker" if n_pools > 1 else None
        coordinators = []
        for k, members in enumerate(pools):
            pool_host = host_name if host_name in members else members[0]
            # Each pool runs Up-Down *locally* over its own stations; a
            # shared policy instance would append K decay-history entries
            # per cycle.  With one pool the prototype is used directly.
            pool_policy = (self.policy if n_pools == 1
                           else copy.deepcopy(self.policy))
            coordinators.append(PoolCoordinator(
                self.sim, self.network, members, pool_policy, self.telemetry,
                self.config, pool_index=k,
                host_station=self.stations[pool_host],
                name=pool_name(k, n_pools),
                matchmaker_name=matchmaker_name,
                reservations=self.reservations,
            ))
            for station in members:
                self.schedulers[station].coordinator_name = (
                    pool_name(k, n_pools))
        if matchmaker_name is not None:
            self.matchmaker = Matchmaker(
                self.sim, self.network, self.telemetry, self.config,
                [c.name for c in coordinators],
            )
        return coordinators

    def start(self):
        """Start every daemon.  Idempotent."""
        if self._started:
            return
        self._started = True
        for scheduler in self.schedulers.values():
            scheduler.start()
        if self.config.scheduler_daemon_load > 0:
            self.sim.spawn(self._daemon_ledger(), name="daemon-ledger")
        for coordinator in self.coordinators:
            coordinator.start()
        if self.matchmaker is not None:
            self.matchmaker.start()

    def _daemon_ledger(self):
        # One hourly loop charges daemon overhead for every scheduler, in
        # registration order: one agenda event per hour rather than one
        # per station.  At 50k stations that is 1.2M fewer heap
        # operations a day.
        schedulers = list(self.schedulers.values())
        while True:
            yield HOUR
            for scheduler in schedulers:
                scheduler.charge_daemon_overhead()

    def submit(self, job):
        """Submit a job at its home station's local scheduler.

        Raises :class:`~repro.core.errors.SubmissionRefused` if the home
        disk cannot hold the job's image; the job is not recorded.
        """
        scheduler = self.scheduler(job.home)
        scheduler.submit(job)
        self.jobs.append(job)

    def submit_gang(self, gang):
        """Submit a parallel program for coordinated launch (§5(2)).

        Raises :class:`~repro.core.errors.SubmissionRefused` if the home
        disk cannot hold all member images.
        """
        scheduler = self.scheduler(gang.home)
        scheduler.submit_gang(gang)
        self.gangs.append(gang)
        self.jobs.extend(gang.members)

    def scheduler(self, name):
        try:
            return self.schedulers[name]
        except KeyError:
            raise SimulationError(f"unknown station {name!r}") from None

    def station(self, name):
        try:
            return self.stations[name]
        except KeyError:
            raise SimulationError(f"unknown station {name!r}") from None

    def run(self, until):
        """Start (if needed) and run the simulation to ``until``."""
        self.start()
        self.sim.run(until=until)

    # ------------------------------------------------------------------
    # cluster-wide queries used by metrics and tests

    def queue_length(self, users=None):
        """Jobs currently in the system (pending + placed), optionally
        restricted to a set of user names — the paper's Fig. 3/7 counts."""
        live = self._live.current()
        if users is None:
            return len(live)
        return sum(1 for job in live if job.user in users)

    def completed_jobs(self):
        return [job for job in self.jobs if job.finished]

    def finalize(self):
        """Close all open ledger intervals (call after the final run)."""
        for station in self.stations.values():
            station.ledger.close_all()

    def __repr__(self):
        return (
            f"<CondorSystem stations={len(self.stations)} "
            f"jobs={len(self.jobs)} policy={self.policy.name}>"
        )
