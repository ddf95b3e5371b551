"""Fault injectors: random crash/recover processes and chaos schedules.

Two drivers share this module:

* :class:`CrashInjector` — the randomized process: every targeted
  station independently alternates seeded up/down times.  Good for long
  soak/property tests.
* :class:`ChaosInjector` — executes a declarative
  :class:`~repro.faults.schedule.ChaosSchedule`: each action's inject
  and clear are placed on the agenda at fixed instants and telemetered
  (``fault_injected`` / ``fault_cleared``) on the system's telemetry
  hub, so a chaos trace records exactly which fault was live when.
"""

from repro.sim.errors import SimulationError
from repro.telemetry import kinds


class ChaosContext:
    """What a fault action may touch: the system, its network, the clock.

    Also the telemetry outlet — actions that fire at data-dependent
    instants (crash-mid-transfer) emit through it so every fault the
    run experienced lands in the trace, not just the scheduled ones.
    """

    __slots__ = ("sim", "system", "net", "hub")

    def __init__(self, sim, system):
        self.sim = sim
        self.system = system
        self.net = system.network
        self.hub = system.telemetry

    def scheduler(self, name):
        return self.system.scheduler(name)

    def fault_injected(self, action, **extra):
        self._publish(kinds.FAULT_INJECTED, action, extra)

    def fault_cleared(self, action, **extra):
        self._publish(kinds.FAULT_CLEARED, action, extra)

    def _publish(self, kind, action, extra):
        payload = dict(action.describe())
        payload.update(extra)
        self.hub.emit(kind, fault=action.kind, **payload)


class ChaosInjector:
    """Runs a :class:`~repro.faults.schedule.ChaosSchedule` against a system.

    Deterministic by construction: the schedule's instants are fixed and
    the only randomness any action consumes comes from the simulation's
    own seeded streams, so chaos runs replay byte-identically.
    """

    def __init__(self, sim, system, schedule):
        self.sim = sim
        self.schedule = schedule
        self.ctx = ChaosContext(sim, system)
        #: Counters for diagnostics and tests.
        self.injected = 0
        self.cleared = 0
        self._started = False

    def start(self):
        """Place every action's inject/clear on the agenda.  Idempotent."""
        if self._started:
            return
        self._started = True
        for action in self.schedule:
            self.sim.schedule_at(action.at, self._inject, action)
            if action.duration is not None:
                self.sim.schedule_at(action.at + action.duration,
                                     self._clear, action)

    def _inject(self, action):
        action.inject(self.ctx)
        self.injected += 1
        self.ctx.fault_injected(action)

    def _clear(self, action):
        action.clear(self.ctx)
        self.cleared += 1
        self.ctx.fault_cleared(action)

    def __repr__(self):
        return (f"<ChaosInjector {self.schedule.name!r} "
                f"injected={self.injected} cleared={self.cleared}>")


class CrashInjector:
    """Randomly crashes and recovers stations' daemons during a run.

    Each targeted station independently alternates up-time drawn from
    ``uptime_dist`` and down-time from ``downtime_dist``.  The submit
    stations of active workloads are normally excluded — a dead home
    cannot receive its own jobs back (the paper does not address losing
    the submitting machine either).
    """

    def __init__(self, sim, system, stream, uptime_dist, downtime_dist,
                 exclude=()):
        self.sim = sim
        self.system = system
        self.stream = stream
        self.uptime_dist = uptime_dist
        self.downtime_dist = downtime_dist
        self.exclude = frozenset(exclude)
        self.crashes = 0
        self.recoveries = 0
        self._started = False

    def start(self):
        """Spawn one crash/recover process per non-excluded station."""
        if self._started:
            return
        self._started = True
        targets = [name for name in self.system.schedulers
                   if name not in self.exclude]
        if not targets:
            raise SimulationError("crash injector has no target stations")
        for name in targets:
            self.sim.spawn(self._run(name), name=f"faults:{name}")

    def _run(self, name):
        scheduler = self.system.schedulers[name]
        stream = self.stream.fork(f"faults.{name}")
        while True:
            yield self.uptime_dist.sample(stream)
            scheduler.crash()
            self.crashes += 1
            yield self.downtime_dist.sample(stream)
            scheduler.recover()
            self.recoveries += 1

    def __repr__(self):
        return (
            f"<CrashInjector crashes={self.crashes} "
            f"recoveries={self.recoveries}>"
        )
