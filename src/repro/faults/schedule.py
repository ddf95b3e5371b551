"""Declarative, seed-deterministic chaos schedules.

A :class:`ChaosSchedule` is a named list of :class:`FaultAction`\\ s with
fixed injection times — station crashes, a coordinator outage with
failover, network partitions, message-loss bursts, and crashes timed to
land mid-transfer.  The schedule itself contains **no randomness**: all
nondeterminism in a chaos run comes from the simulation's seeded streams
(owner behaviour, workload, loss draws, retry jitter), so the same
schedule + seed replays byte-identically — the property the chaos suite
asserts on every scenario.

Actions are two-phase: :meth:`FaultAction.inject` at ``at`` and, when a
``duration`` is given, :meth:`FaultAction.clear` at ``at + duration``.
The :class:`~repro.faults.injector.ChaosInjector` drives both phases and
telemeters them (``fault_injected`` / ``fault_cleared``), so a trace
shows exactly which fault was live when a job bounced.

Action instances carry per-run state (the restored loss rate, the armed
transfer observer); build a fresh schedule per run — the
:data:`SCHEDULES` registry in :mod:`repro.analysis.chaos` does.
"""

from repro.sim.errors import SimulationError


class FaultAction:
    """One fault with an injection time and an optional repair time."""

    #: Telemetry label; subclasses override.
    kind = "fault"

    def __init__(self, at, duration=None):
        if at < 0:
            raise SimulationError(f"fault time {at} < 0")
        if duration is not None and duration <= 0:
            raise SimulationError(f"fault duration {duration} <= 0")
        self.at = float(at)
        self.duration = None if duration is None else float(duration)

    def inject(self, ctx):
        """Introduce the fault (``ctx`` is a ChaosContext)."""
        raise NotImplementedError

    def clear(self, ctx):
        """Repair the fault; only called when ``duration`` was given."""

    def describe(self):
        """Primitive-only payload extras for the telemetry events."""
        return {}

    def __repr__(self):
        window = (f"[{self.at:.0f}, {self.at + self.duration:.0f}]"
                  if self.duration is not None else f"at {self.at:.0f}")
        return f"<{type(self).__name__} {self.kind} {window}>"


class CrashStation(FaultAction):
    """Take one workstation down at ``at``; reboot it after ``duration``."""

    kind = "station_crash"

    def __init__(self, station, at, duration):
        if duration is None:
            raise SimulationError("CrashStation needs a duration")
        super().__init__(at, duration)
        self.station = station

    def inject(self, ctx):
        ctx.scheduler(self.station).crash()

    def clear(self, ctx):
        ctx.scheduler(self.station).recover()

    def describe(self):
        return {"station": self.station}


class CrashCoordinator(FaultAction):
    """Kill the coordinator; restart it after ``duration``.

    With ``failover_to`` given the restart happens on that station
    (§2.1's "the coordinator is cheap to move"); otherwise it reboots in
    place.  Either way the restarted coordinator's view starts empty and
    is rebuilt by probing — the delta-mode recovery path under test.
    """

    kind = "coordinator_crash"

    def __init__(self, at, duration, failover_to=None):
        if duration is None:
            raise SimulationError("CrashCoordinator needs a duration")
        super().__init__(at, duration)
        self.failover_to = failover_to

    def inject(self, ctx):
        ctx.system.coordinator.crash()

    def clear(self, ctx):
        coordinator = ctx.system.coordinator
        station = (ctx.system.stations[self.failover_to]
                   if self.failover_to is not None
                   else coordinator.host_station)
        coordinator.recover_at(station)

    def describe(self):
        return {"failover_to": self.failover_to or ""}


class CrashPoolCoordinator(FaultAction):
    """Kill one *pool* coordinator in a federated run; restart after
    ``duration``.

    Exercises the federation crash story: a crashed **lender** keeps its
    on-loan book and its reclaim timers re-arm until it is back; a
    crashed **borrower** rebuilds its view by probing and sends
    state-less returns for everything it was borrowing, while the
    lender's reclaim backstop covers returns lost in flight.  With
    ``failover_to`` the restart moves to that station (which must belong
    to the pool); otherwise the coordinator reboots in place.
    """

    kind = "pool_coordinator_crash"

    def __init__(self, pool, at, duration, failover_to=None):
        if duration is None:
            raise SimulationError("CrashPoolCoordinator needs a duration")
        if pool < 0:
            raise SimulationError(f"bad pool index {pool}")
        super().__init__(at, duration)
        self.pool = int(pool)
        self.failover_to = failover_to

    def _coordinator(self, ctx):
        coordinators = ctx.system.coordinators
        try:
            return coordinators[self.pool]
        except IndexError:
            raise SimulationError(
                f"pool {self.pool}'s coordinator is not here: this "
                f"system holds {len(coordinators)} pool coordinator(s)"
            ) from None

    def inject(self, ctx):
        self._coordinator(ctx).crash()

    def clear(self, ctx):
        coordinator = self._coordinator(ctx)
        station = (ctx.system.stations[self.failover_to]
                   if self.failover_to is not None
                   else coordinator.host_station)
        coordinator.recover_at(station)

    def describe(self):
        return {"pool": self.pool, "failover_to": self.failover_to or ""}


class Partition(FaultAction):
    """Cut ``island`` off from the rest of the LAN; heal after ``duration``."""

    kind = "partition"

    def __init__(self, island, at, duration):
        if duration is None:
            raise SimulationError("Partition needs a duration")
        super().__init__(at, duration)
        self.island = tuple(island)
        if not self.island:
            raise SimulationError("partition island is empty")

    def inject(self, ctx):
        ctx.net.partition(self.island)

    def clear(self, ctx):
        ctx.net.heal()

    def describe(self):
        return {"island": sorted(self.island)}


class LossBurst(FaultAction):
    """Raise the message-loss probability for a window, then restore it."""

    kind = "loss_burst"

    def __init__(self, probability, at, duration):
        if duration is None:
            raise SimulationError("LossBurst needs a duration")
        if not 0.0 < probability <= 1.0:
            raise SimulationError(f"bad burst probability {probability}")
        super().__init__(at, duration)
        self.probability = float(probability)
        self._restore = 0.0

    def inject(self, ctx):
        self._restore = ctx.net.loss_probability
        ctx.net.set_loss(self.probability)

    def clear(self, ctx):
        ctx.net.set_loss(self._restore)

    def describe(self):
        return {"probability": self.probability}


class CrashMidTransfer(FaultAction):
    """Crash a station in the middle of its next bulk transfer(s).

    Arms a transfer observer at ``at`` and disarms it at
    ``at + duration``.  For each of the first ``count`` transfers issued
    in that window touching an eligible endpoint, the endpoint is crashed
    halfway through the copy (so the abort path — failure callback + NIC
    release — is exercised, not the fail-fast path) and rebooted
    ``downtime`` seconds later.

    ``station`` restricts the trigger to one endpoint; ``exclude`` names
    are never crashed (the workload's home by default — the paper does
    not address losing the submitting machine).
    """

    kind = "crash_mid_transfer"

    def __init__(self, at, duration, station=None, downtime=600.0,
                 count=1, exclude=("home",)):
        if duration is None:
            raise SimulationError("CrashMidTransfer needs a duration")
        if downtime <= 0 or count < 1:
            raise SimulationError(
                f"bad CrashMidTransfer(downtime={downtime}, count={count})"
            )
        super().__init__(at, duration)
        self.station = station
        self.downtime = float(downtime)
        self.count = int(count)
        self.exclude = frozenset(exclude)
        self.crashes = 0
        self._observer = None

    def inject(self, ctx):
        def observe(record):
            if self.crashes >= self.count:
                return
            target = self._pick_target(ctx, record)
            if target is None:
                return
            self.crashes += 1
            midpoint = (max(record.start, ctx.sim.now) + record.finish) / 2.0
            ctx.sim.schedule_at(max(midpoint, ctx.sim.now),
                                self._crash, ctx, target)

        self._observer = observe
        ctx.net.add_transfer_observer(observe)

    def _pick_target(self, ctx, record):
        for name in (record.dst, record.src):
            if name in self.exclude:
                continue
            if self.station is not None and name != self.station:
                continue
            scheduler = ctx.system.schedulers.get(name)
            if scheduler is None or scheduler.crashed:
                continue
            return name
        return None

    def _crash(self, ctx, name):
        scheduler = ctx.system.schedulers[name]
        if scheduler.crashed:
            return
        scheduler.crash()
        ctx.fault_injected(self, station=name, trigger="mid_transfer")
        ctx.sim.schedule(self.downtime, self._recover, ctx, name)

    def _recover(self, ctx, name):
        scheduler = ctx.system.schedulers[name]
        if not scheduler.crashed:
            return
        scheduler.recover()
        ctx.fault_cleared(self, station=name, trigger="mid_transfer")

    def clear(self, ctx):
        if self._observer is not None:
            ctx.net.remove_transfer_observer(self._observer)
            self._observer = None

    def describe(self):
        return {"station": self.station or "", "count": self.count}


class ChaosSchedule:
    """A named, ordered composition of fault actions."""

    def __init__(self, name, actions, description=""):
        if not actions:
            raise SimulationError(f"chaos schedule {name!r} has no actions")
        for action in actions:
            if not isinstance(action, FaultAction):
                raise SimulationError(f"not a FaultAction: {action!r}")
        self.name = name
        self.actions = list(actions)
        self.description = description

    def horizon(self):
        """Latest scheduled inject/clear instant (run at least this long)."""
        latest = 0.0
        for action in self.actions:
            end = action.at + (action.duration or 0.0)
            latest = max(latest, end)
        return latest

    def __iter__(self):
        return iter(self.actions)

    def __len__(self):
        return len(self.actions)

    def __repr__(self):
        return (f"<ChaosSchedule {self.name!r} "
                f"actions={len(self.actions)}>")
