"""CPU accounting: who consumed each second of a workstation's capacity.

The paper's headline efficiency numbers (leverage ≈ 1300, coordinator and
local scheduler < 1 % each) are *accounting* results: every second of CPU a
station spends is attributed to a category.  This module defines those
categories and a per-station ledger that supports both long-running
occupancy (owner sessions, a remote job executing) and burst charges
(placing a 0.5 MB checkpoint costs 2.5 s of home-station CPU).
"""

from repro.sim.errors import SimulationError
from repro.telemetry.kinds import LEDGER_ENTRY

# -- capacity categories ------------------------------------------------
#: CPU used directly by the station's owner.
OWNER = "owner"
#: CPU given to a foreign Condor job executing on this station.
REMOTE_JOB = "remote_job"
#: Home-station cost of placing a job at a remote site (5 s/MB).
PLACEMENT = "placement"
#: Home-station cost of writing/receiving a checkpoint (5 s/MB).
CHECKPOINT = "checkpoint"
#: Home-station shadow-process cost of remote system calls (10 ms each).
SYSCALL = "syscall"
#: Background cost of the station's local scheduler daemon.
SCHEDULER = "scheduler"
#: Background cost of hosting the central coordinator.
COORDINATOR = "coordinator"
#: CPU burned by a job executing on its own home station.
LOCAL_JOB = "local_job"

ALL_CATEGORIES = (
    OWNER, REMOTE_JOB, PLACEMENT, CHECKPOINT, SYSCALL, SCHEDULER,
    COORDINATOR, LOCAL_JOB,
)

#: Categories that count as *local support* of remote execution when
#: computing a job's leverage (paper §3.1).
SUPPORT_CATEGORIES = (PLACEMENT, CHECKPOINT, SYSCALL)


class CpuLedger:
    """Attribution ledger for one workstation's CPU.

    Two kinds of entries:

    * occupancy — ``start(category)`` / ``stop(category)`` bracket an
      interval during which the category holds the CPU (owner sessions,
      a running remote job);
    * bursts — ``charge(category, seconds)`` books a lump of CPU time at
      the current instant (placement and checkpoint costs);
    * partial load — ``add_load(category, t0, t1, fraction)`` books a
      fractional background load over an interval (shadow syscall service,
      daemon overhead).

    Observers (the metrics layer) register ``on_interval(category, t0, t1,
    fraction)`` callbacks to build utilisation time series.  When a
    telemetry hub is attached (:meth:`attach_hub`), every entry is also
    emitted as a typed ``ledger_entry`` event whose ``booked`` field is
    the exact seconds added to :attr:`totals` — a trace replayer summing
    ``booked`` per station reproduces the totals bit-for-bit.
    """

    def __init__(self, sim, station_name="", hub=None):
        self.sim = sim
        self.station_name = station_name
        self.totals = {category: 0.0 for category in ALL_CATEGORIES}
        self._open = {}
        self._observers = []
        self.hub = hub

    def subscribe(self, callback):
        """Register ``callback(category, t0, t1, fraction)`` for every entry."""
        self._observers.append(callback)

    def attach_hub(self, hub):
        """Emit every ledger entry as a telemetry event on ``hub``."""
        self.hub = hub

    def start(self, category):
        """Begin an occupancy interval for ``category``."""
        self._check(category)
        if category in self._open:
            raise SimulationError(
                f"{self.station_name}: {category} occupancy already open"
            )
        self._open[category] = self.sim.now

    def stop(self, category):
        """End the open occupancy interval; returns the elapsed seconds."""
        self._check(category)
        if category not in self._open:
            raise SimulationError(
                f"{self.station_name}: {category} occupancy not open"
            )
        t0 = self._open.pop(category)
        t1 = self.sim.now
        elapsed = t1 - t0
        self.totals[category] += elapsed
        self._emit(category, t0, t1, 1.0, booked=elapsed)
        return elapsed

    def occupied(self, category):
        """Whether an occupancy interval is currently open for ``category``."""
        return category in self._open

    def charge(self, category, seconds):
        """Book ``seconds`` of CPU at the current instant (burst cost)."""
        self._check(category)
        if seconds < 0:
            raise SimulationError(f"negative charge {seconds} for {category}")
        if seconds == 0:
            return
        self.totals[category] += seconds
        # Bursts are genuinely short (a few seconds); book them as an
        # interval ending now so time-series observers can bucket them.
        self._emit(category, max(0.0, self.sim.now - seconds), self.sim.now,
                   1.0, booked=seconds)

    def add_load(self, category, t0, t1, fraction):
        """Book a background load of ``fraction`` CPU over ``[t0, t1]``."""
        self._check(category)
        if t1 < t0:
            raise SimulationError(f"inverted interval [{t0}, {t1}]")
        if not 0.0 <= fraction <= 1.0:
            raise SimulationError(f"load fraction must be in [0, 1], got {fraction}")
        self.totals[category] += (t1 - t0) * fraction
        self._emit(category, t0, t1, fraction, booked=(t1 - t0) * fraction)

    def close_all(self):
        """Close any open occupancy intervals (end-of-run flush)."""
        for category in list(self._open):
            self.stop(category)

    def total(self, *categories):
        """Sum of booked seconds across ``categories`` (all if empty)."""
        if not categories:
            categories = ALL_CATEGORIES
        return sum(self.totals[c] for c in categories)

    def _check(self, category):
        if category not in self.totals:
            raise SimulationError(f"unknown CPU category {category!r}")

    def _emit(self, category, t0, t1, fraction, booked):
        for observer in self._observers:
            observer(category, t0, t1, fraction)
        # wants() lets an unobserved run skip the payload dict and event
        # object for the single hottest kind on the spine.
        if self.hub is not None and self.hub.wants(LEDGER_ENTRY):
            self.hub.emit(
                LEDGER_ENTRY, source=self.station_name,
                category=category, t0=t0, t1=t1, fraction=fraction,
                booked=booked,
            )

    def __repr__(self):
        busy = {c: round(v, 1) for c, v in self.totals.items() if v}
        return f"<CpuLedger {self.station_name} {busy}>"
