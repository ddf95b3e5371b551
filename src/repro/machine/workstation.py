"""The workstation: CPU ledger + disk + owner activity + foreign-job slot.

A VAXstation II in the paper's cluster.  The workstation itself is policy-
free: it models the machine (who holds the CPU, what is on the disk, is
the owner at the keyboard) and exposes observer hooks; all scheduling
logic lives in :mod:`repro.core`.
"""

from repro.machine.accounting import OWNER, CpuLedger
from repro.machine.disk import Disk
from repro.machine.owner import NeverActiveOwner
from repro.sim.errors import SimulationError

#: Default instruction-set architecture (the paper's VAXstation II).
DEFAULT_ARCH = "vax"

#: Default disk size (MB).  Generous relative to 0.5 MB images so that the
#: baseline month run is CPU-gated, as in the paper; disk-pressure
#: experiments shrink it.
DEFAULT_DISK_MB = 300.0


class Workstation:
    """A single privately owned workstation.

    Parameters
    ----------
    sim:
        The simulation kernel.
    name:
        Stable identifier, e.g. ``"ws-07"``.
    owner_model:
        An :class:`~repro.machine.owner.OwnerActivityModel`; defaults to a
        never-present owner (dedicated machine).
    disk_mb:
        Local disk capacity in megabytes.
    cpu_speed:
        Relative CPU speed (1.0 = VAXstation II).  A job with demand D
        needs ``D / cpu_speed`` wall seconds of exclusive CPU.
    """

    def __init__(self, sim, name, owner_model=None, disk_mb=DEFAULT_DISK_MB,
                 cpu_speed=1.0, arch=DEFAULT_ARCH):
        if cpu_speed <= 0:
            raise SimulationError(f"cpu_speed must be > 0, got {cpu_speed}")
        self.sim = sim
        self.name = name
        self.cpu_speed = float(cpu_speed)
        #: Instruction-set architecture (future work §5(4): mixed
        #: VAXstation/SUN pools).  Checkpoints are not portable across
        #: architectures.
        self.arch = arch
        self.disk = Disk(disk_mb, station_name=name)
        self.ledger = CpuLedger(sim, station_name=name)
        self.owner_model = owner_model or NeverActiveOwner()
        self.owner_active = False
        #: The foreign Condor job currently hosted here (set by core).
        self.running_job = None
        #: Owner-transition observers: callbacks ``(station, active)``.
        self._owner_observers = []
        self._owner_process = None
        #: Availability history: list of closed (start, end) idle intervals,
        #: used by the history-based placement policy (future-work ablation).
        self.idle_history = []
        #: Running sum of closed idle-interval lengths; keeps
        #: :meth:`mean_idle_interval` O(1) — it is computed on every
        #: coordinator poll of every station.
        self._idle_total = 0.0
        self._idle_since = 0.0
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle

    def start(self):
        """Begin the owner-activity process.  Idempotent."""
        if self._started:
            return
        self._started = True
        self._owner_process = self.sim.spawn(
            self.owner_model.run(self.sim, self), name=f"{self.name}.owner"
        )

    # ------------------------------------------------------------------
    # owner transitions (called by the owner model)

    def owner_arrived(self):
        """The owner sat down: CPU immediately belongs to them."""
        if self.owner_active:
            raise SimulationError(f"{self.name}: owner already active")
        self.owner_active = True
        self.idle_history.append((self._idle_since, self.sim.now))
        self._idle_total += self.sim.now - self._idle_since
        self.ledger.start(OWNER)
        self._notify(True)

    def owner_departed(self):
        """The owner left: the station is idle again."""
        if not self.owner_active:
            raise SimulationError(f"{self.name}: owner not active")
        self.owner_active = False
        self._idle_since = self.sim.now
        self.ledger.stop(OWNER)
        self._notify(False)

    def on_owner_change(self, callback):
        """Register ``callback(station, active)`` for owner transitions."""
        self._owner_observers.append(callback)

    def _notify(self, active):
        for callback in list(self._owner_observers):
            callback(self, active)

    # ------------------------------------------------------------------
    # queries

    @property
    def idle(self):
        """Owner away — the machine *could* serve remote cycles."""
        return not self.owner_active

    @property
    def hosting(self):
        """Whether a foreign job currently occupies this station."""
        return self.running_job is not None

    def mean_idle_interval(self):
        """Average length of *closed* idle intervals seen so far.

        Drives the availability-history placement policy (paper future
        work §5(1)).  Returns ``None`` until at least one interval closed.
        """
        if not self.idle_history:
            return None
        return self._idle_total / len(self.idle_history)

    @property
    def idle_since(self):
        """When the current idle stretch began (meaningless if owner active).

        Pushed in ``state_update`` deltas so the coordinator can compute
        ``current_idle`` at allocation time without a fresh poll.
        """
        return self._idle_since

    def __repr__(self):
        state = "owner" if self.owner_active else "idle"
        guest = f" hosting={self.running_job!r}" if self.running_job else ""
        return f"<Workstation {self.name} {state}{guest}>"
