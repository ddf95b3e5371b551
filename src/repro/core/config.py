"""Tunable parameters of the Condor system, defaulted to the paper's.

Every number here is traceable to a sentence in the paper; the ablation
benchmarks work by constructing variant configs.  A field exists because
an ablation, exhibit, CLI verb or chaos scenario turns it (or a test
needs it as a seam); a setting nobody turns is a constant at its one
reader — retry backoff in :mod:`repro.net.reliable`, retry caps in
:mod:`repro.core.local_scheduler`, cycle costs in
:mod:`repro.core.coordinator`, lease grace and size in
:mod:`repro.core.federation`.
"""

import dataclasses

from repro.core.queue import FIFO
from repro.sim import MINUTE
from repro.sim.errors import SimulationError


@dataclasses.dataclass
class CondorConfig:
    """Knobs of the scheduling system (defaults = the 1988 deployment)."""

    #: Coordinator polling/allocation period (§2.1: "every two minutes").
    poll_interval: float = 2 * MINUTE
    #: How the coordinator learns cluster state each cycle (allocation
    #: is shared): ``"delta"`` — local schedulers push ``state_update``
    #: messages into a materialized view (scales to thousands of
    #: stations); ``"poll"`` — the 1988 reference
    #: :class:`~repro.core.coordinator.PollingCoordinator`: a full RPC
    #: fan-out every cycle, pushes ignored.
    coordinator_mode: str = "delta"
    #: In delta mode, probe every station once per this many cycles to
    #: repair the view after lost pushes and catch silent reboots.
    anti_entropy_interval: int = 15
    #: Grace a stopped job waits on a reclaimed station before being
    #: checkpointed off (§4: "within 5 minutes").
    grace_period: float = 5 * MINUTE
    #: Global cap on new placements per cycle (§4: "a single job
    #: remotely every two minutes").
    placements_per_cycle: int = 1
    #: Cap on grants one requesting station receives per cycle.
    grants_per_station_per_cycle: int = 1
    #: Cap on machines one station may hold concurrently; ``None`` is
    #: work-conserving.  The deployed system's heavy user held ~6
    #: machines on average despite a 30+ job queue (Table 1: 4278 h over
    #: a 720 h month), so the month scenario sets a small cap.
    max_machines_per_station: int = None
    #: Local queue discipline (which of *my* jobs goes next, §2.1).
    queue_discipline: str = FIFO
    #: Butler-mode ablation: kill on owner return instead of suspending
    #: and checkpointing (§1's criticism of Butler).
    kill_on_owner_return: bool = False
    #: Periodic in-place checkpoints (future-work strategy in §4); ``None``
    #: disables them, as deployed.
    periodic_checkpoint_interval: float = None
    #: Host choice among idle stations: "arbitrary", "longest_history"
    #: (future work §5(1)), or "current_idle".
    host_selection: str = "arbitrary"
    #: Background CPU fraction of the local scheduler daemon (<1 %, §3.1).
    scheduler_daemon_load: float = 0.0025
    #: What the per-cycle overhead scales with: ``"per_station"`` (every
    #: registered station, the 1988 model), ``"per_update"`` (work
    #: actually done), or ``"auto"`` — per_station for the polling
    #: coordinator, per_update under the delta protocol.
    coordinator_overhead_model: str = "auto"
    #: Checkpoint generations each home store keeps per job.  1 is the
    #: paper's one-file-per-job behaviour; 2+ lets verify-on-restore fall
    #: back past a corrupted newest image at the cost of extra disk (§4's
    #: disk-pressure bound tightens accordingly).
    checkpoint_generations: int = 1
    #: Number of per-pool delta-mode coordinators.  Station i of N
    #: belongs to pool ``i*K//N`` (contiguous, near-equal blocks in
    #: registration order).  Above 1 a thin matchmaker trades surplus
    #: capacity between pools via time-bounded station leases
    #: (HTCondor's "flocking"); 1 is the single coordinator.
    federation_pools: int = 1
    #: How long a cross-pool lease lasts before the borrower must return
    #: the station (checkpointing any foreign job back through the
    #: normal vacate path).
    federation_lease_duration: float = 30 * MINUTE

    def __post_init__(self):
        if self.poll_interval <= 0 or self.grace_period < 0:
            raise SimulationError("bad poll_interval/grace_period")
        if self.placements_per_cycle < 0:
            raise SimulationError("placements_per_cycle must be >= 0")
        if self.grants_per_station_per_cycle < 1:
            raise SimulationError("grants_per_station_per_cycle must be >= 1")
        if (self.max_machines_per_station is not None
                and self.max_machines_per_station < 1):
            raise SimulationError("max_machines_per_station must be >= 1")
        if self.host_selection not in ("arbitrary", "longest_history",
                                       "current_idle"):
            raise SimulationError(
                f"unknown host_selection {self.host_selection!r}"
            )
        if (self.periodic_checkpoint_interval is not None
                and self.periodic_checkpoint_interval <= 0):
            raise SimulationError("periodic_checkpoint_interval must be > 0")
        if not 0 <= self.scheduler_daemon_load < 1:
            raise SimulationError("scheduler_daemon_load must be in [0, 1)")
        if self.coordinator_mode not in ("delta", "poll"):
            raise SimulationError(
                f"unknown coordinator_mode {self.coordinator_mode!r}"
            )
        if self.anti_entropy_interval < 1:
            raise SimulationError("anti_entropy_interval must be >= 1")
        if self.coordinator_overhead_model not in ("auto", "per_station",
                                                   "per_update"):
            raise SimulationError(
                f"unknown coordinator_overhead_model "
                f"{self.coordinator_overhead_model!r}"
            )
        if self.checkpoint_generations < 1:
            raise SimulationError("checkpoint_generations must be >= 1")
        if self.federation_pools < 1:
            raise SimulationError("federation_pools must be >= 1")
        if self.federation_pools > 1 and self.coordinator_mode == "poll":
            raise SimulationError(
                "federation_pools > 1 needs coordinator_mode 'delta' "
                "(pool coordinators run the delta protocol)")
        if self.federation_lease_duration <= 0:
            raise SimulationError("federation_lease_duration must be > 0")
