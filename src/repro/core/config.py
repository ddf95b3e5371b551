"""Tunable parameters of the Condor system, defaulted to the paper's.

Every number here is traceable to a sentence in the paper; the ablation
benchmarks work by constructing variant configs.
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
    #: How the coordinator learns cluster state each cycle:
    #: ``"delta"`` — local schedulers push ``state_update`` messages when
    #: their observable state changes and the coordinator allocates from a
    #: materialized view (scales to thousands of stations);
    #: ``"poll"`` — the 1988 behaviour: a full RPC fan-out every cycle;
    #: ``"federated"`` — the pool is partitioned into
    #: ``federation_pools`` independent delta-mode coordinators topped by
    #: a thin matchmaker that trades surplus capacity between pools via
    #: time-bounded station leases (HTCondor's "flocking").
    coordinator_mode: str = "delta"
    #: In delta mode, run a full anti-entropy poll every this many cycles
    #: to repair the view after lost pushes and catch silent reboots.
    anti_entropy_interval: int = 15
    #: Grace a stopped job waits on a reclaimed station before being
    #: checkpointed off (§4: "within 5 minutes").
    grace_period: float = 5 * MINUTE
    #: Global cap on new placements per cycle (§4: "a single job
    #: remotely every two minutes").
    placements_per_cycle: int = 1
    #: Cap on grants one requesting station receives per cycle.
    grants_per_station_per_cycle: int = 1
    #: Cap on priority preemptions ordered per cycle.
    preemptions_per_cycle: int = 1
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
    #: Coordinator cycle CPU cost: base + per-station seconds (<1 %, §3.1).
    coordinator_cycle_base_cost: float = 0.05
    coordinator_cycle_per_station_cost: float = 0.01
    #: Cost per unit of work actually done in a delta-mode cycle (one
    #: state update absorbed or one targeted probe sent).
    coordinator_cycle_per_update_cost: float = 0.01
    #: What the per-cycle overhead scales with: ``"per_station"`` (every
    #: registered station, the 1988 model), ``"per_update"`` (work
    #: actually done), or ``"auto"`` — per_station under polling,
    #: per_update under the delta protocol.
    coordinator_overhead_model: str = "auto"
    #: Poll RPC timeout — a silent station is considered down.
    rpc_timeout: float = 10.0
    #: Retry/backoff policy for reliable delivery (pushed deltas, job
    #: notices, checkpoint-back transfers).  First retry waits
    #: ``retry_backoff_base`` seconds, doubling up to ``retry_backoff_cap``,
    #: each delay stretched by up to ``retry_jitter_frac`` of itself
    #: (seeded, so chaos runs replay byte-identically).
    retry_backoff_base: float = 2.0
    retry_backoff_cap: float = 120.0
    retry_jitter_frac: float = 0.5
    #: Attempts for a pushed ``state_update`` before giving up (a newer
    #: push or the anti-entropy poll supersedes it; giving up merely
    #: forces the next flush to resend full state).
    push_retry_limit: int = 4
    #: Attempts for the ``start_job`` placement RPC before the home
    #: station abandons the placement and requeues the job.
    placement_rpc_retries: int = 6
    #: Seed for the per-daemon retry-jitter streams.  Independent of the
    #: workload/owner seeds so enabling retries cannot perturb them.
    retry_seed: int = 0
    #: Save the text segment in checkpoints (§2.3 says yes; the shared-
    #: text optimisation of §4 turns this off).
    include_text_in_checkpoint: bool = True
    #: Checkpoint generations each home store keeps per job.  1 is the
    #: paper's one-file-per-job behaviour; 2+ lets verify-on-restore fall
    #: back past a corrupted newest image at the cost of extra disk (§4's
    #: disk-pressure bound tightens accordingly).
    checkpoint_generations: int = 1
    #: Number of per-pool coordinators under ``coordinator_mode=
    #: "federated"``.  Station i of N belongs to pool ``i*K//N``
    #: (contiguous, near-equal blocks in registration order).
    #: With ``federation_pools=1`` the federated build is the delta
    #: build: one pool coordinator, no matchmaker, byte-identical traces.
    federation_pools: int = 1
    #: Matchmaker matching period; ``None`` means ``poll_interval``.
    federation_interval: float = None
    #: How long a cross-pool lease lasts before the borrower must return
    #: the station (checkpointing any foreign job back through the
    #: normal vacate path).
    federation_lease_duration: float = 30 * MINUTE
    #: Extra grace past expiry before the *lender* unilaterally reclaims
    #: a station whose return never arrived (borrower crashed).
    federation_reclaim_grace: float = 10 * MINUTE
    #: Cap on stations moved by one lease grant.
    federation_max_lease: int = 4

    def __post_init__(self):
        if self.poll_interval <= 0 or self.grace_period < 0:
            raise SimulationError("bad poll_interval/grace_period")
        if self.placements_per_cycle < 0 or self.preemptions_per_cycle < 0:
            raise SimulationError("per-cycle caps must be >= 0")
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
        if self.coordinator_mode not in ("delta", "poll", "federated"):
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
        if (self.retry_backoff_base <= 0
                or self.retry_backoff_cap < self.retry_backoff_base):
            raise SimulationError("bad retry backoff base/cap")
        if not 0 <= self.retry_jitter_frac <= 1:
            raise SimulationError("retry_jitter_frac must be in [0, 1]")
        if self.push_retry_limit < 1 or self.placement_rpc_retries < 1:
            raise SimulationError("retry limits must be >= 1")
        if self.checkpoint_generations < 1:
            raise SimulationError("checkpoint_generations must be >= 1")
        if self.federation_pools < 1:
            raise SimulationError("federation_pools must be >= 1")
        if (self.federation_interval is not None
                and self.federation_interval <= 0):
            raise SimulationError("federation_interval must be > 0")
        if self.federation_lease_duration <= 0:
            raise SimulationError("federation_lease_duration must be > 0")
        if self.federation_reclaim_grace < 0:
            raise SimulationError("federation_reclaim_grace must be >= 0")
        if self.federation_max_lease < 1:
            raise SimulationError("federation_max_lease must be >= 1")
