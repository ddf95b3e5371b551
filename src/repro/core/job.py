"""Background jobs and their lifecycle records.

A Condor job is a long-running, CPU-bound batch program submitted at its
owner's workstation.  The :class:`Job` object is both the scheduling
entity (state machine below) and the measurement record the paper's
evaluation is built from: every placement, checkpoint, remote CPU second
and home-support CPU second is logged on the job itself, which is what
makes per-job wait ratio (Fig. 4), checkpoint rate (Fig. 8) and leverage
(Fig. 9) directly computable.

State machine (the owner and preempt edges are decided in one place,
:mod:`repro.core.owner_reaction`)::

    PENDING --grant--> PLACING --image arrived--> RUNNING
    RUNNING --owner returned--> SUSPENDED --grace expired--> VACATING
    SUSPENDED --owner left--> RUNNING
    RUNNING --coordinator preempt--> VACATING
    SUSPENDED --coordinator preempt--> VACATING
    VACATING --checkpoint stored--> PENDING      (waits for a new grant)
    RUNNING --demand met--> COMPLETED
    any --user/system removal--> REMOVED
"""

import itertools

from repro.remote_unix.segments import SegmentLayout, typical_layout
from repro.sim.errors import SimulationError

PENDING = "pending"
PLACING = "placing"
RUNNING = "running"
SUSPENDED = "suspended"
VACATING = "vacating"
COMPLETED = "completed"
REMOVED = "removed"

#: States in which the job counts toward the system queue length
#: ("jobs in service are considered part of the queue", §3).
QUEUED_STATES = (PENDING, PLACING, RUNNING, SUSPENDED, VACATING)

_VALID_TRANSITIONS = {
    PENDING: (PLACING, REMOVED),
    PLACING: (RUNNING, PENDING, REMOVED),
    RUNNING: (SUSPENDED, VACATING, COMPLETED, PENDING, REMOVED),
    SUSPENDED: (RUNNING, VACATING, PENDING, REMOVED),
    VACATING: (PENDING, REMOVED),
    COMPLETED: (),
    REMOVED: (),
}

_job_ids = itertools.count(1)


def reset_job_ids():
    """Restart the global job-id counter (test isolation helper)."""
    global _job_ids
    _job_ids = itertools.count(1)


class Job:
    """A background job with its full measurement history.

    Parameters
    ----------
    user:
        Name of the submitting user (Table 1's A–E).
    home:
        Name of the workstation the job was submitted from.
    demand_seconds:
        Total CPU seconds of service the job needs (its *service demand*).
    layout:
        The program's :class:`SegmentLayout`; sizes the checkpoint image.
    syscall_rate:
        Unix system calls issued per CPU second of execution.
    """

    def __init__(self, user, home, demand_seconds, layout=None,
                 syscall_rate=0.5, name=None, architectures=("vax",)):
        if demand_seconds <= 0:
            raise SimulationError(
                f"job demand must be > 0 seconds, got {demand_seconds}"
            )
        if syscall_rate < 0:
            raise SimulationError(f"negative syscall rate {syscall_rate}")
        if layout is not None and not isinstance(layout, SegmentLayout):
            raise SimulationError("layout must be a SegmentLayout")
        if not architectures:
            raise SimulationError("job needs at least one architecture")
        self.id = next(_job_ids)
        self.name = name or f"job-{self.id}"
        self.user = user
        self.home = home
        self.demand_seconds = float(demand_seconds)
        self.layout = layout or typical_layout()
        self.syscall_rate = float(syscall_rate)
        #: Architectures the user compiled binaries for (future work
        #: §5(4): a job with both a VAX and a SUN binary can start on
        #: either kind of workstation).
        self.architectures = frozenset(architectures)
        #: Once work exists on one architecture, its checkpoints bind the
        #: job there — moving across would lose everything (§5(4)).
        self.locked_arch = None

        self.state = PENDING
        #: Placement epoch: bumped each time the job starts at a host.
        #: In-flight messages from an older placement are stale.
        self.incarnation = 0
        #: CPU seconds of the demand completed so far.
        self.progress = 0.0
        #: Progress as of the most recent durable checkpoint (restart point).
        self.checkpointed_progress = 0.0

        # -- measurement record -----------------------------------------
        self.submitted_at = None
        self.completed_at = None
        self.first_placed_at = None
        #: Stations the job has executed on, in order.
        self.placements = []
        #: Times the job was checkpointed and moved with the image
        #: durably stored (Fig. 8 numerator).
        self.checkpoint_count = 0
        #: Checkpoint images lost in storage (disk full/failed, torn
        #: write) — counted apart from stored ones; each loss restarts
        #: the job from its previous surviving generation.
        self.checkpoint_lost_count = 0
        #: In-place periodic checkpoints (future-work §4 strategy).
        self.periodic_checkpoint_count = 0
        #: Times the job was killed without a checkpoint (Butler ablation).
        self.kill_count = 0
        #: Times the job was preempted by the coordinator for priority.
        self.priority_preemptions = 0
        #: CPU seconds executed remotely (leverage numerator).
        self.remote_cpu_seconds = 0.0
        #: CPU seconds re-executed because work was lost (kill/crash).
        self.wasted_cpu_seconds = 0.0
        #: Waste refund owed by a dead slice not yet booked: a rollback
        #: to a periodic checkpoint can land *before* the (partitioned or
        #: crashed) host writes its slice off; the refund waits here for
        #: that booking (see :meth:`book_dead_slice`).
        self.waste_refund_pending = 0.0
        #: Home-station support CPU (leverage denominator), by kind.
        self.support_seconds = {"placement": 0.0, "checkpoint": 0.0,
                                "syscall": 0.0}

    # ------------------------------------------------------------------
    # state machine

    def transition(self, new_state):
        """Move to ``new_state``; invalid transitions are scheduler bugs."""
        if new_state not in _VALID_TRANSITIONS[self.state]:
            raise SimulationError(
                f"{self.name}: illegal transition {self.state} -> {new_state}"
            )
        self.state = new_state

    @property
    def remaining_seconds(self):
        """CPU seconds of demand still to execute."""
        return max(0.0, self.demand_seconds - self.progress)

    @property
    def finished(self):
        return self.state == COMPLETED

    @property
    def in_system(self):
        """Whether the job counts toward queue length (Fig. 3/7)."""
        return self.state in QUEUED_STATES

    def image_mb(self):
        """Current checkpoint-image size given progress-driven growth."""
        return self.layout.image_mb(self.progress)

    def runs_on(self, arch):
        """Whether the job can execute on a station of ``arch`` now.

        Requires a binary for the architecture and, once any work is
        checkpointed, the matching architecture (§5(4)).
        """
        if arch not in self.architectures:
            return False
        return self.locked_arch is None or self.locked_arch == arch

    def roll_back_to_checkpoint(self):
        """Reset progress to the last durable checkpoint.

        Used when a job is killed without checkpointing (Butler mode) or
        its host crashes.  Normally this *loses* the work since the last
        checkpoint (returned as positive seconds, booked as wasted).  With
        periodic checkpointing the durable image can be *ahead* of the
        home's settled progress (cut mid-slice on the now-dead host); then
        the reset recovers work the crash accounting had written off, and
        the over-booked waste is refunded.
        """
        delta = self.progress - self.checkpointed_progress
        self.progress = self.checkpointed_progress
        if delta >= 0:
            self.wasted_cpu_seconds += delta
        else:
            # The refund can outrun the write-off it corrects: the home
            # revokes (and rolls back) the moment the host is declared
            # lost, while the host books its dead slice only when it
            # crashes or notices the revocation.  Whatever cannot be
            # refunded now waits for that booking.
            refund = min(-delta, self.wasted_cpu_seconds)
            self.wasted_cpu_seconds -= refund
            self.waste_refund_pending += -delta - refund
        return delta

    def book_dead_slice(self, elapsed_cpu):
        """Write off a slice that died with its host.

        The cycles were consumed (``remote_cpu_seconds``) but produced no
        durable progress (``wasted_cpu_seconds``) — except for whatever a
        periodic checkpoint preserved, which the home's rollback refunds
        (possibly in advance, via :attr:`waste_refund_pending`).
        """
        self.remote_cpu_seconds += elapsed_cpu
        self.wasted_cpu_seconds += elapsed_cpu
        if self.waste_refund_pending:
            refund = min(self.waste_refund_pending, self.wasted_cpu_seconds)
            self.wasted_cpu_seconds -= refund
            self.waste_refund_pending -= refund

    def add_support(self, kind, seconds):
        """Book home-station support CPU against this job."""
        if kind not in self.support_seconds:
            raise SimulationError(f"unknown support kind {kind!r}")
        if seconds < 0:
            raise SimulationError(f"negative support charge {seconds}")
        self.support_seconds[kind] += seconds

    # ------------------------------------------------------------------
    # derived metrics (paper §3)

    @property
    def total_support_seconds(self):
        """All home CPU spent supporting this job's remote execution."""
        return sum(self.support_seconds.values())

    def leverage(self):
        """Remote capacity delivered per unit of local support (§3.1).

        ``None`` when the job consumed no local support at all (a job
        that never ran remotely, or an idealised zero-cost run).
        """
        support = self.total_support_seconds
        if support <= 0.0:
            return None
        return self.remote_cpu_seconds / support

    def wait_ratio(self):
        """(turnaround - service demand) / service demand; ``None`` if
        the job has not completed."""
        if self.completed_at is None or self.submitted_at is None:
            return None
        turnaround = self.completed_at - self.submitted_at
        wait = max(0.0, turnaround - self.demand_seconds)
        return wait / self.demand_seconds

    def checkpoint_rate_per_hour(self):
        """Checkpoints per hour of service demand (Fig. 8 y-axis)."""
        return self.checkpoint_count / (self.demand_seconds / 3600.0)

    def __repr__(self):
        return (
            f"<Job {self.name} user={self.user} home={self.home} "
            f"{self.state} {self.progress:.0f}/{self.demand_seconds:.0f}s>"
        )


class LiveJobs:
    """The jobs of an append-only list that are still in the system.

    ``COMPLETED`` and ``REMOVED`` are terminal, so each reading scans
    only the jobs appended since the last one plus those still live
    then — not every job ever submitted, on every queue sample.
    """

    __slots__ = ("_jobs", "_seen", "_live")

    def __init__(self, jobs):
        self._jobs = jobs
        self._seen = 0
        self._live = []

    def current(self):
        """The in-system jobs, in submission order (read-only view)."""
        live = self._live
        live.extend(self._jobs[self._seen:])
        self._seen = len(self._jobs)
        live[:] = [job for job in live if job.in_system]
        return live
