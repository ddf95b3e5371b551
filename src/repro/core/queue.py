"""Per-station background job queues.

Section 2.1: "A local scheduler with more than one background job waiting
makes its own decision of which job should be executed next."  The queue
therefore carries a pluggable discipline; FIFO is the default, and
shortest-remaining-first is available for local-policy experiments.
"""

from repro.core import job as jobstate
from repro.sim.errors import SimulationError

FIFO = "fifo"
SHORTEST_FIRST = "shortest_first"

_DISCIPLINES = (FIFO, SHORTEST_FIRST)


class BackgroundJobQueue:
    """The queue of one station's submitted-but-not-running jobs.

    Tracks two populations:

    * ``pending`` — jobs waiting for a capacity grant (state PENDING);
    * ``active`` — this station's jobs currently placed somewhere
      (PLACING / RUNNING / SUSPENDED / VACATING).

    Both count toward the paper's queue-length figures.
    """

    def __init__(self, station_name, discipline=FIFO):
        if discipline not in _DISCIPLINES:
            raise SimulationError(f"unknown queue discipline {discipline!r}")
        self.station_name = station_name
        self.discipline = discipline
        self._pending = []
        self._active = []

    # ------------------------------------------------------------------
    # mutation

    def enqueue(self, job):
        """Add a newly submitted (or vacated) job to the pending list."""
        if job.state != jobstate.PENDING:
            raise SimulationError(
                f"cannot enqueue {job.name} in state {job.state}"
            )
        if job in self._pending:
            raise SimulationError(f"{job.name} already queued")
        self._pending.append(job)

    def select_next(self):
        """Pick (and remove) the next pending job per the discipline.

        Returns ``None`` when nothing is pending.  The caller moves the
        job to the active list once placement starts.
        """
        if not self._pending:
            return None
        if self.discipline == FIFO:
            job = self._pending.pop(0)
        else:
            job = min(self._pending, key=lambda j: j.remaining_seconds)
            self._pending.remove(job)
        return job

    def mark_active(self, job):
        """Record that the job left the pending list and is placed."""
        if job in self._active:
            raise SimulationError(f"{job.name} already active")
        self._active.append(job)

    def return_to_pending(self, job):
        """A vacated job returns to wait for a new grant."""
        self._active.remove(job)
        self.enqueue(job)

    def retire(self, job):
        """Remove a completed/removed job from all tracking."""
        if job in self._active:
            self._active.remove(job)
        elif job in self._pending:
            self._pending.remove(job)
        else:
            raise SimulationError(f"{job.name} not in queue {self.station_name}")

    # ------------------------------------------------------------------
    # queries

    @property
    def pending_count(self):
        return len(self._pending)

    @property
    def active_count(self):
        return len(self._active)

    @property
    def total_in_system(self):
        """Pending + placed jobs (the paper's queue-length definition)."""
        return len(self._pending) + len(self._active)

    def pending_jobs(self):
        return tuple(self._pending)

    def __len__(self):
        return self.total_in_system

    def __repr__(self):
        return (
            f"<BackgroundJobQueue {self.station_name} "
            f"pending={self.pending_count} active={self.active_count}>"
        )
