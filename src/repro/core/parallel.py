"""Parallel (gang-launched) jobs — the paper's future-work item §5(2).

"We are considering the implementation of the unix system calls fork(2),
exec(2), and pipe(2) to allow parallel programs to be executed on the
system.  This facility would introduce many scheduling problems."

A :class:`GangJob` is a parallel program of ``width`` member tasks in the
master-worker style such programs took on early Condor (PVM-era): the
members must be *launched together* — the coordinator co-allocates
``width`` machines in a single cycle — and thereafter execute and
checkpoint independently, with the gang complete when every member is.

The "many scheduling problems" the paper predicted are observable here:
a gang must wait for ``width`` simultaneously idle machines (while
single jobs slip past one at a time), and the co-allocated burst of
placements bypasses the one-per-two-minutes throttle of §4 — exactly the
tension the benchmarks measure.
"""

import itertools

from repro.core.job import Job
from repro.sim.errors import SimulationError

_gang_ids = itertools.count(1)


class GangJob:
    """A ``width``-way parallel program submitted as one unit.

    ``demand_seconds`` is per member.  Members are ordinary
    :class:`~repro.core.job.Job` objects named ``<name>.rank<i>``; after
    the coordinated launch they are scheduled individually (an evicted
    member re-enters the normal queue and resumes from its checkpoint).
    """

    def __init__(self, user, home, demand_seconds, width, name=None,
                 syscall_rate=0.5, architectures=("vax",)):
        if width < 2:
            raise SimulationError(
                f"a gang needs width >= 2 (got {width}); use Job for "
                f"sequential programs"
            )
        self.id = next(_gang_ids)
        self.name = name or f"gang-{self.id}"
        self.user = user
        self.home = home
        self.width = int(width)
        self.submitted_at = None
        self.launched_at = None
        self.members = [
            Job(user=user, home=home, demand_seconds=demand_seconds,
                syscall_rate=syscall_rate, architectures=architectures,
                name=f"{self.name}.rank{i}")
            for i in range(self.width)
        ]

    @property
    def launched(self):
        return self.launched_at is not None

    @property
    def finished(self):
        return all(member.finished for member in self.members)

    @property
    def completed_at(self):
        """When the last member finished, or ``None``."""
        if not self.finished:
            return None
        return max(member.completed_at for member in self.members)

    def launch_delay(self):
        """Seconds the gang waited for ``width`` machines at once."""
        if self.launched_at is None or self.submitted_at is None:
            return None
        return self.launched_at - self.submitted_at

    def __repr__(self):
        state = ("finished" if self.finished
                 else "launched" if self.launched else "waiting")
        return f"<GangJob {self.name} width={self.width} {state}>"
