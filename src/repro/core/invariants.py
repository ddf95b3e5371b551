"""Cross-cutting scheduler invariants, checkable at any instant.

Used by the property/stress tests (and available to applications as a
debugging aid): attach an :class:`InvariantChecker` to a system, call
:meth:`check` whenever you like — e.g. from a sampled probe during a
randomized run with crash injection — and every violated invariant
raises with a description of what broke.

The invariants encode the paper's guarantees:

* a workstation hosts at most one foreign job, and only while its slot
  bookkeeping agrees (coordinator simplicity, §2.1);
* job progress is monotone and bounded by the demand; the durable
  checkpoint never runs ahead of actual progress (checkpointing
  correctness, §2.3);
* disks never exceed capacity (§4);
* a job placed out is accounted for: while its home is up, the home
  maps it to its host, so a completion, vacate or host-lost notice can
  still reach it — a job it has lost track of would wait forever;
* a completed job executed exactly its demand beyond whatever work was
  explicitly accounted as wasted (the "very little, if any, work will be
  performed more than once" abstract claim, quantified).
"""

from repro.core import job as jobstate
from repro.sim.errors import SimulationError

#: States of a job that is out on a host (or on its way to one).
_PLACED_STATES = frozenset((jobstate.PLACING, jobstate.RUNNING,
                            jobstate.SUSPENDED, jobstate.VACATING))


class InvariantViolation(SimulationError):
    """An internal consistency guarantee was broken."""


class InvariantChecker:
    """Validates a :class:`~repro.core.condor.CondorSystem` on demand."""

    def __init__(self, system):
        self.system = system
        #: Number of successful full checks performed (diagnostics).
        self.checks_passed = 0

    def check(self):
        """Run every invariant; raises :class:`InvariantViolation`."""
        self._check_hosting_consistency()
        self._check_job_states()
        self._check_disks()
        self._check_queues()
        self._check_accounted()
        self.checks_passed += 1

    def _fail(self, message):
        raise InvariantViolation(
            f"t={self.system.sim.now:.1f}: {message}"
        )

    def _check_hosting_consistency(self):
        hosted_jobs = []
        for name, scheduler in self.system.schedulers.items():
            station = self.system.stations[name]
            hosted = scheduler.hosted
            if hosted is None:
                if station.running_job is not None:
                    self._fail(f"{name} has running_job set but no "
                               f"hosted record")
                continue
            if station.running_job is not hosted.job:
                self._fail(f"{name} slot/record mismatch: "
                           f"{station.running_job!r} vs {hosted.job!r}")
            if hosted.incarnation != hosted.job.incarnation:
                # A zombie: the home already revoked this placement
                # (host_lost during a partition) and may have re-placed
                # the job, but the cut-off host has not noticed yet.
                # Its slice will be reaped as wasted on the next local
                # event; until then it is exempt from the state and
                # exclusivity checks below.
                continue
            if hosted.job.state not in (jobstate.RUNNING,
                                        jobstate.SUSPENDED,
                                        jobstate.VACATING):
                self._fail(f"{name} hosts {hosted.job.name} in state "
                           f"{hosted.job.state}")
            if (hosted.job.state == jobstate.RUNNING
                    and station.owner_active):
                self._fail(f"{hosted.job.name} executing on {name} while "
                           f"its owner is active")
            hosted_jobs.append(hosted.job)
        if len(hosted_jobs) != len(set(id(j) for j in hosted_jobs)):
            self._fail("one job hosted on two stations at once")

    def _check_job_states(self):
        for job in self.system.jobs:
            if job.progress > job.demand_seconds + 1e-6:
                self._fail(f"{job.name} progress {job.progress} exceeds "
                           f"demand {job.demand_seconds}")
            if job.state == jobstate.RUNNING:
                # While executing, the home-side progress field lags the
                # host (it is settled at slice close), so a periodic
                # checkpoint may legitimately lead it — but never the
                # total demand.
                if job.checkpointed_progress > job.demand_seconds + 1e-6:
                    self._fail(f"{job.name} checkpoint beyond demand")
            elif job.checkpointed_progress > job.progress + 1e-6:
                self._fail(f"{job.name} checkpoint "
                           f"{job.checkpointed_progress} ahead of progress "
                           f"{job.progress}")
            if job.progress < -1e-9 or job.wasted_cpu_seconds < -1e-9:
                self._fail(f"{job.name} negative accounting")
            if job.finished and job.waste_refund_pending <= 1e-9:
                # With a refund pending the books are transiently open:
                # a cut-off host still owes the write-off of a revoked
                # slice whose checkpointed prefix the rollback already
                # credited.  The identity holds once it is reaped.
                useful = job.remote_cpu_seconds - job.wasted_cpu_seconds
                if abs(useful - job.demand_seconds) > 1.0:
                    self._fail(
                        f"{job.name} completed but useful remote CPU "
                        f"{useful:.1f} != demand {job.demand_seconds:.1f}"
                    )

    def _check_disks(self):
        for station in self.system.stations.values():
            disk = station.disk
            if disk.used_mb > disk.capacity_mb + 1e-6:
                self._fail(f"{station.name} disk over capacity "
                           f"({disk.used_mb} > {disk.capacity_mb})")
            if disk.used_mb < -1e-6:
                self._fail(f"{station.name} disk usage negative")

    def _check_queues(self):
        queued_elsewhere = set()
        for scheduler in self.system.schedulers.values():
            for job in scheduler.queue.pending_jobs():
                if job.state != jobstate.PENDING:
                    self._fail(f"{job.name} in pending list but state "
                               f"{job.state}")
                if id(job) in queued_elsewhere:
                    self._fail(f"{job.name} pending in two queues")
                queued_elsewhere.add(id(job))

    def _check_accounted(self):
        for job in self.system.jobs:
            if job.state not in _PLACED_STATES:
                continue
            home = self.system.schedulers.get(job.home)
            if home is None or home.crashed:
                continue
            if not any(held is job for held in home.active_by_host.values()):
                self._fail(f"{job.name} is {job.state} but its home "
                           f"{job.home} holds it on no host")

    def check_final(self, require_all_complete=False):
        """End-of-run validation (after ``system.finalize()``)."""
        self.check()
        for job in self.system.jobs:
            if require_all_complete and not job.finished:
                self._fail(f"{job.name} never completed "
                           f"(state {job.state})")
        return self.checks_passed
