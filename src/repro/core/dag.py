"""Dependent-job submission: run B only after A completes.

The paper's users "often submit several occurrences of the same job to
the system with only different parameters" (§4) — parameter sweeps whose
stages depend on one another (generate → simulate → reduce).  This module
adds the minimal workflow layer historical Condor later grew into DAGMan:
a :class:`JobDag` holds jobs and edges; jobs with no unfinished
predecessors are submitted automatically as their parents complete.

Purely client-side: the scheduler below is unchanged — the DAG simply
defers ``system.submit`` calls, exactly like a user watching their jobs.
"""

from repro.core import job as jobstate
from repro.core.errors import SchedulingError, SubmissionRefused
from repro.telemetry import kinds as ev


class JobDag:
    """A set of jobs with completion-order dependencies.

    Usage::

        dag = JobDag(system)
        a = dag.add(job_a)
        b = dag.add(job_b, after=[a])     # b submits when a completes
        dag.start()
    """

    def __init__(self, system):
        self.system = system
        self._jobs = []
        self._parents = {}       # job id -> set of prerequisite job ids
        self._children = {}      # job id -> list of dependent job ids
        self._by_id = {}
        self._submitted = set()
        #: Jobs whose submission was refused (disk full); their subtrees
        #: stall rather than run on missing inputs.
        self.refused = []
        self._started = False
        system.telemetry.subscribe(ev.JOB_COMPLETED, self._on_completed)

    def add(self, job, after=()):
        """Register ``job``, to run after all jobs in ``after``.

        Returns the job for chaining.  Dependencies must already be in
        the DAG (so cycles are impossible by construction).
        """
        if self._started:
            raise SchedulingError("cannot add jobs after the DAG started")
        if job.id in self._by_id:
            raise SchedulingError(f"{job.name} already in the DAG")
        for parent in after:
            if parent.id not in self._by_id:
                raise SchedulingError(
                    f"{job.name} depends on {parent.name}, which is not in "
                    f"the DAG (add parents first)"
                )
        self._jobs.append(job)
        self._by_id[job.id] = job
        self._parents[job.id] = {parent.id for parent in after}
        self._children[job.id] = []
        for parent in after:
            self._children[parent.id].append(job.id)
        return job

    def start(self):
        """Submit every currently unblocked job.  Idempotent."""
        self._started = True
        for job in self._jobs:
            if not self._parents[job.id] and job.id not in self._submitted:
                self._submit(job)

    def _submit(self, job):
        self._submitted.add(job.id)
        try:
            self.system.submit(job)
        except SubmissionRefused:
            self.refused.append(job)

    def _on_completed(self, event):
        job = event.payload["job"]
        if job.id not in self._children:
            return
        for child_id in self._children[job.id]:
            parents = self._parents[child_id]
            parents.discard(job.id)
            if not parents and child_id not in self._submitted:
                self._submit(self._by_id[child_id])

    # ------------------------------------------------------------------
    # queries

    @property
    def jobs(self):
        return list(self._jobs)

    @property
    def done(self):
        """All DAG jobs completed."""
        return all(job.state == jobstate.COMPLETED for job in self._jobs)

    def critical_path_demand(self):
        """Sum of demands along the longest dependency chain (seconds).

        A lower bound on the DAG's makespan on any cluster — used by
        tests and capacity-planning examples.
        """
        memo = {}

        def longest(job_id):
            if job_id not in memo:
                job = self._by_id[job_id]
                parents = [
                    pid for pid, kids in self._children.items()
                    if job_id in kids
                ]
                memo[job_id] = job.demand_seconds + max(
                    (longest(pid) for pid in parents), default=0.0
                )
            return memo[job_id]

        return max((longest(job.id) for job in self._jobs), default=0.0)

    def __repr__(self):
        return (
            f"<JobDag jobs={len(self._jobs)} "
            f"submitted={len(self._submitted)} done={self.done}>"
        )
