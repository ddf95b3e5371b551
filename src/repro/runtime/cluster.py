"""The live cluster: coordinator thread + workers + job queue.

A faithful, working miniature of the paper's structure on one machine:

* each :class:`LiveWorker` is a "workstation" whose owner can reclaim it;
* a coordinator thread polls on a short interval, matching pending jobs
  to available workers — one placement per cycle, like the deployed
  system's two-minute throttle;
* fairness across submitting users uses the simulator's Up-Down
  policy and :func:`~repro.core.updown.grant_order` (both are pure
  bookkeeping, so they are shared verbatim).

Vacated jobs resume from their last pickle checkpoint on another worker;
nothing is ever restarted from scratch.
"""

import threading
import time

from repro.core.updown import UpDownPolicy, grant_order
from repro.runtime.checkpoint import InMemoryCheckpointStore
from repro.runtime.errors import LiveRuntimeError
from repro.runtime.job import LiveJob
from repro.runtime.worker import LiveWorker
from repro.telemetry import TelemetryHub
from repro.telemetry import kinds


class LiveCluster:
    """A running pool of live workers under one coordinator.

    Emits the same telemetry vocabulary as the simulator — the job
    lifecycle kinds of :mod:`repro.telemetry.kinds`, timed on the wall
    clock — so one dashboard, trace, or report path serves both live
    and simulated executions.
    """

    def __init__(self, worker_names, store=None, poll_interval=0.02,
                 placements_per_cycle=1, hub=None,
                 shutdown_timeout=5.0):
        if not worker_names:
            raise LiveRuntimeError("need at least one worker")
        if poll_interval <= 0:
            raise LiveRuntimeError("poll_interval must be > 0")
        #: Telemetry spine shared with every worker (thread-safe).
        self.hub = hub or TelemetryHub(clock=time.monotonic)
        self.store = store or InMemoryCheckpointStore()
        self.workers = {name: LiveWorker(name, self.store, hub=self.hub)
                        for name in worker_names}
        self.poll_interval = poll_interval
        self.placements_per_cycle = placements_per_cycle
        self.policy = UpDownPolicy()
        self._queue = []
        self._jobs = []
        self.shutdown_timeout = shutdown_timeout
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._thread = None
        self._last_update = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle

    def start(self):
        """Start the coordinator thread.  Idempotent; reopens submission
        after a previous :meth:`shutdown`."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._closed = False
        self._thread = threading.Thread(
            target=self._coordinate, name="live-coordinator", daemon=True
        )
        self._thread.start()

    def shutdown(self):
        """Stop the coordinator (running jobs finish their current work).

        Closes the cluster for submissions, then joins the coordinator
        thread.  A coordinator that outlives ``shutdown_timeout`` is a
        zombie holding real resources: that raises
        :class:`LiveRuntimeError` loudly instead of returning as if the
        shutdown succeeded.
        """
        self._closed = True
        if self._thread is None:
            return
        self._stop.set()
        self._wake.set()
        thread, self._thread = self._thread, None
        thread.join(timeout=self.shutdown_timeout)
        if thread.is_alive():
            raise LiveRuntimeError(
                f"coordinator thread still running after "
                f"{self.shutdown_timeout}s shutdown timeout (zombie)"
            )

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.shutdown()
        return False

    # ------------------------------------------------------------------
    # submission

    def submit(self, fn, name=None, owner="anonymous"):
        """Queue a checkpointable job function; returns the LiveJob.

        Raises after :meth:`shutdown`: with no coordinator left, a
        queued job would silently never run.
        """
        if self._closed:
            raise LiveRuntimeError(
                "cluster is shut down; nothing would ever run this job"
            )
        job = LiveJob(fn, name=name, owner=owner)
        with self._lock:
            self._queue.append(job)
            self._jobs.append(job)
        self.policy.register_station(owner)
        self.hub.emit(kinds.JOB_SUBMITTED, source=owner, job=job,
                      station=owner)
        self.hub.metrics.counter("live.submitted").inc()
        self._wake.set()
        return job

    def wait_all(self, timeout=None):
        """Block until every submitted job finished; returns success."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for job in list(self._jobs):
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            if not job.wait(remaining):
                return False
        return True

    @property
    def jobs(self):
        return list(self._jobs)

    def queue_length(self):
        with self._lock:
            pending = len(self._queue)
        running = sum(1 for w in self.workers.values() if w.busy)
        return pending + running

    # ------------------------------------------------------------------
    # coordinator loop

    def _coordinate(self):
        while not self._stop.is_set():
            self._wake.wait(self.poll_interval)
            self._wake.clear()
            if self._stop.is_set():
                return
            self._cycle()

    def _cycle(self):
        now = time.monotonic()
        dt = (now - self._last_update) if self._last_update else 0.0
        self._last_update = now

        queued = {}
        with self._lock:
            for job in self._queue:
                queued[job.owner] = queued.get(job.owner, 0) + 1
        holding = {}
        for worker in self.workers.values():
            current = worker.current_job()
            if current is not None:
                holding[current.owner] = holding.get(current.owner, 0) + 1
        self.policy.update(queued, holding, dt)

        available = [w for w in self.workers.values() if w.available]
        order = grant_order(self.policy.rank_requesters(queued),
                            min(self.placements_per_cycle, len(available)),
                            queued)
        for worker, owner in zip(available, order):
            job = self._pop_job_of(owner)
            if not worker.start_job(job, self._job_exited):
                with self._lock:
                    self._queue.insert(0, job)

    def _pop_job_of(self, owner):
        with self._lock:
            for i, job in enumerate(self._queue):
                if job.owner == owner:
                    return self._queue.pop(i)
        return None

    def _job_exited(self, job, outcome):
        if outcome == "vacated":
            # Head of the queue, not the tail: a vacated job keeps its
            # age and is re-placed before younger submissions — the
            # simulator's resume-not-restart semantics.
            with self._lock:
                self._queue.insert(0, job)
        self.hub.metrics.counter(f"live.{outcome}").inc()
        self._wake.set()

    def __repr__(self):
        busy = sum(1 for w in self.workers.values() if w.busy)
        return (
            f"<LiveCluster workers={len(self.workers)} busy={busy} "
            f"queued={self.queue_length()}>"
        )
