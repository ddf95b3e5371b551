"""Checkpointable jobs for the live runtime.

The 1988 system checkpointed arbitrary 4.3BSD processes transparently
(text/data/bss/stack).  Transparent process checkpointing is not portable
Python, so the live runtime substitutes the closest cooperative
equivalent with the same recovery contract — *at most the work since the
last checkpoint is repeated*:

* a job is a function ``fn(ctx, state)`` where ``state`` is the last
  checkpointed state (``None`` on first start);
* the function calls ``ctx.checkpoint(state)`` at safe points; the state
  is pickled durably;
* when the hosting worker is reclaimed, the next ``checkpoint()`` call
  persists the state and raises :class:`VacateRequested`, unwinding the
  function; the job later resumes *elsewhere* from exactly that state.

Example::

    def count_to(ctx, state):
        i = state or 0
        while i < 10_000:
            i += 1
            if i % 100 == 0:
                ctx.checkpoint(i)
        return i
"""

import itertools
import threading
import time

from repro.runtime.errors import LiveRuntimeError, VacateRequested

PENDING = "pending"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"

_live_ids = itertools.count(1)


class CheckpointContext:
    """Handed to the job function; carries the vacate flag and saver."""

    def __init__(self, job, saver):
        self._job = job
        self._saver = saver
        self._vacate = threading.Event()

    def checkpoint(self, state):
        """Durably save ``state`` as the job's restart point.

        If the hosting worker has asked the job to leave, the state is
        saved and :class:`VacateRequested` is raised — do not catch it.
        """
        self._saver(self._job, state)
        self._job.checkpoint_count += 1
        if self._vacate.is_set():
            raise VacateRequested(self._job.name)

    def request_vacate(self):
        """Worker-side: ask the job to leave at its next safe point."""
        self._vacate.set()


class LiveJob:
    """A submitted checkpointable job and its execution record."""

    def __init__(self, fn, name=None, owner="anonymous"):
        if not callable(fn):
            raise LiveRuntimeError(f"job fn must be callable, got {fn!r}")
        self.id = next(_live_ids)
        self.fn = fn
        self.name = name or f"live-job-{self.id}"
        self.owner = owner
        self.status = PENDING
        self.result = None
        self.error = None
        self.submitted_at = time.monotonic()
        self.completed_at = None
        #: Number of checkpoints the job has cut (all placements).
        self.checkpoint_count = 0
        #: Worker names the job has executed on, in order.
        self.placements = []
        #: Times the job was vacated off a reclaimed worker.
        self.vacated_count = 0
        self.done = threading.Event()

    @property
    def finished(self):
        return self.status in (COMPLETED, FAILED)

    def wait(self, timeout=None):
        """Block until the job completes or fails; returns success."""
        return self.done.wait(timeout)

    def _complete(self, result):
        self.status = COMPLETED
        self.result = result
        self.completed_at = time.monotonic()
        self.done.set()

    def _fail(self, error):
        self.status = FAILED
        self.error = error
        self.completed_at = time.monotonic()
        self.done.set()

    def __repr__(self):
        return (
            f"<LiveJob {self.name} owner={self.owner} {self.status} "
            f"ckpts={self.checkpoint_count} moves={self.vacated_count}>"
        )
