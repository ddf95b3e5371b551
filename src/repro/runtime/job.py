"""The cooperative-checkpoint contract the station agent runs jobs under.

The 1988 system checkpointed arbitrary 4.3BSD processes transparently
(text/data/bss/stack).  Transparent process checkpointing is not portable
Python, so the live plane substitutes the closest cooperative
equivalent with the same recovery contract — *at most the work since the
last checkpoint is repeated*:

* a job is a function ``fn(ctx, state)`` where ``state`` is the last
  checkpointed state (``None`` on first start);
* the function calls ``ctx.checkpoint(state)`` at safe points; the state
  is pickled durably;
* when the hosting agent wants the job gone, the next ``checkpoint()``
  call persists the state and raises :class:`VacateRequested`, unwinding
  the function; the job later resumes *elsewhere* from exactly that
  state.

Example::

    def count_to(ctx, state):
        i = state or 0
        while i < 10_000:
            i += 1
            if i % 100 == 0:
                ctx.checkpoint(i)
        return i
"""

import threading

from repro.runtime.errors import VacateRequested


class CheckpointContext:
    """Handed to the job function; carries the vacate flag and saver."""

    def __init__(self, job, saver):
        self._job = job
        self._saver = saver
        self._vacate = threading.Event()

    def checkpoint(self, state):
        """Durably save ``state`` as the job's restart point.

        If the hosting agent has asked the job to leave, the state is
        saved and :class:`VacateRequested` is raised — do not catch it.
        """
        self._saver(self._job, state)
        self._job.checkpoint_count += 1
        if self._vacate.is_set():
            raise VacateRequested(self._job.name)

    def request_vacate(self):
        """Agent-side: ask the job to leave at its next safe point."""
        self._vacate.set()
