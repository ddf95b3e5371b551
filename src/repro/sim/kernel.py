"""The discrete-event simulation kernel.

:class:`Simulation` owns the virtual clock and a binary-heap agenda of
:class:`~repro.sim.events.EventHandle` objects.  Everything in the Condor
reproduction — owner arrivals, coordinator polls, checkpoint completions —
is ultimately a callback on this agenda.

The kernel is deliberately small: it waits on time and callbacks only
(a :mod:`repro.sim.process` generator is a callback that reschedules
itself after each delay it yields).  Performance notes (this is the
hottest loop in the repo — a simulated month dispatches ~2M events):

* handles double as heap entries (see :mod:`repro.sim.events`), so heap
  ordering is C-level list comparison — no Python ``__lt__`` calls;
* :meth:`run` drives the one dispatch loop, :meth:`step_until`: a
  single pop per event;
* cancelled handles are skipped lazily, and when too many dead entries
  accumulate (long-dated completion/grace timers that were cancelled)
  the agenda is compacted in place — cancellation stays O(1) while the
  heap stays proportional to *live* events.
"""

import math
from heapq import heapify as _heapify, heappop as _heappop, heappush as _heappush

from repro.sim.errors import SimulationError
from repro.sim.events import FIRED, PENDING, EventHandle
from repro.sim.process import Process

#: One simulated second is the base unit; these are the derived constants.
SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 24 * HOUR
WEEK = 7 * DAY

#: Compact the agenda when at least this many cancelled entries are
#: buried in it *and* they outnumber the live ones (see ``_maybe_compact``).
_COMPACT_MIN_DEAD = 512


class Simulation:
    """A discrete-event simulation: virtual clock plus event agenda.

    Typical use::

        sim = Simulation()
        sim.schedule(10.0, hello)          # callback in 10 simulated seconds
        sim.spawn(my_process())            # generator-based process
        sim.run(until=3600.0)
    """

    __slots__ = ("_now", "_heap", "_nseq", "_ncancelled", "_running",
                 "events_dispatched")

    def __init__(self, start_time=0.0):
        self._now = float(start_time)
        self._heap = []
        self._nseq = 0
        #: Cancelled-but-not-yet-popped entries in the heap.
        self._ncancelled = 0
        self._running = False
        #: number of events dispatched so far (diagnostic)
        self.events_dispatched = 0

    @property
    def now(self):
        """Current simulation time in seconds."""
        return self._now

    def schedule(self, delay, callback, *args, locus=None):
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns a cancellable :class:`EventHandle`.  ``delay`` must be
        non-negative and not NaN; zero-delay events run after all events
        already scheduled for the current instant (FIFO within a
        timestamp).
        """
        if not delay >= 0:                # NaN fails this too
            raise SimulationError(
                f"cannot schedule in the past or at NaN (delay={delay})"
            )
        # condorbench's tracer still forwards this keyword as None; it
        # stays, accepting nothing else, until the tracer drops it.
        if locus is not None:
            raise SimulationError("locus labels are not supported")
        seq = self._nseq
        self._nseq = seq + 1
        handle = EventHandle((self._now + delay, seq, PENDING, callback,
                              args, self))
        _heappush(self._heap, handle)
        return handle

    def schedule_at(self, time, callback, *args, locus=None):
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if not time >= self._now:         # NaN fails this too
            raise SimulationError(
                f"cannot schedule at {time}: before current time "
                f"{self._now} or NaN"
            )
        if locus is not None:             # see schedule()
            raise SimulationError("locus labels are not supported")
        seq = self._nseq
        self._nseq = seq + 1
        handle = EventHandle((time, seq, PENDING, callback, args, self))
        _heappush(self._heap, handle)
        return handle

    def spawn(self, generator, name=None):
        """Start a generator-based process; see :mod:`repro.sim.process`."""
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # cancelled-handle bookkeeping (called by EventHandle.cancel)

    def _note_cancelled(self):
        self._ncancelled += 1
        dead = self._ncancelled
        if dead >= _COMPACT_MIN_DEAD and dead * 2 > len(self._heap):
            self._compact()

    def _compact(self):
        """Drop dead entries and re-heapify, in place.

        In place matters: the dispatch loops hold a local alias to the
        heap list, so the list object must never be replaced.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2]]
        _heapify(heap)
        self._ncancelled = 0

    # ------------------------------------------------------------------
    # dispatch

    def step_until(self, until):
        """Dispatch every event with ``time <= until``; advance the clock.

        The single-pop inner loop behind :meth:`run`: each event costs one
        ``heappop``.  Returns the number of events dispatched.  The clock is
        left at the last dispatched event (use :meth:`run` to pin it to
        ``until`` exactly).
        """
        if until < self._now:
            raise SimulationError(
                f"cannot run until {until}, already at {self._now}"
            )
        heap = self._heap
        pop = _heappop
        dispatched = 0
        while heap:
            handle = heap[0]
            if handle[0] > until:
                break
            pop(heap)
            if handle[2]:                     # cancelled: skip lazily
                self._ncancelled -= 1
                continue
            self._now = handle[0]
            handle[2] = FIRED
            callback = handle[3]
            args = handle[4]
            handle[3] = None
            handle[4] = None
            dispatched += 1
            self.events_dispatched += 1
            callback(*args)
        return dispatched

    def run(self, until=None):
        """Run until the agenda empties or the clock reaches ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so post-run measurements see a
        consistent horizon.
        """
        if self._running:
            raise SimulationError("simulation is already running (reentrant run())")
        self._running = True
        try:
            if until is None:
                self.step_until(math.inf)
            else:
                self.step_until(until)
                self._now = until
        finally:
            self._running = False

    def __repr__(self):
        return (
            f"<Simulation now={self._now:.3f} pending={len(self._heap)} "
            f"dispatched={self.events_dispatched}>"
        )
