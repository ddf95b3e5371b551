"""Scheduled-event handles.

An :class:`EventHandle` is a cancellable callback scheduled at an
absolute simulation time.  Cancellation is O(1): the handle is flagged
dead and the kernel skips it when it surfaces in the heap.

``EventHandle`` doubles as the heap entry itself: it subclasses ``list``
with layout ``[time, seq, state, callback, args, sim]``, so heap ordering
is C-level list comparison on ``(time, seq)`` — ``seq`` is unique per
simulation, so the comparison never reaches the payload fields.  This
removes both the per-event wrapper allocation and the Python-level
``__lt__`` calls that dominated the old kernel's profile.
"""

#: Event states.  PENDING is falsy on purpose: the kernel's hot loop tests
#: liveness with a plain truthiness check on the state slot.
PENDING = 0
FIRED = 1
CANCELLED = 2

#: Slot indices of the heap-entry layout (kernel internals index directly).
_TIME = 0
_SEQ = 1
_STATE = 2
_CALLBACK = 3
_ARGS = 4
_SIM = 5


class EventHandle(list):
    """A cancellable callback scheduled at an absolute simulation time.

    Instances are created by :meth:`repro.sim.kernel.Simulation.schedule`;
    user code only ever cancels or inspects them.
    """

    __slots__ = ()

    # No __init__/__new__ override: the kernel constructs handles with
    # list's C-level initialiser — ``EventHandle((time, seq, PENDING,
    # callback, args, sim))`` — so creation costs no Python frames.

    @property
    def time(self):
        """Absolute simulation time the event fires at."""
        return self[_TIME]

    @property
    def seq(self):
        """Tie-break sequence number (FIFO within a timestamp)."""
        return self[_SEQ]

    @property
    def state(self):
        """One of :data:`PENDING`, :data:`FIRED`, :data:`CANCELLED`."""
        return self[_STATE]

    @property
    def callback(self):
        return self[_CALLBACK]

    @property
    def args(self):
        return self[_ARGS]

    def cancel(self):
        """Prevent the callback from running.  Idempotent.

        Returns ``True`` if the event was still pending (and is now
        cancelled), ``False`` if it had already fired or been cancelled.
        """
        if self[_STATE]:
            return False
        self[_STATE] = CANCELLED
        self[_CALLBACK] = None
        self[_ARGS] = None
        sim = self[_SIM]
        if sim is not None:
            sim._note_cancelled()
        return True

    @property
    def pending(self):
        """Whether the event is still scheduled to fire."""
        return not self[_STATE]

    def __repr__(self):
        state = ("pending", "fired", "cancelled")[self[_STATE]]
        return f"<EventHandle t={self[_TIME]:.3f} seq={self[_SEQ]} {state}>"
