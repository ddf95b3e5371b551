"""Typed telemetry events and the hub that carries them.

The hub is the system's single observability spine: every layer —
local schedulers, the coordinator, CPU ledgers, the fault injector — emits
:class:`TelemetryEvent` records through one :class:`TelemetryHub`, and
every consumer — metrics collectors, trace recorders, dashboards, tests —
subscribes to it.  Properties the rest of the repo relies on:

* **typed records** — every emission is a ``TelemetryEvent`` with a
  monotonically increasing ``seq``, the simulation (or wall) time from
  the bound clock, a ``source`` (usually a station name), a ``kind``
  from :mod:`repro.telemetry.kinds`, and the payload dict;
* **deterministic** — ``seq`` and delivery order depend only on emission
  order, so a seeded simulation produces an identical event stream;
* **isolated** — a subscriber that raises does not abort the emitter;
  the failure is recorded in :attr:`TelemetryHub.errors` and re-emitted
  as a :data:`~repro.telemetry.kinds.TELEMETRY_ERROR` event;
* **thread-safe** — any thread may emit.
"""

import threading
from dataclasses import dataclass, field

from repro.sim.errors import SimulationError
from repro.telemetry import kinds as _kinds
from repro.telemetry.metrics import MetricsRegistry


class UnknownEventKind(SimulationError):
    """An event kind outside the hub's registered vocabulary."""


@dataclass(slots=True)
class TelemetryEvent:
    """One structured observation: who did what, when."""

    #: Emission sequence number, contiguous from 0 per hub.
    seq: int
    #: Clock reading at emission (simulation seconds, or wall seconds
    #: under a wall clock).
    sim_time: float
    #: Emitting component, usually a station/worker name.
    source: str
    #: Event kind from :mod:`repro.telemetry.kinds`.
    kind: str
    #: Event-specific fields (jobs, hosts, reasons, ledger intervals).
    payload: dict = field(default_factory=dict)


class SubscriberError:
    """Record of one isolated subscriber failure."""

    __slots__ = ("seq", "kind", "subscriber", "error")

    def __init__(self, seq, kind, subscriber, error):
        self.seq = seq
        self.kind = kind
        self.subscriber = subscriber
        self.error = error

    def __repr__(self):
        return (f"<SubscriberError seq={self.seq} kind={self.kind} "
                f"{self.error!r}>")


class TelemetryHub:
    """Central pub/sub spine for typed telemetry events.

    Subscribers receive the :class:`TelemetryEvent` object itself
    (``callback(event)``).
    """

    #: Isolated subscriber failures kept in memory, oldest dropped first.
    MAX_ERRORS = 256

    def __init__(self, clock=None, kinds=_kinds.ALL_KINDS):
        #: Zero-argument callable giving the current time for events.
        self.clock = clock or (lambda: 0.0)
        self._kinds = set(kinds)
        self._subscribers = {}        # kind -> [callback(event)]
        self._all_subscribers = []
        #: Events emitted so far per kind (all registered kinds present).
        self.counts = {kind: 0 for kind in sorted(self._kinds)}
        #: Isolated subscriber failures (bounded, see MAX_ERRORS).
        self.errors = []
        #: The run's metric instruments ride on the same spine.
        self.metrics = MetricsRegistry()
        self._seq = 0
        self._lock = threading.Lock()
        # kind -> tuple of delivery targets (targeted + catch-all),
        # rebuilt on any subscription change so emit() never copies lists.
        self._dispatch = {kind: () for kind in sorted(self._kinds)}

    def _rebuild_dispatch(self):
        """Recompute the per-kind delivery tuples (lock held by caller)."""
        catch_all = tuple(self._all_subscribers)
        self._dispatch = {
            kind: tuple(self._subscribers.get(kind, ())) + catch_all
            for kind in sorted(self._kinds)
        }

    # ------------------------------------------------------------------
    # configuration

    def bind_clock(self, clock):
        """Time events with ``clock()`` from now on (e.g. ``sim.now``)."""
        self.clock = clock

    def _check(self, kind):
        if kind not in self._kinds:
            raise UnknownEventKind(f"unknown event kind {kind!r}")

    # ------------------------------------------------------------------
    # subscription

    def subscribe(self, kind, callback):
        """Deliver every ``kind`` event to ``callback(event)``."""
        self._check(kind)
        with self._lock:
            self._subscribers.setdefault(kind, []).append(callback)
            self._rebuild_dispatch()

    def unsubscribe(self, kind, callback):
        """Remove one registration; returns whether one was found."""
        self._check(kind)
        with self._lock:
            callbacks = self._subscribers.get(kind, [])
            if callback in callbacks:
                callbacks.remove(callback)
                self._rebuild_dispatch()
                return True
        return False

    def subscribe_all(self, callback):
        """Deliver *every* event to ``callback(event)`` (trace recorders)."""
        with self._lock:
            self._all_subscribers.append(callback)
            self._rebuild_dispatch()

    def unsubscribe_all(self, callback):
        """Remove a :meth:`subscribe_all` registration."""
        with self._lock:
            if callback in self._all_subscribers:
                self._all_subscribers.remove(callback)
                self._rebuild_dispatch()
                return True
        return False

    def wants(self, kind):
        """Whether any subscriber would see a ``kind`` event right now.

        Hot emitters (the CPU ledger books thousands of intervals per
        simulated day) call this before building a payload dict, so an
        unobserved run skips the allocation entirely.
        """
        return bool(self._dispatch.get(kind))

    # ------------------------------------------------------------------
    # emission

    def emit(self, kind, source=None, **payload):
        """Build, count, and deliver one typed event; returns it.

        An emitter that names no ``source`` gets the component its
        payload is about: the ``station`` field, else the ``host``
        field, else ``""``.  This is the only place that default lives.

        The delivery list is the precomputed per-kind tuple maintained by
        :meth:`_rebuild_dispatch` — emit never copies subscriber lists,
        and with no subscribers it reduces to two counter bumps and the
        event construction.
        """
        try:
            callbacks = self._dispatch[kind]
        except KeyError:
            raise UnknownEventKind(f"unknown event kind {kind!r}") from None
        if source is None:
            source = payload.get("station") or payload.get("host") or ""
        with self._lock:
            seq = self._seq
            self._seq = seq + 1
            self.counts[kind] += 1
        event = TelemetryEvent(seq, self.clock(), source, kind, payload)
        for callback in callbacks:
            try:
                callback(event)
            except Exception as exc:
                self._record_error(event, callback, exc)
        return event

    def _record_error(self, event, callback, exc):
        """Isolate a failing subscriber: record, re-emit, never raise."""
        self.errors.append(
            SubscriberError(event.seq, event.kind, callback, exc)
        )
        del self.errors[:-self.MAX_ERRORS]
        if event.kind != _kinds.TELEMETRY_ERROR:
            # Recursion is bounded: a failure while delivering the error
            # event itself is recorded but not re-emitted.
            self.emit(
                _kinds.TELEMETRY_ERROR, source=event.source,
                failed_kind=event.kind, failed_seq=event.seq,
                error=f"{type(exc).__name__}: {exc}",
            )

    # ------------------------------------------------------------------

    @property
    def events_emitted(self):
        """Total events emitted across all kinds."""
        return self._seq

    def __repr__(self):
        live = {k: c for k, c in sorted(self.counts.items()) if c}
        return f"<TelemetryHub events={self._seq} {live}>"
