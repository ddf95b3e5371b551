"""Tests for the typed telemetry hub."""

import pytest

from repro.sim import SimulationError
from repro.telemetry import TelemetryHub, kinds


class TestTelemetryHub:
    def test_emit_returns_typed_event(self):
        hub = TelemetryHub(clock=lambda: 123.5)
        event = hub.emit(kinds.JOB_SUBMITTED, source="ws-1", job="j")
        assert event.seq == 0
        assert event.sim_time == 123.5
        assert event.source == "ws-1"
        assert event.kind == kinds.JOB_SUBMITTED
        assert event.payload == {"job": "j"}

    def test_seq_is_contiguous_across_kinds(self):
        hub = TelemetryHub()
        seqs = [hub.emit(kind).seq for kind in
                (kinds.JOB_SUBMITTED, kinds.JOB_PLACED, kinds.HOST_LOST)]
        assert seqs == [0, 1, 2]
        assert hub.events_emitted == 3

    def test_subscribers_receive_event_objects(self):
        hub = TelemetryHub()
        seen = []
        hub.subscribe(kinds.JOB_PLACED, seen.append)
        hub.emit(kinds.JOB_PLACED, source="h", job="j")
        hub.emit(kinds.JOB_COMPLETED, source="h", job="j")  # not subscribed
        assert [e.kind for e in seen] == [kinds.JOB_PLACED]

    def test_subscribe_all_sees_everything(self):
        hub = TelemetryHub()
        seen = []
        hub.subscribe_all(seen.append)
        hub.emit(kinds.JOB_PLACED)
        hub.emit(kinds.LEDGER_ENTRY, category="owner")
        assert [e.kind for e in seen] == [kinds.JOB_PLACED,
                                          kinds.LEDGER_ENTRY]

    def test_unsubscribe_stops_delivery(self):
        hub = TelemetryHub()
        seen = []
        hub.subscribe(kinds.JOB_PLACED, seen.append)
        assert hub.unsubscribe(kinds.JOB_PLACED, seen.append)
        hub.emit(kinds.JOB_PLACED)
        assert seen == []
        assert not hub.unsubscribe(kinds.JOB_PLACED, seen.append)

    def test_unsubscribe_all_stops_delivery(self):
        hub = TelemetryHub()
        seen = []
        hub.subscribe_all(seen.append)
        assert hub.unsubscribe_all(seen.append)
        hub.emit(kinds.JOB_PLACED)
        assert seen == []

    def test_unknown_kind_rejected(self):
        hub = TelemetryHub()
        with pytest.raises(SimulationError):
            hub.emit("job_teleported")
        with pytest.raises(SimulationError):
            hub.subscribe("job_teleported", lambda e: None)

    def test_failing_subscriber_is_isolated(self):
        hub = TelemetryHub()
        seen = []

        def bad(event):
            raise RuntimeError("boom")

        hub.subscribe(kinds.JOB_PLACED, bad)
        hub.subscribe(kinds.JOB_PLACED, seen.append)
        event = hub.emit(kinds.JOB_PLACED, job="j")
        # The later subscriber still ran; the failure was recorded as
        # both an error record and a telemetry_error event.
        assert [e.seq for e in seen] == [event.seq]
        assert len(hub.errors) == 1
        assert hub.errors[0].kind == kinds.JOB_PLACED
        assert isinstance(hub.errors[0].error, RuntimeError)
        assert hub.counts[kinds.TELEMETRY_ERROR] == 1

    def test_failing_error_subscriber_does_not_recurse(self):
        hub = TelemetryHub()

        def bad(event):
            raise RuntimeError("boom")

        hub.subscribe_all(bad)
        hub.emit(kinds.JOB_PLACED)
        # One failure for the original event, one for the telemetry_error
        # event — and no further recursion.
        assert len(hub.errors) == 2
        assert hub.counts[kinds.TELEMETRY_ERROR] == 1

    def test_error_log_is_bounded(self):
        hub = TelemetryHub()
        hub.subscribe(kinds.JOB_PLACED, lambda e: 1 / 0)
        for _ in range(hub.MAX_ERRORS + 50):
            hub.emit(kinds.JOB_PLACED)
        assert len(hub.errors) == hub.MAX_ERRORS


class TestSourceDefault:
    """An emitter that names no source gets the station (else the host)
    its payload is about — what every daemon call site relies on."""

    def test_station_field_is_the_source(self):
        event = TelemetryHub().emit(kinds.JOB_SUBMITTED, job="j",
                                    station="ws-1")
        assert event.source == "ws-1"
        assert event.payload == {"job": "j", "station": "ws-1"}

    def test_host_field_when_there_is_no_station(self):
        event = TelemetryHub().emit(kinds.JOB_PLACED, job="j", host="h",
                                    home="m")
        assert event.source == "h"

    def test_station_wins_over_host(self):
        event = TelemetryHub().emit(kinds.TRANSFER_FAILED, station="s",
                                    host="h")
        assert event.source == "s"

    def test_neither_field_leaves_the_source_empty(self):
        assert TelemetryHub().emit(kinds.COORDINATOR_CYCLE).source == ""

    def test_explicit_source_is_kept(self):
        hub = TelemetryHub()
        assert hub.emit(kinds.JOB_SUBMITTED, source="owner",
                        station="ws-1").source == "owner"
        assert hub.emit(kinds.JOB_SUBMITTED, source="",
                        station="ws-1").source == ""


class TestDispatchFastPath:
    """The precomputed per-kind dispatch table behind emit()/wants()."""

    def test_wants_reflects_targeted_subscription(self):
        hub = TelemetryHub()
        assert not hub.wants(kinds.LEDGER_ENTRY)
        callback = lambda event: None  # noqa: E731
        hub.subscribe(kinds.LEDGER_ENTRY, callback)
        assert hub.wants(kinds.LEDGER_ENTRY)
        assert not hub.wants(kinds.JOB_SUBMITTED)
        hub.unsubscribe(kinds.LEDGER_ENTRY, callback)
        assert not hub.wants(kinds.LEDGER_ENTRY)

    def test_wants_reflects_catch_all(self):
        hub = TelemetryHub()
        recorder = lambda event: None  # noqa: E731
        hub.subscribe_all(recorder)
        assert hub.wants(kinds.LEDGER_ENTRY)
        assert hub.wants(kinds.JOB_SUBMITTED)
        hub.unsubscribe_all(recorder)
        assert not hub.wants(kinds.LEDGER_ENTRY)

    def test_wants_unknown_kind_false(self):
        hub = TelemetryHub()
        assert not hub.wants("never_registered")

    def test_emit_with_no_subscribers_still_counts(self):
        # The zero-subscriber fast path must preserve the seq/counts
        # contract the trace replayer relies on.
        hub = TelemetryHub()
        first = hub.emit(kinds.JOB_SUBMITTED, source="a", job=1)
        second = hub.emit(kinds.JOB_COMPLETED, source="b")
        assert (first.seq, second.seq) == (0, 1)
        assert hub.counts[kinds.JOB_SUBMITTED] == 1
        assert hub.events_emitted == 2

    def test_subscription_during_emit_affects_next_emit_only(self):
        hub = TelemetryHub()
        seen = []

        def late_subscriber(event):
            seen.append(("late", event.seq))

        def first_subscriber(event):
            seen.append(("first", event.seq))
            hub.subscribe(kinds.JOB_SUBMITTED, late_subscriber)

        hub.subscribe(kinds.JOB_SUBMITTED, first_subscriber)
        hub.emit(kinds.JOB_SUBMITTED)
        hub.unsubscribe(kinds.JOB_SUBMITTED, first_subscriber)
        hub.emit(kinds.JOB_SUBMITTED)
        assert seen == [("first", 0), ("late", 1)]

    def test_ledger_skips_hub_when_nobody_listens(self):
        from repro.machine.accounting import REMOTE_JOB, CpuLedger
        from repro.sim import Simulation

        sim = Simulation()
        hub = TelemetryHub()
        ledger = CpuLedger(sim, station_name="ws-1", hub=hub)
        ledger.charge(REMOTE_JOB, 5.0)
        assert hub.events_emitted == 0          # skipped entirely
        seen = []
        hub.subscribe(kinds.LEDGER_ENTRY, seen.append)
        ledger.charge(REMOTE_JOB, 5.0)
        assert hub.events_emitted == 1
        assert seen[0].payload["booked"] == 5.0
