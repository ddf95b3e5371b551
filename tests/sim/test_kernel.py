"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import Simulation, SimulationError


def test_clock_starts_at_zero():
    sim = Simulation()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulation(start_time=100.0)
    assert sim.now == 100.0


def test_schedule_and_run_advances_clock():
    sim = Simulation()
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]
    assert sim.now == 5.0


def test_events_fire_in_time_order():
    sim = Simulation()
    seen = []
    sim.schedule(3.0, seen.append, "c")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(2.0, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    sim = Simulation()
    seen = []
    for tag in "abcde":
        sim.schedule(1.0, seen.append, tag)
    sim.run()
    assert seen == list("abcde")


def test_zero_delay_event_runs_after_current_instant_queue():
    sim = Simulation()
    seen = []

    def first():
        seen.append("first")
        sim.schedule(0.0, seen.append, "nested")

    sim.schedule(1.0, first)
    sim.schedule(1.0, seen.append, "second")
    sim.run()
    assert seen == ["first", "second", "nested"]


def test_negative_delay_rejected():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulation(start_time=10.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


@pytest.mark.parametrize("schedule", [
    lambda sim: sim.schedule(float("nan"), lambda: None),
    lambda sim: sim.schedule_at(float("nan"), lambda: None),
], ids=["schedule", "schedule_at"])
def test_nan_time_rejected(schedule):
    sim = Simulation()
    with pytest.raises(SimulationError, match="NaN"):
        schedule(sim)
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.now == 1.0


def test_cancel_prevents_callback():
    sim = Simulation()
    seen = []
    handle = sim.schedule(1.0, seen.append, "x")
    assert handle.cancel() is True
    sim.run()
    assert seen == []


def test_cancel_is_idempotent():
    sim = Simulation()
    handle = sim.schedule(1.0, lambda: None)
    assert handle.cancel() is True
    assert handle.cancel() is False


def test_cancel_after_fire_returns_false():
    sim = Simulation()
    handle = sim.schedule(1.0, lambda: None)
    sim.run()
    assert handle.cancel() is False


def test_run_until_stops_clock_exactly():
    sim = Simulation()
    seen = []
    sim.schedule(10.0, seen.append, "late")
    sim.run(until=7.0)
    assert seen == []
    assert sim.now == 7.0
    sim.run(until=12.0)
    assert seen == ["late"]
    assert sim.now == 12.0


def test_run_until_in_past_rejected():
    sim = Simulation(start_time=50.0)
    with pytest.raises(SimulationError):
        sim.run(until=10.0)


def test_event_at_exact_until_boundary_fires():
    sim = Simulation()
    seen = []
    sim.schedule(5.0, seen.append, "edge")
    sim.run(until=5.0)
    assert seen == ["edge"]


def test_events_dispatched_counter():
    sim = Simulation()
    for _ in range(4):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_dispatched == 4


def test_callback_can_schedule_more_events():
    sim = Simulation()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_reentrant_run_rejected():
    sim = Simulation()

    def bad():
        sim.run()

    sim.schedule(1.0, bad)
    with pytest.raises(SimulationError):
        sim.run()


# ----------------------------------------------------------------------
# fast-path internals: step_until and lazy-deletion compaction


def test_step_until_dispatches_due_events_only():
    sim = Simulation()
    seen = []
    for t in (1.0, 2.0, 3.0, 4.0):
        sim.schedule(t, seen.append, t)
    assert sim.step_until(2.5) == 2
    assert seen == [1.0, 2.0]
    assert sim.now == 2.0  # clock stays at the last dispatched event
    assert sim.step_until(10.0) == 2
    assert seen == [1.0, 2.0, 3.0, 4.0]


def test_step_until_rejects_past_horizon():
    sim = Simulation(start_time=50.0)
    with pytest.raises(SimulationError):
        sim.step_until(10.0)


def test_step_until_skips_cancelled():
    sim = Simulation()
    seen = []
    keep = sim.schedule(1.0, seen.append, "keep")
    sim.schedule(2.0, seen.append, "dead").cancel()
    sim.schedule(3.0, seen.append, "late")
    assert keep.pending
    assert sim.step_until(5.0) == 2
    assert seen == ["keep", "late"]


def test_cancelled_entries_are_compacted():
    from repro.sim import kernel

    sim = Simulation()
    handles = [sim.schedule(1e6 + i, lambda: None) for i in range(2000)]
    sim.schedule(0.5, lambda: None)
    for handle in handles:
        handle.cancel()
    # Compaction keeps the agenda proportional to the live events plus
    # a bounded tail of uncompacted dead ones.
    assert len(sim._heap) <= 1 + kernel._COMPACT_MIN_DEAD
    assert sim._ncancelled < kernel._COMPACT_MIN_DEAD
    sim.run()
    assert sim.events_dispatched == 1


def test_cancel_notes_are_balanced_by_lazy_pops():
    sim = Simulation()
    live = []
    for i in range(10):
        handle = sim.schedule(float(i + 1), live.append, i)
        if i % 2:
            handle.cancel()
    sim.run()
    assert live == [0, 2, 4, 6, 8]
    assert sim._ncancelled == 0


def test_compaction_preserves_dispatch_order():
    """Interleave live and (more than _COMPACT_MIN_DEAD) cancelled
    events, force the in-place compaction, and verify the survivors
    still fire in exactly the order an uncompacted agenda would."""
    from repro.sim import kernel

    n_dead = kernel._COMPACT_MIN_DEAD + 200
    n_live = 300     # fewer live than dead, so the dead-majority trips
    sim = Simulation()
    seen = []
    doomed = []
    live_times = []
    for i in range(n_dead):
        if i < n_live:
            # Live events at odd times, doomed timers interleaved.
            t = 1.0 + 2.0 * i
            sim.schedule(t, seen.append, t)
            live_times.append(t)
        doomed.append(sim.schedule(2.0 + 2.0 * i, seen.append, "dead"))
    before = len(sim._heap)
    for handle in doomed:
        handle.cancel()
    assert len(sim._heap) < before, "compaction never ran"
    assert sim._ncancelled < kernel._COMPACT_MIN_DEAD
    sim.run()
    assert seen == live_times
    assert sim.events_dispatched == n_live
    assert sim._ncancelled == 0


def test_compaction_preserves_same_timestamp_fifo():
    """Compacting the agenda must keep the (time, seq) entries intact —
    same-timestamp events still dispatch in scheduling order."""
    from repro.sim import kernel

    sim = Simulation()
    seen = []
    doomed = [sim.schedule(1e6 + i, seen.append, "dead")
              for i in range(kernel._COMPACT_MIN_DEAD + 50)]
    for label in (5, 3, 1):
        sim.schedule(10.0, seen.append, label)
    for handle in doomed:
        handle.cancel()
    assert sim._ncancelled < kernel._COMPACT_MIN_DEAD
    sim.run(until=20.0)
    assert seen == [5, 3, 1]


def test_locus_labels_are_rejected():
    # The keyword survives only because condorbench's tracer forwards
    # it as None; any real label is an error.
    sim = Simulation()
    assert sim.schedule(1.0, lambda: None, locus=None) is not None
    with pytest.raises(SimulationError, match="locus"):
        sim.schedule(1.0, lambda: None, locus=3)
    with pytest.raises(SimulationError, match="locus"):
        sim.schedule_at(1.0, lambda: None, locus=3)
