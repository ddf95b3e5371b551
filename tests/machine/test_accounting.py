"""Tests for the per-station CPU ledger."""

import pytest

from repro.machine import (
    CHECKPOINT,
    OWNER,
    PLACEMENT,
    REMOTE_JOB,
    SYSCALL,
    CpuLedger,
)
from repro.sim import Simulation, SimulationError


@pytest.fixture
def sim():
    return Simulation()


@pytest.fixture
def ledger(sim):
    return CpuLedger(sim, station_name="ws-test")


def test_totals_start_at_zero(ledger):
    assert ledger.total() == 0.0


def test_occupancy_interval_booked(sim, ledger):
    ledger.start(OWNER)
    sim.schedule(10.0, lambda: None)
    sim.run()
    assert ledger.stop(OWNER) == 10.0
    assert ledger.totals[OWNER] == 10.0


def test_double_start_rejected(ledger):
    ledger.start(OWNER)
    with pytest.raises(SimulationError):
        ledger.start(OWNER)


def test_stop_without_start_rejected(ledger):
    with pytest.raises(SimulationError):
        ledger.stop(OWNER)


def test_occupied_reflects_open_interval(ledger):
    assert not ledger.occupied(REMOTE_JOB)
    ledger.start(REMOTE_JOB)
    assert ledger.occupied(REMOTE_JOB)
    ledger.stop(REMOTE_JOB)
    assert not ledger.occupied(REMOTE_JOB)


def test_burst_charge(ledger):
    ledger.charge(PLACEMENT, 2.5)
    assert ledger.totals[PLACEMENT] == 2.5


def test_zero_charge_is_noop(ledger):
    ledger.charge(CHECKPOINT, 0.0)
    assert ledger.totals[CHECKPOINT] == 0.0


def test_negative_charge_rejected(ledger):
    with pytest.raises(SimulationError):
        ledger.charge(PLACEMENT, -1.0)


def test_unknown_category_rejected(ledger):
    with pytest.raises(SimulationError):
        ledger.charge("steam-power", 1.0)


def test_partial_load(sim, ledger):
    ledger.add_load(SYSCALL, 0.0, 100.0, 0.1)
    assert ledger.totals[SYSCALL] == pytest.approx(10.0)


def test_load_fraction_bounds(ledger):
    with pytest.raises(SimulationError):
        ledger.add_load(SYSCALL, 0.0, 1.0, 1.5)


def test_inverted_interval_rejected(ledger):
    with pytest.raises(SimulationError):
        ledger.add_load(SYSCALL, 5.0, 1.0, 0.5)


def test_observers_see_every_entry(sim, ledger):
    seen = []
    ledger.subscribe(lambda *entry: seen.append(entry))
    ledger.start(OWNER)
    sim.schedule(5.0, lambda: None)
    sim.run()
    ledger.stop(OWNER)
    ledger.charge(PLACEMENT, 2.0)
    ledger.add_load(SYSCALL, 1.0, 3.0, 0.25)
    assert (OWNER, 0.0, 5.0, 1.0) in seen
    assert (PLACEMENT, 3.0, 5.0, 1.0) in seen
    assert (SYSCALL, 1.0, 3.0, 0.25) in seen


def test_close_all_flushes_open_intervals(sim, ledger):
    ledger.start(OWNER)
    ledger.start(REMOTE_JOB)
    sim.schedule(7.0, lambda: None)
    sim.run()
    ledger.close_all()
    assert ledger.totals[OWNER] == 7.0
    assert ledger.totals[REMOTE_JOB] == 7.0
    assert not ledger.occupied(OWNER)


def test_total_with_selected_categories(ledger):
    ledger.charge(PLACEMENT, 1.0)
    ledger.charge(CHECKPOINT, 2.0)
    assert ledger.total(PLACEMENT) == 1.0
    assert ledger.total(PLACEMENT, CHECKPOINT) == 3.0
