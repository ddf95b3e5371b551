"""Tests for the workstation model."""

import pytest

from repro.machine import AlternatingOwner, TraceOwner, Workstation
from repro.sim import Constant, RandomStream, Simulation, SimulationError


def test_defaults():
    sim = Simulation()
    station = Workstation(sim, "ws-1")
    assert station.idle
    assert not station.hosting
    assert station.disk.free_mb > 0


def test_cpu_speed_validated():
    sim = Simulation()
    with pytest.raises(SimulationError):
        Workstation(sim, "ws-1", cpu_speed=0)


def test_owner_arrival_books_cpu():
    sim = Simulation()
    station = Workstation(
        sim, "ws-1", owner_model=TraceOwner([(10.0, 25.0)])
    )
    station.start()
    sim.run(until=100.0)
    assert station.ledger.totals["owner"] == pytest.approx(15.0)


def test_double_arrival_is_error():
    sim = Simulation()
    station = Workstation(sim, "ws-1")
    station.owner_arrived()
    with pytest.raises(SimulationError):
        station.owner_arrived()


def test_departure_without_arrival_is_error():
    sim = Simulation()
    station = Workstation(sim, "ws-1")
    with pytest.raises(SimulationError):
        station.owner_departed()


def test_start_is_idempotent():
    sim = Simulation()
    station = Workstation(
        sim, "ws-1", owner_model=TraceOwner([(5.0, 10.0)])
    )
    station.start()
    station.start()
    sim.run(until=20.0)
    # A double-start would raise on the second owner_arrived.
    assert station.ledger.totals["owner"] == pytest.approx(5.0)


def test_idle_history_records_closed_intervals():
    sim = Simulation()
    station = Workstation(
        sim, "ws-1", owner_model=TraceOwner([(100.0, 150.0), (300.0, 310.0)])
    )
    station.start()
    sim.run(until=400.0)
    assert station.idle_history == [(0.0, 100.0), (150.0, 300.0)]
    assert station.mean_idle_interval() == pytest.approx(125.0)


def test_mean_idle_interval_none_before_first_interval():
    sim = Simulation()
    station = Workstation(sim, "ws-1")
    assert station.mean_idle_interval() is None


def test_owner_observers_fire_in_order():
    sim = Simulation()
    stream = RandomStream(2)
    station = Workstation(
        sim, "ws-1",
        owner_model=AlternatingOwner(Constant(10.0), Constant(5.0), stream),
    )
    events = []
    station.on_owner_change(lambda st, active: events.append(active))
    station.start()
    sim.run(until=31.0)
    assert events == [True, False, True, False]
