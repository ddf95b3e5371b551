"""Tests for the queue-length monitor."""

from repro.core import CondorSystem, Job, StationSpec
from repro.machine import AlwaysActiveOwner
from repro.metrics import QueueLengthMonitor
from repro.sim import HOUR, Simulation


def test_monitor_tracks_total_light_and_heavy():
    sim = Simulation()
    # No hosts: jobs just sit in the queue, so counts are deterministic.
    specs = [StationSpec("home", owner_model=AlwaysActiveOwner())]
    system = CondorSystem(sim, specs)
    monitor = QueueLengthMonitor(sim, system, light_users={"B"},
                                 interval=HOUR)
    system.start()
    monitor.start()
    for user, count in (("A", 3), ("B", 2)):
        for _ in range(count):
            system.submit(Job(user=user, home="home",
                              demand_seconds=10 * HOUR))
    sim.run(until=3.5 * HOUR)
    assert monitor.total.values() == [5, 5, 5]
    assert monitor.light.values() == [2, 2, 2]
    assert monitor.heavy_values() == [3, 3, 3]


def test_window_extraction():
    sim = Simulation()
    specs = [StationSpec("home", owner_model=AlwaysActiveOwner())]
    system = CondorSystem(sim, specs)
    monitor = QueueLengthMonitor(sim, system, light_users=set(),
                                 interval=HOUR)
    system.start()
    monitor.start()
    sim.run(until=10 * HOUR)
    window = monitor.total.window(2 * HOUR, 5 * HOUR)
    assert [t for t, _v in window] == [2 * HOUR, 3 * HOUR, 4 * HOUR]
