"""Coordinator-level unit tests: host selection, caps, lost hosts."""

import pytest

from repro.core import (
    CondorConfig,
    CondorSystem,
    Job,
    StationSpec,
    UpDownPolicy,
)
from repro.machine import AlwaysActiveOwner, NeverActiveOwner, TraceOwner
from repro.sim import HOUR, Simulation, SimulationError
from repro.core.coordinator import Coordinator
from repro.net import Network
from repro.telemetry import kinds


def build(sim, host_specs, config=None, policy=None):
    specs = [StationSpec("home", owner_model=AlwaysActiveOwner())]
    specs.extend(host_specs)
    return CondorSystem(sim, specs, config=config, policy=policy,
                        coordinator_host="home")


def submit(system, n=1, demand=10 * HOUR, user="A", home="home"):
    jobs = []
    for _ in range(n):
        job = Job(user=user, home=home, demand_seconds=demand)
        system.submit(job)
        jobs.append(job)
    return jobs


def test_coordinator_requires_stations():
    sim = Simulation()
    with pytest.raises(SimulationError):
        Coordinator(sim, Network(sim), [], UpDownPolicy(), None,
                    CondorConfig())


class TestHostSelection:
    def specs(self):
        # host-a was historically flappy; host-b has one long closed idle
        # interval; host-c has been idle the longest right now.
        return [
            StationSpec("host-a", owner_model=TraceOwner(
                [(100.0, 130.0), (200.0, 230.0), (300.0, 330.0)]
            )),
            StationSpec("host-b", owner_model=TraceOwner([(500.0, 530.0)])),
            StationSpec("host-c", owner_model=NeverActiveOwner()),
        ]

    def run_selection(self, mode):
        sim = Simulation()
        config = CondorConfig(host_selection=mode)
        system = build(sim, self.specs(), config=config)
        system.start()
        placed = []
        system.telemetry.subscribe(
            kinds.JOB_PLACED,
            lambda event: placed.append(event.payload["host"]),
        )
        sim.run(until=1000.0)   # let the owner traces play out
        submit(system, 1)
        sim.run(until=1400.0)
        return placed

    def test_arbitrary_picks_lowest_name(self):
        assert self.run_selection("arbitrary")[0] == "host-a"

    def test_longest_history_prefers_never_reclaimed(self):
        # host-c has no *closed* idle interval -> treated as infinite.
        assert self.run_selection("longest_history")[0] == "host-c"

    def test_current_idle_prefers_longest_current_stretch(self):
        # At poll time host-c has been idle since t=0.
        assert self.run_selection("current_idle")[0] == "host-c"


class TestPerStationCap:
    def test_cap_limits_concurrent_machines(self):
        sim = Simulation()
        config = CondorConfig(max_machines_per_station=2)
        hosts = [StationSpec(f"h{i}", owner_model=NeverActiveOwner())
                 for i in range(5)]
        system = build(sim, hosts, config=config)
        system.start()
        jobs = submit(system, 5)
        sim.run(until=2 * HOUR)
        running = sum(1 for j in jobs if j.state == "running")
        assert running == 2

    def test_uncapped_uses_whole_pool(self):
        sim = Simulation()
        hosts = [StationSpec(f"h{i}", owner_model=NeverActiveOwner())
                 for i in range(5)]
        system = build(sim, hosts)
        system.start()
        jobs = submit(system, 5)
        sim.run(until=2 * HOUR)
        running = sum(1 for j in jobs if j.state == "running")
        assert running == 5

    def test_capped_station_never_triggers_preemption(self):
        sim = Simulation()
        config = CondorConfig(max_machines_per_station=1)
        hosts = [StationSpec("h0", owner_model=NeverActiveOwner())]
        system = build(sim, hosts, config=config)
        system.start()
        submit(system, 3)   # same home station wants more than its cap
        sim.run(until=4 * HOUR)
        assert system.coordinator.preemptions_ordered == 0


class TestLostHostDetection:
    def test_coordinator_notifies_home_of_dead_host(self):
        sim = Simulation()
        system = build(sim, [StationSpec("h0",
                                         owner_model=NeverActiveOwner())])
        system.start()
        job = submit(system, 1, demand=5 * HOUR)[0]
        sim.run(until=600.0)
        assert job.state == "running"
        system.scheduler("h0").crash()
        sim.run(until=1200.0)
        assert job.state == "pending"    # rolled back and requeued
        assert system.telemetry.counts[kinds.HOST_LOST] == 1

    def test_lost_notice_sent_once_per_outage(self):
        sim = Simulation()
        system = build(sim, [StationSpec("h0",
                                         owner_model=NeverActiveOwner())])
        system.start()
        submit(system, 1, demand=100 * HOUR)
        sim.run(until=600.0)
        system.scheduler("h0").crash()
        sim.run(until=3000.0)    # several polls while the host stays dead
        assert system.telemetry.counts[kinds.HOST_LOST] == 1


class TestCycleTelemetry:
    def test_cycle_event_payload(self):
        sim = Simulation()
        system = build(sim, [StationSpec("h0",
                                         owner_model=NeverActiveOwner())])
        cycles = []
        system.telemetry.subscribe(
            kinds.COORDINATOR_CYCLE,
            lambda event: cycles.append(event.payload))
        system.start()
        submit(system, 1)
        sim.run(until=130.0)
        assert len(cycles) == 1
        payload = cycles[0]
        assert payload["wanting"] == ["home"]
        assert payload["grants"] == [("home", "h0")]
        assert payload["unreachable"] == []

    def test_counters(self):
        sim = Simulation()
        system = build(sim, [StationSpec("h0",
                                         owner_model=NeverActiveOwner())])
        system.start()
        submit(system, 1, demand=HOUR)
        sim.run(until=3 * HOUR)
        assert system.coordinator.cycles >= 80
        assert system.coordinator.grants_issued == 1


class TestPollParallelism:
    def test_poll_duration_bounded_by_one_timeout(self):
        # With many crashed stations, polls must time out concurrently,
        # not sequentially — otherwise a cycle would take N x timeout and
        # the coordinator would fall behind its own schedule.
        sim = Simulation()
        specs = [StationSpec("home", owner_model=AlwaysActiveOwner())]
        specs += [StationSpec(f"h{i}", owner_model=NeverActiveOwner())
                  for i in range(20)]
        system = CondorSystem(sim, specs, coordinator_host="home")
        system.start()
        for i in range(20):
            system.scheduler(f"h{i}").crash()
        cycles = []
        system.telemetry.subscribe(
            kinds.COORDINATOR_CYCLE,
            lambda event: cycles.append(event.payload))
        sim.run(until=600.0)
        # Cycles still complete roughly every poll interval + one timeout.
        assert len(cycles) >= 3
        assert all(len(c["unreachable"]) == 20 for c in cycles)


class TestGangWithReservations:
    def test_same_cycle_reservation_beats_gang(self):
        # Reservation service runs before gang co-allocation: when both
        # want the same machines in one cycle, the reservation wins and
        # the gang waits.
        sim = Simulation()
        specs = [
            StationSpec("res-home", owner_model=AlwaysActiveOwner()),
            StationSpec("gang-home", owner_model=AlwaysActiveOwner()),
            StationSpec("p0", owner_model=NeverActiveOwner()),
            StationSpec("p1", owner_model=NeverActiveOwner()),
        ]
        system = CondorSystem(sim, specs, coordinator_host="res-home")
        system.start()
        system.reservations.reserve("res-home", 2, 60.0, 4 * HOUR)
        from repro.core import GangJob
        gang = GangJob(user="g", home="gang-home",
                       demand_seconds=HOUR, width=2)
        system.submit_gang(gang)
        reserved = [Job(user="r", home="res-home", demand_seconds=HOUR)
                    for _ in range(2)]
        sim.schedule(60.0, lambda: [system.submit(j) for j in reserved])
        sim.run(until=20 * 60.0)
        assert all(j.state == "running" for j in reserved)
        assert not gang.launched
        sim.run(until=6 * HOUR)
        assert gang.finished   # launches once the reservation drains
