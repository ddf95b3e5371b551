"""Tests for gang-launched parallel jobs (future work §5(2))."""

import pytest

from repro.core import (
    CondorConfig,
    CondorSystem,
    GangJob,
    Job,
    StationSpec,
    SubmissionRefused,
)
from repro.machine import AlwaysActiveOwner, NeverActiveOwner, TraceOwner
from repro.sim import DAY, HOUR, Simulation, SimulationError

FOREVER = 10_000_000.0


def build(pool=4, config=None, home_disk=None):
    sim = Simulation()
    specs = [StationSpec("home", owner_model=AlwaysActiveOwner(),
                         disk_mb=home_disk)]
    specs += [StationSpec(f"h{i}", owner_model=NeverActiveOwner())
              for i in range(pool)]
    system = CondorSystem(sim, specs, config=config,
                          coordinator_host="home")
    system.start()
    return sim, system


def test_width_validated():
    with pytest.raises(SimulationError):
        GangJob(user="u", home="home", demand_seconds=HOUR, width=1)


def test_gang_launches_together_and_completes():
    sim, system = build(pool=4)
    gang = GangJob(user="u", home="home", demand_seconds=2 * HOUR,
                   width=3, name="pvm")
    system.submit_gang(gang)
    sim.run(until=DAY)
    assert gang.finished
    # Coordinated launch: members start within seconds of each other
    # (image transfers serialize briefly on the home NIC).
    starts = [m.first_placed_at for m in gang.members]
    assert max(starts) - min(starts) < 5.0
    hosts = {m.placements[0] for m in gang.members}
    assert len(hosts) == 3   # three distinct machines


def test_gang_waits_for_full_width():
    # Only 2 idle machines but width 3: the gang must wait until a third
    # frees up (here: never within the horizon).
    sim, system = build(pool=2)
    gang = GangJob(user="u", home="home", demand_seconds=HOUR, width=3)
    system.submit_gang(gang)
    sim.run(until=12 * HOUR)
    assert not gang.launched
    assert all(m.state == "pending" for m in gang.members)


def test_gang_bypasses_placement_throttle():
    # Default throttle is one placement per 2-minute cycle; a width-4
    # gang still launches all members in one cycle.
    sim, system = build(pool=4)
    gang = GangJob(user="u", home="home", demand_seconds=HOUR, width=4)
    system.submit_gang(gang)
    sim.run(until=10 * 60.0)
    assert gang.launched
    assert gang.launch_delay() < 3 * 60.0
    assert sum(1 for m in gang.members if m.state == "running") == 4


def test_single_jobs_slip_past_waiting_gang():
    # The §5(2) "scheduling problem": a wide gang starves while single
    # jobs keep taking the one machine that is free.
    sim, system = build(pool=2)
    gang = GangJob(user="u", home="home", demand_seconds=HOUR, width=3)
    system.submit_gang(gang)
    single = Job(user="u", home="home", demand_seconds=HOUR)
    system.submit(single)
    sim.run(until=8 * HOUR)
    assert single.finished
    assert not gang.launched


def test_evicted_member_resumes_individually():
    sim = Simulation()
    specs = [
        StationSpec("home", owner_model=AlwaysActiveOwner()),
        StationSpec("h0", owner_model=NeverActiveOwner()),
        # h1's owner comes back for good one hour in.
        StationSpec("h1", owner_model=TraceOwner([(HOUR, FOREVER)])),
        StationSpec("h2", owner_model=NeverActiveOwner()),
    ]
    system = CondorSystem(sim, specs, coordinator_host="home")
    system.start()
    gang = GangJob(user="u", home="home", demand_seconds=3 * HOUR, width=2)
    system.submit_gang(gang)
    sim.run(until=DAY)
    assert gang.finished
    evicted = [m for m in gang.members if m.checkpoint_count > 0]
    assert len(evicted) == 1
    assert evicted[0].wasted_cpu_seconds == 0.0   # resumed from checkpoint


def test_gang_refused_when_disk_cannot_hold_all_members():
    sim, system = build(pool=4, home_disk=1.2)   # fits 2 half-MB images
    gang = GangJob(user="u", home="home", demand_seconds=HOUR, width=3)
    with pytest.raises(SubmissionRefused):
        system.submit_gang(gang)
    assert system.gangs == []


def test_gang_members_tracked_in_system_jobs():
    sim, system = build(pool=4)
    gang = GangJob(user="u", home="home", demand_seconds=HOUR, width=2)
    system.submit_gang(gang)
    assert len(system.jobs) == 2
    assert system.queue_length() == 2


def test_two_gangs_launch_in_priority_order():
    config = CondorConfig()
    sim, system = build(pool=3, config=config)
    first = GangJob(user="u", home="home", demand_seconds=HOUR, width=2)
    second = GangJob(user="u", home="home", demand_seconds=HOUR, width=2)
    system.submit_gang(first)
    system.submit_gang(second)
    sim.run(until=DAY)
    assert first.finished and second.finished
    assert first.launched_at < second.launched_at


def test_completed_at_is_last_member():
    sim, system = build(pool=3)
    gang = GangJob(user="u", home="home", demand_seconds=HOUR, width=2)
    system.submit_gang(gang)
    sim.run(until=DAY)
    assert gang.completed_at == max(m.completed_at for m in gang.members)
    assert sum(m.remote_cpu_seconds for m in gang.members) == pytest.approx(
        2 * HOUR, abs=2.0)
