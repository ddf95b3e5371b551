"""Deterministic crash/recovery scenarios at the dangerous instants.

Each test pins a failure to the *middle* of a distributed operation —
an image transfer, a checkpoint-back, a coordinator epoch — and asserts
the paper's recovery promise: the job completes exactly once, nothing
is double-hosted, and the accounting identity (useful remote CPU ==
demand) survives the detour.  No randomness is involved: owner activity
comes from replayed traces, so every run is exactly reproducible.
"""

import pytest

from repro.core import (
    CondorConfig,
    CondorSystem,
    InvariantChecker,
    Job,
    StationSpec,
)
from repro.machine import AlwaysActiveOwner, NeverActiveOwner, TraceOwner
from repro.metrics.timeseries import PeriodicSampler
from repro.sim import HOUR, MINUTE, Simulation
from repro.telemetry import kinds


def build(sim, host_owners, config=None):
    """A home plus one station per entry of ``host_owners``."""
    specs = [StationSpec("home", owner_model=AlwaysActiveOwner(),
                         disk_mb=500.0)]
    for name, owner in host_owners.items():
        specs.append(StationSpec(name, owner_model=owner))
    return CondorSystem(sim, specs, config=config, coordinator_host="home")


def collect(hub, *event_kinds):
    events = []
    for kind in event_kinds:
        hub.subscribe(kind, events.append)
    return events


def crash_at_transfer_midpoint(sim, system, victim, downtime,
                               dst=None, src=None):
    """Arm a one-shot observer: crash ``victim`` halfway through the next
    transfer matching ``dst``/``src``; reboot it ``downtime`` later."""
    state = {"armed": True}

    def observe(record):
        if not state["armed"]:
            return
        if dst is not None and record.dst != dst:
            return
        if src is not None and record.src != src:
            return
        state["armed"] = False
        midpoint = (record.start + record.finish) / 2.0

        def crash():
            system.scheduler(victim).crash()
            sim.schedule(downtime, system.scheduler(victim).recover)

        sim.schedule_at(midpoint, crash)

    system.network.add_transfer_observer(observe)
    return state


def run_checked(sim, system, horizon):
    checker = InvariantChecker(system)
    sampler = PeriodicSampler(sim, checker.check, interval=5 * MINUTE,
                              name="invariants")
    system.start()
    sampler.start()
    sim.run(until=horizon)
    system.finalize()
    checker.check_final()
    return checker


def test_host_crash_mid_placement_transfer_requeues_and_completes():
    sim = Simulation()
    system = build(sim, {"h0": NeverActiveOwner()})
    job = Job(user="u", home="home", demand_seconds=2 * HOUR)
    system.submit(job)
    failures = collect(system.telemetry, kinds.TRANSFER_FAILED,
                       kinds.JOB_PLACEMENT_FAILED)
    crash_at_transfer_midpoint(sim, system, victim="h0",
                               downtime=10 * MINUTE, dst="h0")
    run_checked(sim, system, 12 * HOUR)

    assert job.finished
    assert system.telemetry.counts[kinds.JOB_COMPLETED] == 1
    transfer_failures = [e for e in failures
                         if e.kind == kinds.TRANSFER_FAILED]
    assert transfer_failures
    assert transfer_failures[0].payload["purpose"] == "placement"
    assert transfer_failures[0].payload["reason"] == "endpoint_crashed"
    placement_failures = [e for e in failures
                          if e.kind == kinds.JOB_PLACEMENT_FAILED]
    assert any(e.payload["reason"] == "transfer_endpoint_crashed"
               for e in placement_failures)
    # The aborted image never started executing: nothing was wasted.
    assert job.wasted_cpu_seconds == 0.0
    useful = job.remote_cpu_seconds - job.wasted_cpu_seconds
    assert useful == pytest.approx(job.demand_seconds, abs=1.0)


def test_home_crash_mid_checkpoint_back_retries_until_delivered():
    sim = Simulation()
    # The owner reclaims h0 at 2 h (forcing a vacate with ~2 h of
    # progress to checkpoint home) and leaves again at 3 h.
    system = build(sim, {"h0": TraceOwner([(2 * HOUR, 3 * HOUR)])})
    job = Job(user="u", home="home", demand_seconds=4 * HOUR)
    system.submit(job)
    failures = collect(system.telemetry, kinds.TRANSFER_FAILED)
    retries = collect(system.telemetry, kinds.MESSAGE_RETRY)
    # Home dies halfway through the checkpoint-back and reboots 10
    # minutes later; the host must retry until the image lands.
    crash_at_transfer_midpoint(sim, system, victim="home",
                               downtime=10 * MINUTE, dst="home", src="h0")
    run_checked(sim, system, 12 * HOUR)

    assert job.finished
    assert system.telemetry.counts[kinds.JOB_COMPLETED] == 1
    vacate_failures = [e for e in failures
                       if e.payload["purpose"] == "vacate"]
    assert vacate_failures, "the checkpoint-back was never interrupted"
    assert vacate_failures[0].payload["reason"] == "endpoint_crashed"
    assert any(e.payload["op"] == "vacate_transfer" for e in retries)
    # The checkpointed progress survived the home outage: the rerun
    # resumed from the vacate image instead of starting over.
    assert job.wasted_cpu_seconds == 0.0
    useful = job.remote_cpu_seconds - job.wasted_cpu_seconds
    assert useful == pytest.approx(job.demand_seconds, abs=1.0)


def test_home_crash_mid_placement_transfer_requeues_on_reboot():
    sim = Simulation()
    system = build(sim, {"h0": NeverActiveOwner()})
    job = Job(user="u", home="home", demand_seconds=2 * HOUR)
    system.submit(job)
    failures = collect(system.telemetry, kinds.JOB_PLACEMENT_FAILED)
    # Home dies halfway through shipping the image out; the placement's
    # transfer and start RPC die with it, so the reboot itself must
    # revoke the lease and requeue the job.
    crash_at_transfer_midpoint(sim, system, victim="home",
                               downtime=10 * MINUTE, src="home", dst="h0")
    run_checked(sim, system, 12 * HOUR)

    assert job.finished
    assert system.telemetry.counts[kinds.JOB_COMPLETED] == 1
    assert [e.payload["reason"] for e in failures] == ["home_rebooted"]


def test_coordinator_crash_and_failover_under_delta_mode():
    sim = Simulation()
    config = CondorConfig(coordinator_mode="delta")
    system = build(sim, {"h0": NeverActiveOwner(),
                         "h1": NeverActiveOwner()}, config=config)
    first = Job(user="u", home="home", demand_seconds=1 * HOUR)
    system.submit(first)
    system.start()
    sim.run(until=10 * MINUTE)
    assert first.state == "running"

    # The coordinator dies.  Running jobs are unaffected, but a job
    # submitted during the outage cannot be granted a machine.
    system.coordinator.crash()
    stranded = Job(user="u", home="home", demand_seconds=30 * MINUTE)
    system.submit(stranded)
    sim.run(until=40 * MINUTE)
    assert stranded.state == "pending"

    # Restart on a different machine (§2.1: the coordinator is cheap to
    # move).  Its delta-mode view starts empty — every station must be
    # probed back in before scheduling resumes.
    system.coordinator.recover_at(system.stations["h0"])
    assert system.coordinator.host_station is system.stations["h0"]
    sim.run(until=4 * HOUR)
    system.finalize()

    assert first.finished and stranded.finished
    assert system.telemetry.counts[kinds.JOB_COMPLETED] == 2
    InvariantChecker(system).check_final()


def test_partition_zombie_is_reaped_and_books_balance():
    sim = Simulation()
    config = CondorConfig(periodic_checkpoint_interval=15 * MINUTE)
    system = build(sim, {"h0": NeverActiveOwner(),
                         "h1": NeverActiveOwner()}, config=config)
    job = Job(user="u", home="home", demand_seconds=3 * HOUR)
    system.submit(job)
    system.start()
    sim.run(until=30 * MINUTE)
    hosting = [name for name, sched in system.schedulers.items()
               if sched.hosted is not None]
    assert len(hosting) == 1

    # Cut the hosting station off.  The coordinator declares the host
    # lost, the home rolls back to the last periodic checkpoint and
    # re-places the job — while the cut-off host keeps executing a now
    # stale incarnation (a zombie) until its own lease check reaps it.
    system.network.partition([hosting[0]])
    sim.schedule_at(sim.now + 40 * MINUTE, system.network.heal)
    sampler = PeriodicSampler(sim, InvariantChecker(system).check,
                              interval=5 * MINUTE, name="invariants")
    sampler.start()
    sim.run(until=12 * HOUR)
    system.finalize()

    assert job.finished
    assert system.telemetry.counts[kinds.JOB_COMPLETED] == 1
    assert system.telemetry.counts[kinds.HOST_LOST] >= 1
    assert system.telemetry.counts[kinds.STALE_EXECUTION_REAPED] == 1
    assert system.schedulers[hosting[0]].hosted is None
    # The zombie's revoked slice was written off against the rolled-back
    # checkpoint credit: the books closed (no refund left pending) and
    # the identity holds.
    assert job.waste_refund_pending == 0.0
    assert job.wasted_cpu_seconds > 0.0
    useful = job.remote_cpu_seconds - job.wasted_cpu_seconds
    assert useful == pytest.approx(job.demand_seconds, abs=1.0)
    InvariantChecker(system).check_final()
