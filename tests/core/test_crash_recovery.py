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


def build(sim, host_owners, config=None, coordinator_host="home"):
    """A home plus one station per entry of ``host_owners``."""
    specs = [StationSpec("home", owner_model=AlwaysActiveOwner(),
                         disk_mb=500.0)]
    for name, owner in host_owners.items():
        specs.append(StationSpec(name, owner_model=owner))
    return CondorSystem(sim, specs, config=config,
                        coordinator_host=coordinator_host)


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


def test_suspended_job_survives_lost_start_acks_and_host_crash():
    sim = Simulation()
    # The coordinator runs on ``c``, so cutting the home off leaves it
    # polling h0.  h0's owner arrives ~30 s after the job lands there and
    # has left before h0 comes back from its crash.
    system = build(sim, {"c": AlwaysActiveOwner(),
                         "h0": TraceOwner([(150.0, 30 * MINUTE)])},
                   coordinator_host="c")
    job = Job(user="u", home="home", demand_seconds=2 * HOUR)
    system.submit(job)
    seen = collect(system.telemetry, kinds.JOB_SUSPENDED,
                   kinds.MESSAGE_GIVE_UP, kinds.JOB_PLACEMENT_FAILED,
                   kinds.HOST_LOST)
    landed = []

    def observe(record):
        if landed or (record.src, record.dst) != ("home", "h0"):
            return
        landed.append(record.finish)
        # 3 ms after the image lands the home is cut off for 20 min: h0
        # starts the job, but every ack of the start RPC is lost and the
        # home gives the RPC up while the owner has the job suspended.
        sim.schedule_at(record.finish + 0.003, system.network.partition,
                        ["home"])
        sim.schedule_at(record.finish + 20 * MINUTE, system.network.heal)
        # Then h0 crashes, and reboots 30 min later.
        h0 = system.scheduler("h0")
        sim.schedule_at(record.finish + 4 * MINUTE, h0.crash)
        sim.schedule_at(record.finish + 34 * MINUTE, h0.recover)

    system.network.add_transfer_observer(observe)
    run_checked(sim, system, 12 * HOUR)

    assert landed
    # The give-up left the suspended job mapped to h0, so the
    # coordinator's host-lost notice reached it and it was re-placed.
    assert [e.kind for e in seen] == [kinds.JOB_SUSPENDED,
                                      kinds.MESSAGE_GIVE_UP,
                                      kinds.HOST_LOST]
    assert seen[1].payload["op"] == "start_job"
    assert job.finished
    assert system.telemetry.counts[kinds.JOB_COMPLETED] == 1


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


def test_coordinator_crashed_mid_round_absorbs_nothing():
    """A coordinator that dies with probes in flight folds none of the
    round into its view and sends no ``host_lost``; after
    ``recover_at`` its first round probes every station back in."""
    sim = Simulation()
    system = build(sim, {"h0": NeverActiveOwner(),
                         "h1": NeverActiveOwner()})
    placed = collect(system.telemetry, kinds.JOB_PLACED)
    job = Job(user="u", home="home", demand_seconds=2 * HOUR)
    system.submit(job)
    system.start()
    sim.run(until=10 * MINUTE)
    assert job.state == "running"
    host = placed[0].payload["host"]

    coordinator = system.coordinator
    net = system.network
    rounds = []
    fan_out = net.rpc_batch

    def spy(targets, *args, **kwargs):
        rounds.append(list(targets))
        return fan_out(targets, *args, **kwargs)

    net.rpc_batch = spy
    # Advance one hop at a time: a probe sent inside a slice lands
    # after the slice ends.
    while not rounds:
        sim.run(until=sim.now + net.latency)
    # The tick just sent its probes (the job's host among them); none
    # has been delivered yet.
    assert host in rounds[0]
    assert net.outstanding_rpcs()
    applied = coordinator._ctr_applied.value
    seqs = dict(coordinator.view.seqs)
    system.scheduler(host).crash()
    coordinator.crash()
    sim.run(until=sim.now + 5 * MINUTE)   # well past the round's deadline

    assert coordinator._ctr_applied.value == applied
    assert coordinator.view.seqs == seqs
    assert not coordinator.view.quarantined
    assert system.telemetry.counts[kinds.HOST_LOST] == 0
    assert net.outstanding_rpcs() == []   # the dead round closed its tickets
    assert job.state == "running"         # its home has not been told

    rounds.clear()
    cycles = collect(system.telemetry, kinds.COORDINATOR_CYCLE)
    coordinator.recover_at(system.stations["home"])
    sim.run(until=sim.now + 5 * MINUTE)
    assert rounds[0] == coordinator.station_names
    assert cycles[0].payload["unreachable"] == [host]
    assert system.telemetry.counts[kinds.HOST_LOST] == 1

    sim.run(until=6 * HOUR)
    system.finalize()
    assert job.finished
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
