"""Chaos subsystem tests: schedules, injectors, the no-lost-jobs checker,
and the acceptance suite (every named scenario completes with zero lost
jobs, zero duplicate completions, and a byte-identical replay)."""

import json

import pytest

from repro.analysis.chaos import SCHEDULES, replay_identical, run_chaos
from repro.core import (
    CondorSystem,
    Job,
    StationSpec,
)
from repro.faults import (
    ChaosInjector,
    ChaosSchedule,
    CrashCoordinator,
    CrashInjector,
    CrashMidTransfer,
    CrashStation,
    FaultAction,
    LossBurst,
    NoLostJobsChecker,
    NoLostJobsViolation,
    Partition,
)
from repro.machine import AlwaysActiveOwner, NeverActiveOwner
from repro.sim import HOUR, MINUTE, RandomStream, Simulation, SimulationError
from repro.sim.randomness import Constant
from repro.telemetry import kinds


def build_system(hosts=2, config=None):
    sim = Simulation()
    specs = [StationSpec("home", owner_model=AlwaysActiveOwner(),
                         disk_mb=500.0)]
    for i in range(hosts):
        specs.append(StationSpec(f"h{i}", owner_model=NeverActiveOwner()))
    system = CondorSystem(sim, specs, config=config,
                          coordinator_host="home")
    return sim, system


class TestFaultActionValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            CrashStation("h0", at=-1.0, duration=10.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(SimulationError):
            CrashStation("h0", at=0.0, duration=0.0)

    @pytest.mark.parametrize("make", [
        lambda: CrashStation("h0", at=0.0, duration=None),
        lambda: CrashCoordinator(at=0.0, duration=None),
        lambda: Partition(("h0",), at=0.0, duration=None),
        lambda: LossBurst(0.5, at=0.0, duration=None),
        lambda: CrashMidTransfer(at=0.0, duration=None),
    ])
    def test_every_repairable_fault_requires_a_duration(self, make):
        with pytest.raises(SimulationError):
            make()

    def test_partition_island_must_be_nonempty(self):
        with pytest.raises(SimulationError):
            Partition((), at=0.0, duration=10.0)

    @pytest.mark.parametrize("probability", [0.0, -0.5, 1.5])
    def test_loss_burst_probability_range(self, probability):
        with pytest.raises(SimulationError):
            LossBurst(probability, at=0.0, duration=10.0)

    def test_crash_mid_transfer_knobs(self):
        with pytest.raises(SimulationError):
            CrashMidTransfer(at=0.0, duration=10.0, downtime=0.0)
        with pytest.raises(SimulationError):
            CrashMidTransfer(at=0.0, duration=10.0, count=0)


class TestChaosSchedule:
    def test_horizon_covers_latest_repair(self):
        schedule = ChaosSchedule("s", [
            CrashStation("h0", at=100.0, duration=50.0),
            Partition(("h1",), at=120.0, duration=10.0),
        ])
        assert schedule.horizon() == 150.0
        assert len(schedule) == 2

    def test_empty_schedule_rejected(self):
        with pytest.raises(SimulationError):
            ChaosSchedule("s", [])

    def test_non_action_rejected(self):
        with pytest.raises(SimulationError):
            ChaosSchedule("s", ["crash h0 please"])

    def test_base_action_inject_is_abstract(self):
        action = FaultAction(at=0.0)
        with pytest.raises(NotImplementedError):
            action.inject(None)


class TestChaosInjector:
    def test_crash_window_matches_schedule(self):
        sim, system = build_system()
        schedule = ChaosSchedule("window", [
            CrashStation("h0", at=100.0, duration=50.0),
        ])
        injector = ChaosInjector(sim, system, schedule)
        observed = {}

        def probe(label):
            observed[label] = system.scheduler("h0").crashed

        sim.schedule_at(99.0, probe, "before")
        sim.schedule_at(120.0, probe, "inside")
        sim.schedule_at(151.0, probe, "after")
        system.start()
        injector.start()
        sim.run(until=200.0)
        assert observed == {"before": False, "inside": True, "after": False}
        assert injector.injected == 1
        assert injector.cleared == 1

    def test_faults_telemetered_through_the_bus(self):
        sim, system = build_system()
        schedule = ChaosSchedule("telemetry", [
            CrashStation("h0", at=10.0, duration=5.0),
            Partition(("h1",), at=30.0, duration=5.0),
        ])
        events = []
        system.telemetry.subscribe(kinds.FAULT_INJECTED, events.append)
        system.telemetry.subscribe(kinds.FAULT_CLEARED, events.append)
        injector = ChaosInjector(sim, system, schedule)
        system.start()
        injector.start()
        sim.run(until=60.0)
        assert [(e.kind, e.payload["fault"]) for e in events] == [
            (kinds.FAULT_INJECTED, "station_crash"),
            (kinds.FAULT_CLEARED, "station_crash"),
            (kinds.FAULT_INJECTED, "partition"),
            (kinds.FAULT_CLEARED, "partition"),
        ]
        assert events[0].payload["station"] == "h0"
        assert events[2].payload["island"] == ["h1"]

    def test_start_is_idempotent(self):
        sim, system = build_system()
        schedule = ChaosSchedule("idem", [
            CrashStation("h0", at=10.0, duration=5.0),
        ])
        injector = ChaosInjector(sim, system, schedule)
        system.start()
        injector.start()
        injector.start()
        sim.run(until=30.0)
        assert injector.injected == 1


class TestCrashInjectorExclusion:
    def wrap_crashes(self, system):
        crashed = []
        for name, scheduler in system.schedulers.items():
            original = scheduler.crash

            def record(_name=name, _original=original):
                crashed.append(_name)
                _original()

            scheduler.crash = record
        return crashed

    def test_excluding_every_station_is_an_error(self):
        sim, system = build_system(hosts=1)
        injector = CrashInjector(
            sim, system, RandomStream(1, "f"),
            uptime_dist=Constant(HOUR), downtime_dist=Constant(MINUTE),
            exclude=("home", "h0"),
        )
        with pytest.raises(SimulationError):
            injector.start()

    def test_excluded_station_is_never_crashed(self):
        sim, system = build_system(hosts=2)
        crashed = self.wrap_crashes(system)
        injector = CrashInjector(
            sim, system, RandomStream(2, "f"),
            uptime_dist=Constant(2 * HOUR),
            downtime_dist=Constant(10 * MINUTE),
            exclude=("home",),
        )
        system.start()
        injector.start()
        sim.run(until=24 * HOUR)
        assert injector.crashes > 0
        assert "home" not in crashed
        assert set(crashed) == {"h0", "h1"}


class TestNoLostJobsChecker:
    def make_job(self, demand=100.0):
        return Job(user="u", home="home", demand_seconds=demand)

    def test_duplicate_completion_detected(self):
        _, system = build_system(hosts=0)
        checker = NoLostJobsChecker(system.telemetry)
        job = self.make_job()
        system.telemetry.emit(kinds.JOB_SUBMITTED, job=job)
        system.telemetry.emit(kinds.JOB_COMPLETED, job=job)
        system.telemetry.emit(kinds.JOB_COMPLETED, job=job)
        assert not checker.ok
        assert "completed 2 times" in checker.violations[0]
        with pytest.raises(NoLostJobsViolation):
            checker.check_final(require_all_complete=False)

    def test_checkpoint_regression_detected(self):
        _, system = build_system(hosts=0)
        checker = NoLostJobsChecker(system.telemetry)
        job = self.make_job()
        system.telemetry.emit(kinds.JOB_SUBMITTED, job=job)
        job.checkpointed_progress = 60.0
        system.telemetry.emit(kinds.JOB_VACATED, job=job, station="h0")
        job.checkpointed_progress = 40.0
        system.telemetry.emit(kinds.JOB_RESUMED, job=job, station="h0")
        assert not checker.ok
        assert "checkpoint regressed" in checker.violations[0]

    def test_never_completed_job_flagged_at_final(self):
        _, system = build_system(hosts=0)
        checker = NoLostJobsChecker(system.telemetry)
        system.telemetry.emit(kinds.JOB_SUBMITTED, job=self.make_job())
        assert checker.ok                       # nothing wrong live
        with pytest.raises(NoLostJobsViolation, match="never completed"):
            checker.check_final()
        # Runs cut off mid-flight may relax the completion requirement.
        assert checker.check_final(require_all_complete=False) == 1

    def test_removed_job_may_never_complete(self):
        _, system = build_system(hosts=0)
        checker = NoLostJobsChecker(system.telemetry)
        job = self.make_job()
        system.telemetry.emit(kinds.JOB_SUBMITTED, job=job)
        system.telemetry.emit(kinds.JOB_REMOVED, job=job)
        assert checker.check_final() == 1


# ---------------------------------------------------------------------------
# The acceptance suite: every named scenario, end to end.

@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_chaos_scenario_no_lost_jobs_and_byte_identical_replay(name):
    identical, run = replay_identical(name, seed=7)
    # strict=True inside run_chaos already raised on any invariant or
    # no-lost-jobs violation; assert the headline outcomes explicitly.
    assert identical, f"{name}: replay trace differs"
    assert all(job.finished for job in run.jobs)
    counts = run.system.telemetry.counts
    assert counts[kinds.JOB_COMPLETED] == len(run.jobs)   # zero duplicates
    assert run.injector.injected > 0
    assert run.no_lost.ok
    assert run.trace_lines, "chaos run produced no telemetry"


def test_matchmaker_partition_stalls_leases_until_the_heal():
    # With the matchmaker cut off, adverts and lease requests drop, so
    # no lease is brokered during the cut; flocking resumes afterwards.
    run = run_chaos("matchmaker-partition", seed=7)
    records = [json.loads(line) for line in run.trace_lines]
    (cut,) = [r["t"] for r in records if r["kind"] == kinds.FAULT_INJECTED]
    (heal,) = [r["t"] for r in records if r["kind"] == kinds.FAULT_CLEARED]
    assert heal - cut == 2 * HOUR
    grants = [r["t"] for r in records
              if r["kind"] == kinds.CROSS_POOL_LEASE_GRANTED]
    assert any(t < cut for t in grants), "no lease before the cut"
    assert any(t > heal for t in grants), "leases never resumed"
    assert not any(cut <= t <= heal for t in grants)


def test_chaos_seed_changes_the_trace():
    a = run_chaos("station-crashes", seed=7)
    b = run_chaos("station-crashes", seed=8)
    assert a.trace_bytes != b.trace_bytes


def test_unknown_schedule_name_rejected():
    with pytest.raises(SimulationError, match="unknown chaos schedule"):
        run_chaos("no-such-scenario")


def test_strict_run_requires_injected_faults():
    # A schedule whose only action lands beyond the horizon injects
    # nothing; strict mode refuses to call that a chaos run.
    SCHEDULES["_noop"] = lambda: ChaosSchedule("_noop", [
        CrashStation("h0", at=30 * 24 * HOUR, duration=MINUTE),
    ])
    try:
        with pytest.raises(SimulationError, match="injected no faults"):
            run_chaos("_noop")
    finally:
        del SCHEDULES["_noop"]


def test_loss_burst_restores_prior_rate():
    from repro.net import Network

    sim = Simulation()
    network = Network(sim, loss_stream=RandomStream(4, "loss"))
    specs = [StationSpec("home", owner_model=AlwaysActiveOwner(),
                         disk_mb=500.0),
             StationSpec("h0", owner_model=NeverActiveOwner())]
    system = CondorSystem(sim, specs, network=network,
                          coordinator_host="home")
    burst = LossBurst(0.9, at=5.0, duration=5.0)
    schedule = ChaosSchedule("burst", [burst])
    injector = ChaosInjector(sim, system, schedule)
    system.start()
    injector.start()
    rates = {}
    sim.schedule_at(7.0, lambda: rates.update(
        inside=system.network.loss_probability))
    sim.run(until=20.0)
    assert rates["inside"] == 0.9
    assert system.network.loss_probability == 0.0
