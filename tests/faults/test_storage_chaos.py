"""Storage chaos tests: the fault actions, the extended no-lost-jobs
checker (verified-checkpoint floor, poisoned resume points), and the
storage scenarios' specific outcomes (the generic zero-lost +
byte-identical-replay acceptance runs in test_chaos.py)."""

import json

import pytest

from repro.analysis.chaos import SCENARIO_CONFIGS, SUITES, run_chaos
from repro.core import CondorSystem, Job, StationSpec
from repro.faults import (
    ChaosInjector,
    ChaosSchedule,
    CorruptCheckpoint,
    DiskFail,
    DiskPressure,
    NoLostJobsChecker,
    TornWrite,
)
from repro.machine import AlwaysActiveOwner, NeverActiveOwner
from repro.sim import HOUR, Simulation, SimulationError
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


class TestStorageActionValidation:
    def test_corrupt_needs_positive_newest(self):
        with pytest.raises(SimulationError):
            CorruptCheckpoint("home", at=0.0, newest=0)

    def test_torn_write_needs_positive_count(self):
        with pytest.raises(SimulationError):
            TornWrite("home", at=0.0, count=0)

    def test_disk_fail_requires_duration(self):
        with pytest.raises(SimulationError):
            DiskFail("home", at=0.0, duration=None)

    def test_disk_pressure_rejects_negative_target(self):
        with pytest.raises(SimulationError):
            DiskPressure("home", at=0.0, free_mb=-1.0)


class TestStorageActions:
    def test_corrupt_checkpoint_poisons_stored_images(self):
        sim, system = build_system(hosts=0)
        job = Job(user="u", home="home", demand_seconds=HOUR)
        system.submit(job)
        schedule = ChaosSchedule("c", [CorruptCheckpoint("home", at=10.0)])
        injector = ChaosInjector(sim, system, schedule)
        seen = []
        system.telemetry.subscribe(kinds.FAULT_INJECTED, seen.append)
        system.start()
        injector.start()
        sim.run(until=20.0)
        store = system.scheduler("home").store
        assert not store.fetch(job.id).verify()
        # The poisoned resume points ride the fault telemetry.
        assert seen[0].payload["poisoned"] == [[job.id, 0.0]]

    def test_corrupt_checkpoint_unknown_job_name_rejected(self):
        sim, system = build_system(hosts=0)
        schedule = ChaosSchedule("c", [
            CorruptCheckpoint("home", at=10.0, job_name="ghost"),
        ])
        injector = ChaosInjector(sim, system, schedule)
        system.start()
        injector.start()
        with pytest.raises(SimulationError, match="no job named"):
            sim.run(until=20.0)

    def test_torn_write_window_arms_and_disarms_the_store(self):
        sim, system = build_system(hosts=0)
        schedule = ChaosSchedule("t", [
            TornWrite("home", at=10.0, duration=20.0, count=5),
        ])
        injector = ChaosInjector(sim, system, schedule)
        system.start()
        injector.start()
        armed = {}
        store = system.scheduler("home").store
        sim.schedule_at(15.0, lambda: armed.update(inside=store._torn_armed))
        sim.run(until=40.0)
        assert armed["inside"] == 5
        assert store._torn_armed == 0       # disarmed at window end

    def test_disk_fail_window(self):
        sim, system = build_system(hosts=0)
        schedule = ChaosSchedule("d", [
            DiskFail("home", at=10.0, duration=20.0),
        ])
        injector = ChaosInjector(sim, system, schedule)
        system.start()
        injector.start()
        disk = system.station("home").disk
        observed = {}
        sim.schedule_at(15.0, lambda: observed.update(inside=disk.failed))
        sim.run(until=40.0)
        assert observed["inside"] is True
        assert disk.failed is False

    def test_disk_pressure_squeezes_and_releases(self):
        sim, system = build_system(hosts=0)
        schedule = ChaosSchedule("p", [
            DiskPressure("home", at=10.0, free_mb=1.0, duration=20.0),
        ])
        injector = ChaosInjector(sim, system, schedule)
        system.start()
        injector.start()
        disk = system.station("home").disk
        observed = {}
        sim.schedule_at(9.0, lambda: observed.update(before=disk.free_mb))
        sim.schedule_at(15.0, lambda: observed.update(inside=disk.free_mb))
        sim.run(until=40.0)
        assert observed["inside"] == pytest.approx(1.0)
        assert disk.free_mb == pytest.approx(observed["before"])
        assert disk.usage_by_purpose().get("chaos-pressure") is None

    def test_disk_pressure_leaves_tighter_disk_alone(self):
        sim, system = build_system(hosts=0)
        disk = system.station("home").disk
        disk.allocate(disk.free_mb - 0.5, purpose="filler")
        action = DiskPressure("home", at=10.0, free_mb=1.0, duration=20.0)
        schedule = ChaosSchedule("p", [action])
        injector = ChaosInjector(sim, system, schedule)
        system.start()
        injector.start()
        sim.run(until=40.0)
        assert action.squeezed_mb == 0.0


class TestCheckerStorageExtensions:
    def make_job(self, demand=100.0):
        return Job(user="u", home="home", demand_seconds=demand)

    def test_restore_fallback_legitimately_lowers_the_floor(self):
        _, system = build_system(hosts=0)
        checker = NoLostJobsChecker(system.telemetry)
        job = self.make_job()
        system.telemetry.emit(kinds.JOB_SUBMITTED, job=job)
        job.checkpointed_progress = 60.0
        system.telemetry.emit(kinds.JOB_VACATED, job=job, station="h0")
        job.checkpointed_progress = 40.0
        system.telemetry.emit(kinds.CHECKPOINT_RESTORE_FALLBACK, job=job,
                              restored_progress=40.0)
        system.telemetry.emit(kinds.JOB_RESUMED, job=job, station="h0")
        assert checker.ok
        assert checker.restore_fallbacks == 1
        assert checker.checkpoint_floor[job.id] == 40.0

    def test_fallback_raising_the_floor_is_a_violation(self):
        _, system = build_system(hosts=0)
        checker = NoLostJobsChecker(system.telemetry)
        job = self.make_job()
        system.telemetry.emit(kinds.JOB_SUBMITTED, job=job)
        system.telemetry.emit(kinds.CHECKPOINT_RESTORE_FALLBACK, job=job,
                              restored_progress=90.0)
        assert not checker.ok
        assert "raised" in checker.violations[0]

    def test_resume_beyond_verified_floor_is_a_violation(self):
        _, system = build_system(hosts=0)
        checker = NoLostJobsChecker(system.telemetry)
        job = self.make_job()
        system.telemetry.emit(kinds.JOB_SUBMITTED, job=job)
        job.progress = 50.0          # nothing ever checkpointed that much
        system.telemetry.emit(kinds.JOB_PLACED, job=job, host="h0")
        assert not checker.ok
        assert "beyond verified checkpoint" in checker.violations[0]

    def test_resume_from_poisoned_image_is_a_violation(self):
        _, system = build_system(hosts=0)
        checker = NoLostJobsChecker(system.telemetry)
        job = self.make_job()
        system.telemetry.emit(kinds.JOB_SUBMITTED, job=job)
        job.checkpointed_progress = 50.0
        system.telemetry.emit(kinds.JOB_VACATED, job=job, station="h0")
        system.telemetry.emit(kinds.FAULT_INJECTED, fault="checkpoint_corrupt",
                              poisoned=[[job.id, 50.0]])
        job.progress = 50.0
        system.telemetry.emit(kinds.JOB_PLACED, job=job, host="h0")
        assert not checker.ok
        assert "corrupt image" in checker.violations[0]

    def test_fallback_clears_poisoned_resume_points(self):
        _, system = build_system(hosts=0)
        checker = NoLostJobsChecker(system.telemetry)
        job = self.make_job()
        system.telemetry.emit(kinds.JOB_SUBMITTED, job=job)
        job.checkpointed_progress = 50.0
        system.telemetry.emit(kinds.JOB_VACATED, job=job, station="h0")
        system.telemetry.emit(kinds.FAULT_INJECTED, fault="checkpoint_corrupt",
                              poisoned=[[job.id, 50.0]])
        # Verify-on-restore discarded the poisoned image and fell back.
        job.checkpointed_progress = 0.0
        system.telemetry.emit(kinds.CHECKPOINT_RESTORE_FALLBACK, job=job,
                              restored_progress=0.0)
        job.progress = 0.0
        system.telemetry.emit(kinds.JOB_PLACED, job=job, host="h0")
        assert checker.ok

    def test_poison_during_inflight_placement_is_not_recorded(self):
        _, system = build_system(hosts=0)
        checker = NoLostJobsChecker(system.telemetry)
        job = self.make_job()
        system.telemetry.emit(kinds.JOB_SUBMITTED, job=job)
        job.state = "placing"      # image already read and verified
        system.telemetry.emit(kinds.FAULT_INJECTED, fault="checkpoint_corrupt",
                              poisoned=[[job.id, 0.0]])
        assert checker.poisoned == {}


# ---------------------------------------------------------------------------
# The storage scenarios' specific outcomes.  The generic acceptance
# (zero lost jobs, zero duplicates, byte-identical replay) runs over
# every schedule — these included — in test_chaos.py.

def _kind_counts(run):
    counts = {}
    for line in run.trace_lines:
        kind = json.loads(line)["kind"]
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def test_storage_suite_lists_the_three_scenarios():
    assert SUITES["storage"] == ("corrupt-restore", "torn-write",
                                 "disk-chaos")


def test_corrupt_restore_exercises_verify_on_restore():
    run = run_chaos("corrupt-restore")
    assert run.no_lost.restore_fallbacks > 0
    counts = _kind_counts(run)
    assert counts.get(kinds.CHECKPOINT_RESTORE_FALLBACK, 0) > 0
    # The scenario override keeps two generations per job.
    assert SCENARIO_CONFIGS["corrupt-restore"]["checkpoint_generations"] == 2
    assert run.system.scheduler("home").store.generations == 2
    assert run.system.scheduler("home").store.corrupt_discarded > 0


def test_torn_write_scenario_telemetered_and_survivable():
    run = run_chaos("torn-write")
    counts = _kind_counts(run)
    assert counts.get(kinds.CHECKPOINT_WRITE_TORN, 0) > 0
    assert run.system.scheduler("home").store.torn_writes > 0


def test_disk_chaos_scenario_loses_images_loudly():
    run = run_chaos("disk-chaos")
    counts = _kind_counts(run)
    assert counts.get(kinds.CHECKPOINT_IMAGE_LOST, 0) > 0
    disk = run.system.station("home").disk
    # Pressure released and the disk repaired by the horizon.
    assert disk.failed is False
    assert disk.usage_by_purpose().get("chaos-pressure") is None
