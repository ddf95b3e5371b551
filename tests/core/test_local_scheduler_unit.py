"""Focused unit tests of the local scheduler's less-travelled paths."""

import pytest

from repro.core import (
    CondorConfig,
    CondorSystem,
    Job,
    SchedulingError,
    StationSpec,
)
from repro.core import job as jobstate
from repro.machine import AlwaysActiveOwner, NeverActiveOwner
from repro.sim import DAY, HOUR, Simulation
from repro.telemetry import kinds


def build(hosts=1, config=None, home_disk=None):
    sim = Simulation()
    specs = [StationSpec("home", owner_model=AlwaysActiveOwner(),
                         disk_mb=home_disk)]
    specs += [StationSpec(f"h{i}", owner_model=NeverActiveOwner())
              for i in range(hosts)]
    system = CondorSystem(sim, specs, config=config,
                          coordinator_host="home")
    system.start()
    return sim, system


class TestSubmission:
    def test_wrong_home_rejected(self):
        sim, system = build()
        job = Job(user="u", home="elsewhere", demand_seconds=HOUR)
        with pytest.raises(SchedulingError):
            system.scheduler("home").submit(job)

    def test_submit_stores_initial_image(self):
        sim, system = build()
        job = Job(user="u", home="home", demand_seconds=HOUR)
        system.submit(job)
        store = system.scheduler("home").store
        image = store.fetch(job.id)
        assert image is not None
        assert image.cpu_progress == 0.0

    def test_completed_job_image_discarded(self):
        sim, system = build()
        job = Job(user="u", home="home", demand_seconds=HOUR)
        system.submit(job)
        sim.run(until=DAY)
        assert job.finished
        assert system.scheduler("home").store.fetch(job.id) is None


class TestRemoval:
    def test_remove_pending_job(self):
        sim, system = build(hosts=0)
        job = Job(user="u", home="home", demand_seconds=HOUR)
        system.submit(job)
        system.scheduler("home").remove(job)
        assert job.state == jobstate.REMOVED
        assert system.queue_length() == 0
        assert system.telemetry.counts[kinds.JOB_REMOVED] == 1

    def test_remove_running_job_rejected(self):
        sim, system = build()
        job = Job(user="u", home="home", demand_seconds=10 * HOUR)
        system.submit(job)
        sim.run(until=HOUR)
        assert job.state == jobstate.RUNNING
        with pytest.raises(SchedulingError):
            system.scheduler("home").remove(job)

    def test_removed_job_frees_disk(self):
        sim, system = build(hosts=0, home_disk=1.0)
        scheduler = system.scheduler("home")
        job = Job(user="u", home="home", demand_seconds=HOUR)
        system.submit(job)
        used_before = system.station("home").disk.used_mb
        scheduler.remove(job)
        assert system.station("home").disk.used_mb < used_before


class TestShadows:
    def test_shadow_created_on_placement_and_retired_on_completion(self):
        sim, system = build()
        scheduler = system.scheduler("home")
        job = Job(user="u", home="home", demand_seconds=HOUR,
                  syscall_rate=1.0)
        system.submit(job)
        sim.run(until=10 * 60.0)
        assert job.id in scheduler.shadows
        sim.run(until=DAY)
        assert job.finished
        assert job.id not in scheduler.shadows

    def test_shadow_support_matches_job_accounting(self):
        sim, system = build()
        job = Job(user="u", home="home", demand_seconds=HOUR,
                  syscall_rate=2.0)
        system.submit(job)
        sim.run(until=DAY)
        # 2 calls/s * 10 ms * 3600 s = 72 s of shadow support.
        assert job.support_seconds["syscall"] == pytest.approx(72.0,
                                                               rel=0.01)


class TestGrantCornerCases:
    def test_grant_with_empty_queue_is_ignored(self):
        sim, system = build()
        scheduler = system.scheduler("home")
        # Inject a spurious grant directly.
        scheduler._handle_grant({"host": "h0", "free_mb": 100.0,
                                 "arch": "vax"})
        sim.run(until=300.0)
        assert system.station("h0").running_job is None

    def test_daemon_overhead_accrues_hourly(self):
        sim, system = build(hosts=0)
        sim.run(until=10 * HOUR)
        ledger = system.station("home").ledger
        expected = 10 * HOUR * 0.0025
        assert ledger.totals["scheduler"] == pytest.approx(expected,
                                                           rel=0.01)

    def test_zero_daemon_load_config(self):
        sim, system = build(hosts=0,
                            config=CondorConfig(scheduler_daemon_load=0.0))
        sim.run(until=10 * HOUR)
        assert system.station("home").ledger.totals["scheduler"] == 0.0


class TestStorageDurability:
    """The loud-loss paths: full disks, torn writes, corrupt restores."""

    def _vacate_payload(self, job, host="h0"):
        return {"job": job, "host": host, "image_mb": job.image_mb(),
                "slices": [], "reason": "owner_returned",
                "incarnation": job.incarnation}

    def _running_job(self, system, sim):
        job = Job(user="u", home="home", demand_seconds=10 * HOUR)
        system.submit(job)
        sim.run(until=HOUR)
        assert job.state == jobstate.RUNNING
        return job

    def test_vacate_checkpoint_stored_counts_image(self):
        sim, system = build()
        job = self._running_job(system, sim)
        job.progress = 1800.0      # the host's bookkeeping at vacate time
        job.transition(jobstate.VACATING)
        system.scheduler("home")._handle_job_vacated(
            self._vacate_payload(job))
        assert job.checkpoint_count == 1
        assert job.checkpoint_lost_count == 0
        assert job.checkpointed_progress == 1800.0

    def test_vacate_disk_full_is_loud_not_silent(self):
        sim, system = build()
        scheduler = system.scheduler("home")
        job = self._running_job(system, sim)
        job.progress = 1800.0
        job.transition(jobstate.VACATING)
        disk = system.station("home").disk
        disk.allocate(disk.free_mb, purpose="filler")
        seen = []
        system.telemetry.subscribe(kinds.CHECKPOINT_IMAGE_LOST, seen.append)
        scheduler._handle_job_vacated(self._vacate_payload(job))
        # The image was lost, telemetered, and not counted as stored.
        assert [e.payload["purpose"] for e in seen] == ["vacate"]
        assert seen[0].payload["reason"] == "disk_full"
        assert job.checkpoint_count == 0
        assert job.checkpoint_lost_count == 1
        counter = system.metrics.counter("checkpoint.dropped_disk_full")
        assert counter.value == 1
        # The job rolled back to its last stored image and is queued.
        assert job.progress == job.checkpointed_progress == 0.0
        assert job.state == jobstate.PENDING

    def test_vacate_torn_write_keeps_previous_image(self):
        sim, system = build()
        scheduler = system.scheduler("home")
        job = self._running_job(system, sim)
        job.progress = 1800.0
        job.transition(jobstate.VACATING)
        scheduler.store.arm_torn_writes(1)
        seen = []
        system.telemetry.subscribe(kinds.CHECKPOINT_WRITE_TORN, seen.append)
        scheduler._handle_job_vacated(self._vacate_payload(job))
        assert [e.payload["purpose"] for e in seen] == ["vacate"]
        assert job.checkpoint_count == 0
        assert job.checkpoint_lost_count == 1
        counter = system.metrics.counter("checkpoint.dropped_torn_write")
        assert counter.value == 1
        # The initial (submit-time) image survived the torn write.
        image = scheduler.store.fetch(job.id)
        assert image is not None and image.cpu_progress == 0.0

    def test_periodic_checkpoint_disk_full_is_loud(self):
        sim, system = build()
        scheduler = system.scheduler("home")
        job = self._running_job(system, sim)
        disk = system.station("home").disk
        disk.allocate(disk.free_mb, purpose="filler")
        seen = []
        system.telemetry.subscribe(kinds.CHECKPOINT_IMAGE_LOST, seen.append)
        scheduler._handle_periodic_checkpoint({
            "job": job, "image_mb": job.image_mb(), "progress": 600.0,
            "incarnation": job.incarnation,
        })
        assert [e.payload["purpose"] for e in seen] == ["periodic"]
        assert job.periodic_checkpoint_count == 0
        assert job.checkpoint_lost_count == 1
        assert job.checkpointed_progress == 0.0
        counter = system.metrics.counter("checkpoint.dropped_disk_full")
        assert counter.value == 1

    def test_restore_fallback_on_corrupt_image(self):
        sim, system = build(hosts=0)
        scheduler = system.scheduler("home")
        job = Job(user="u", home="home", demand_seconds=HOUR)
        system.submit(job)
        scheduler.store.corrupt(job.id)
        seen = []
        system.telemetry.subscribe(kinds.CHECKPOINT_RESTORE_FALLBACK,
                                   seen.append)
        scheduler._restore_verified(job)
        assert len(seen) == 1
        assert seen[0].payload["fallback"] == "restart"
        assert seen[0].payload["discarded"] == 1
        assert job.checkpointed_progress == 0.0
        # The corrupt image was discarded, never shipped.
        assert scheduler.store.fetch(job.id) is None
        counter = system.metrics.counter("checkpoint.restore_fallback")
        assert counter.value == 1

    def test_clean_restore_emits_nothing(self):
        sim, system = build(hosts=0)
        scheduler = system.scheduler("home")
        job = Job(user="u", home="home", demand_seconds=HOUR)
        system.submit(job)
        seen = []
        system.telemetry.subscribe(kinds.CHECKPOINT_RESTORE_FALLBACK,
                                   seen.append)
        scheduler._restore_verified(job)
        assert seen == []

    def test_generations_config_reaches_store(self):
        sim, system = build(config=CondorConfig(checkpoint_generations=3))
        assert system.scheduler("home").store.generations == 3


class TestSliceAccounting:
    def test_execution_slices_reported_home(self):
        sim, system = build()
        job = Job(user="u", home="home", demand_seconds=2 * HOUR,
                  syscall_rate=0.0)
        system.submit(job)
        sim.run(until=DAY)
        assert job.finished
        # One uninterrupted slice: remote CPU equals demand exactly.
        assert job.remote_cpu_seconds == pytest.approx(2 * HOUR, abs=0.5)
        host_ledger = system.station("h0").ledger
        assert host_ledger.totals["remote_job"] == pytest.approx(
            2 * HOUR, abs=0.5
        )
