"""End-to-end scheduler scenarios on small deterministic clusters.

These tests drive complete CondorSystem instances with scripted owner
activity (TraceOwner) so every placement, suspension, checkpoint and
preemption happens at a predictable simulated time.
"""

import pytest

from repro.core import (
    CondorConfig,
    CondorSystem,
    Job,
    StationSpec,
    SubmissionRefused,
)
from repro.machine import AlwaysActiveOwner, NeverActiveOwner, TraceOwner
from repro.sim import HOUR, Simulation
from repro.telemetry import kinds

FOREVER = 10_000_000.0


def build_system(sim, host_specs, config=None, home_disk_mb=None):
    """A cluster with one always-busy home station plus the given hosts."""
    specs = [StationSpec("home", owner_model=AlwaysActiveOwner(),
                         disk_mb=home_disk_mb)]
    specs.extend(host_specs)
    return CondorSystem(sim, specs, config=config, coordinator_host="home")


def idle_host(name):
    return StationSpec(name, owner_model=NeverActiveOwner())


def submit_job(system, demand, user="A", **kwargs):
    job = Job(user=user, home="home", demand_seconds=demand, **kwargs)
    system.submit(job)
    return job


class TestBasicPlacement:
    def test_job_placed_and_completed_on_idle_host(self):
        sim = Simulation()
        system = build_system(sim, [idle_host("host-1")])
        system.start()
        job = submit_job(system, demand=600.0)
        system.run(until=2000.0)

        assert job.finished
        assert job.placements == ["host-1"]
        assert job.checkpoint_count == 0
        assert job.remote_cpu_seconds == pytest.approx(600.0, abs=1.0)
        # Placement begins on the first coordinator cycle (2 minutes in).
        assert job.first_placed_at == pytest.approx(120.0, abs=5.0)
        assert job.completed_at == pytest.approx(720.0, abs=10.0)

    def test_placement_support_charged_to_home(self):
        sim = Simulation()
        system = build_system(sim, [idle_host("host-1")])
        system.start()
        job = submit_job(system, demand=600.0)
        system.run(until=2000.0)

        # 0.5 MB image at 5 s/MB -> 2.5 s of placement support.
        assert job.support_seconds["placement"] == pytest.approx(2.5, rel=0.1)
        assert job.support_seconds["checkpoint"] == 0.0
        # Default syscall rate 0.5/s at 10 ms each over 600 s -> 3 s.
        assert job.support_seconds["syscall"] == pytest.approx(3.0, abs=0.1)
        home_ledger = system.station("home").ledger
        assert home_ledger.totals["placement"] == pytest.approx(2.5, rel=0.1)
        assert home_ledger.totals["syscall"] == pytest.approx(3.0, abs=0.1)

    def test_leverage_of_clean_run(self):
        sim = Simulation()
        system = build_system(sim, [idle_host("host-1")])
        system.start()
        job = submit_job(system, demand=600.0)
        system.run(until=2000.0)
        # 600 remote seconds for ~5.5 s of support.
        assert job.leverage() == pytest.approx(600.0 / 5.5, rel=0.05)

    def test_remote_host_books_remote_job_time(self):
        sim = Simulation()
        system = build_system(sim, [idle_host("host-1")])
        system.start()
        submit_job(system, demand=600.0)
        system.run(until=2000.0)
        host_ledger = system.station("host-1").ledger
        assert host_ledger.totals["remote_job"] == pytest.approx(600.0, abs=1.0)

    def test_bus_events_for_clean_run(self):
        sim = Simulation()
        system = build_system(sim, [idle_host("host-1")])
        system.start()
        submit_job(system, demand=600.0)
        system.run(until=2000.0)
        counts = system.telemetry.counts
        assert counts[kinds.JOB_SUBMITTED] == 1
        assert counts[kinds.JOB_PLACED] == 1
        assert counts[kinds.JOB_COMPLETED] == 1
        assert counts[kinds.JOB_VACATED] == 0


class TestOwnerReturns:
    def owner_trace_host(self, arrive, leave=FOREVER):
        return StationSpec(
            "host-1", owner_model=TraceOwner([(arrive, leave)])
        )

    def test_short_owner_visit_suspends_and_resumes(self):
        sim = Simulation()
        # Owner pops in for 2 minutes — within the 5-minute grace.
        system = build_system(sim, [self.owner_trace_host(300.0, 420.0)])
        system.start()
        job = submit_job(system, demand=600.0)
        system.run(until=3000.0)

        assert job.finished
        assert job.checkpoint_count == 0          # never moved
        assert job.placements == ["host-1"]
        assert system.telemetry.counts[kinds.JOB_SUSPENDED] == 1
        assert system.telemetry.counts[kinds.JOB_RESUMED] == 1
        # The visit added ~120 s of dead time to the turnaround.
        assert job.completed_at == pytest.approx(840.0, abs=10.0)

    def test_long_owner_visit_checkpoints_job_away(self):
        sim = Simulation()
        system = build_system(
            sim, [self.owner_trace_host(300.0), idle_host("host-2")]
        )
        system.start()
        job = submit_job(system, demand=600.0)
        system.run(until=3000.0)

        assert job.finished
        assert job.checkpoint_count == 1
        assert job.placements == ["host-1", "host-2"]
        # No work is redone: remote CPU equals the demand.
        assert job.remote_cpu_seconds == pytest.approx(600.0, abs=1.0)
        assert job.wasted_cpu_seconds == 0.0
        assert job.support_seconds["checkpoint"] > 0.0
        assert system.telemetry.counts[kinds.JOB_VACATED] == 1

    def test_vacate_happens_after_grace_period(self):
        sim = Simulation()
        system = build_system(
            sim, [self.owner_trace_host(300.0), idle_host("host-2")]
        )
        system.start()
        job = submit_job(system, demand=600.0)
        vacate_times = []
        system.telemetry.subscribe(
            kinds.JOB_VACATED,
            lambda event: vacate_times.append(event.sim_time),
        )
        system.run(until=3000.0)
        # Owner at 300, grace 5 min -> vacate completes shortly after 600.
        assert vacate_times[0] == pytest.approx(600.0, abs=5.0)

    def test_host_cpu_returned_to_owner_immediately(self):
        sim = Simulation()
        system = build_system(sim, [self.owner_trace_host(300.0, 400.0)])
        system.start()
        submit_job(system, demand=600.0)
        system.run(until=3000.0)
        host = system.station("host-1")
        # While the owner was present the job accrued nothing: total
        # remote_job time == demand even though the owner interleaved.
        assert host.ledger.totals["remote_job"] == pytest.approx(600.0, abs=1.0)
        assert host.ledger.totals["owner"] == pytest.approx(100.0, abs=1.0)


class TestButlerMode:
    def test_kill_loses_work(self):
        sim = Simulation()
        config = CondorConfig(kill_on_owner_return=True)
        system = build_system(
            sim,
            [StationSpec("host-1", owner_model=TraceOwner([(300.0, FOREVER)])),
             idle_host("host-2")],
            config=config,
        )
        system.start()
        job = submit_job(system, demand=600.0)
        system.run(until=3000.0)

        assert job.finished
        assert job.kill_count == 1
        assert job.checkpoint_count == 0
        # ~180 s of work at host-1 was thrown away and redone at host-2.
        assert job.wasted_cpu_seconds == pytest.approx(180.0, abs=10.0)
        assert job.remote_cpu_seconds == pytest.approx(780.0, abs=15.0)
        assert system.telemetry.counts[kinds.JOB_KILLED] == 1


class TestPeriodicCheckpointing:
    def test_periodic_checkpoints_bound_the_loss(self):
        sim = Simulation()
        config = CondorConfig(kill_on_owner_return=True,
                              periodic_checkpoint_interval=60.0)
        system = build_system(
            sim,
            [StationSpec("host-1", owner_model=TraceOwner([(300.0, FOREVER)])),
             idle_host("host-2")],
            config=config,
        )
        system.start()
        job = submit_job(system, demand=600.0)
        system.run(until=3000.0)

        assert job.finished
        assert job.periodic_checkpoint_count >= 2
        # Work lost at the kill is at most one checkpoint interval.
        assert job.wasted_cpu_seconds <= 60.0 + 5.0
        assert system.telemetry.counts[kinds.JOB_PERIODIC_CHECKPOINT] >= 2


class TestUpDownPreemption:
    def test_light_user_preempts_heavy_hoarder(self):
        sim = Simulation()
        specs = [
            StationSpec("home", owner_model=AlwaysActiveOwner()),
            StationSpec("light", owner_model=AlwaysActiveOwner()),
            idle_host("host-1"),
        ]
        system = CondorSystem(sim, specs, coordinator_host="home")
        system.start()
        heavy_jobs = [submit_job(system, demand=10 * HOUR, user="A")
                      for _ in range(2)]
        sim.run(until=1000.0)

        light_job = Job(user="B", home="light", demand_seconds=300.0)
        system.submit(light_job)
        sim.run(until=4000.0)

        assert light_job.finished
        preempted = [j for j in heavy_jobs if j.priority_preemptions > 0]
        assert len(preempted) == 1
        assert system.telemetry.counts[kinds.JOB_PREEMPTED] == 1
        # The light job waited only a few coordinator cycles.
        assert light_job.wait_ratio() < 3.0

    def test_no_preemption_when_idle_capacity_exists(self):
        sim = Simulation()
        specs = [
            StationSpec("home", owner_model=AlwaysActiveOwner()),
            StationSpec("light", owner_model=AlwaysActiveOwner()),
            idle_host("host-1"),
            idle_host("host-2"),
        ]
        system = CondorSystem(sim, specs, coordinator_host="home")
        system.start()
        submit_job(system, demand=10 * HOUR, user="A")
        sim.run(until=1000.0)
        light_job = Job(user="B", home="light", demand_seconds=300.0)
        system.submit(light_job)
        sim.run(until=4000.0)

        assert light_job.finished
        assert system.telemetry.counts[kinds.JOB_PREEMPTED] == 0


class TestPlacementThrottle:
    def test_one_placement_per_cycle(self):
        sim = Simulation()
        system = build_system(
            sim, [idle_host(f"host-{i}") for i in range(1, 4)]
        )
        system.start()
        jobs = [submit_job(system, demand=2 * HOUR) for _ in range(3)]
        sim.run(until=150.0)
        assert sum(1 for j in jobs if j.placements) == 1
        sim.run(until=270.0)
        assert sum(1 for j in jobs if j.placements) == 2
        sim.run(until=390.0)
        assert sum(1 for j in jobs if j.placements) == 3

    def test_unthrottled_config_fills_pool_in_one_cycle(self):
        sim = Simulation()
        config = CondorConfig(placements_per_cycle=100,
                              grants_per_station_per_cycle=100)
        system = build_system(
            sim, [idle_host(f"host-{i}") for i in range(1, 4)], config=config
        )
        system.start()
        jobs = [submit_job(system, demand=2 * HOUR) for _ in range(3)]
        sim.run(until=150.0)
        assert sum(1 for j in jobs if j.placements) == 3


class TestDiskPressure:
    def test_submission_refused_when_disk_full(self):
        sim = Simulation()
        system = build_system(sim, [idle_host("host-1")], home_disk_mb=1.2)
        system.start()
        submit_job(system, demand=HOUR)       # 0.5 MB fits
        submit_job(system, demand=HOUR)       # 1.0 MB total fits
        with pytest.raises(SubmissionRefused):
            submit_job(system, demand=HOUR)   # 1.5 MB does not
        assert system.telemetry.counts[kinds.JOB_REFUSED] == 1

    def test_grant_ignored_when_no_job_fits_host_disk(self):
        sim = Simulation()
        system = build_system(
            sim,
            [StationSpec("host-1", owner_model=NeverActiveOwner(),
                         disk_mb=0.2)],
        )
        system.start()
        job = submit_job(system, demand=HOUR)
        system.run(until=1000.0)
        assert not job.placements
        assert job.state == "pending"


class TestHostFailure:
    def test_host_crash_restarts_job_elsewhere(self):
        sim = Simulation()
        system = build_system(
            sim, [idle_host("host-1"), idle_host("host-2")]
        )
        system.start()
        job = submit_job(system, demand=600.0)
        sim.run(until=300.0)
        assert job.placements == ["host-1"]
        system.scheduler("host-1").crash()
        sim.run(until=3000.0)

        assert job.finished
        assert job.placements == ["host-1", "host-2"]
        # No checkpoint existed beyond the submit image: progress redone.
        assert job.wasted_cpu_seconds == pytest.approx(180.0, abs=15.0)
        assert system.telemetry.counts[kinds.HOST_LOST] == 1

    def test_crashed_host_refuses_placements(self):
        sim = Simulation()
        system = build_system(sim, [idle_host("host-1")])
        system.start()
        system.scheduler("host-1").crash()
        job = submit_job(system, demand=600.0)
        sim.run(until=1500.0)
        assert not job.finished
        system.scheduler("host-1").recover()
        sim.run(until=4000.0)
        assert job.finished


class TestCoordinatorFailure:
    def test_coordinator_crash_stops_new_allocations_only(self):
        sim = Simulation()
        system = build_system(
            sim, [idle_host("host-1"), idle_host("host-2")]
        )
        system.start()
        running = submit_job(system, demand=2 * HOUR)
        sim.run(until=300.0)
        assert running.placements == ["host-1"]

        system.coordinator.crash()
        stranded = submit_job(system, demand=600.0)
        sim.run(until=3000.0)
        assert not stranded.placements          # no allocation happened
        assert running.state == "running"       # but execution continued

        system.coordinator.recover_at(system.station("host-2"))
        sim.run(until=12 * HOUR)
        assert stranded.finished
        assert running.finished


class TestQueueLengthAccounting:
    def test_queue_counts_pending_and_in_service(self):
        sim = Simulation()
        system = build_system(sim, [idle_host("host-1")])
        system.start()
        submit_job(system, demand=2 * HOUR, user="A")
        submit_job(system, demand=2 * HOUR, user="A")
        light = Job(user="B", home="home", demand_seconds=HOUR)
        system.submit(light)
        sim.run(until=300.0)
        assert system.queue_length() == 3
        assert system.queue_length(users={"B"}) == 1
        sim.run(until=40 * HOUR)
        assert system.queue_length() == 0

    def test_incremental_counts_equal_a_full_rescan(self):
        from repro.analysis.experiment import ExperimentRun

        exp = ExperimentRun(seed=11, days=3)
        exp.system.start()
        exp.generator.start()
        light = exp.generator.light_user_names()
        for hour in range(1, 3 * 24 + 1):
            exp.sim.run(until=hour * HOUR)
            live = [job for job in exp.system.jobs if job.in_system]
            assert exp.system.queue_length() == len(live)
            assert exp.system.queue_length(users=light) == sum(
                1 for job in live if job.user in light)
            for user, submitted in exp.generator.submitted.items():
                assert exp.generator.in_system_count(user) == sum(
                    1 for job in submitted if job.in_system)
        assert exp.system.completed_jobs() and live
