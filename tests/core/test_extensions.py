"""Tests for the future-work extensions: architectures and reservations."""

import pytest

from repro.core import (
    CondorConfig,
    CondorSystem,
    Job,
    StationSpec,
)
from repro.machine import AlwaysActiveOwner, NeverActiveOwner, TraceOwner
from repro.sim import DAY, HOUR, Simulation, SimulationError

FOREVER = 10_000_000.0


def home_spec(name="home"):
    return StationSpec(name, owner_model=AlwaysActiveOwner())


class TestArchitectures:
    def build(self, host_archs, config=None):
        sim = Simulation()
        specs = [home_spec()]
        specs += [
            StationSpec(f"h{i}", owner_model=NeverActiveOwner(), arch=arch)
            for i, arch in enumerate(host_archs)
        ]
        system = CondorSystem(sim, specs, config=config,
                              coordinator_host="home")
        system.start()
        return sim, system

    def test_job_needs_architectures(self):
        with pytest.raises(SimulationError):
            Job(user="u", home="home", demand_seconds=HOUR,
                architectures=())

    def test_runs_on_checks_binary_availability(self):
        job = Job(user="u", home="home", demand_seconds=HOUR,
                  architectures=("vax", "sun"))
        assert job.runs_on("vax") and job.runs_on("sun")
        assert not job.runs_on("mips")

    def test_vax_job_never_placed_on_sun_station(self):
        sim, system = self.build(["sun", "sun"])
        job = Job(user="u", home="home", demand_seconds=HOUR,
                  architectures=("vax",))
        system.submit(job)
        sim.run(until=4 * HOUR)
        assert not job.placements
        assert job.state == "pending"

    def test_dual_binary_job_uses_either(self):
        sim, system = self.build(["sun"])
        job = Job(user="u", home="home", demand_seconds=HOUR,
                  architectures=("vax", "sun"))
        system.submit(job)
        sim.run(until=4 * HOUR)
        assert job.finished
        assert job.locked_arch == "sun"

    def test_checkpoint_locks_architecture(self):
        # The job starts on the lone sun station; when its owner returns
        # for good, the job may NOT continue on the vax station even
        # though a vax binary exists — its checkpoint is sun-only (§5(4)).
        sim = Simulation()
        specs = [
            home_spec(),
            StationSpec("sun-1", owner_model=TraceOwner([(HOUR, FOREVER)]),
                        arch="sun"),
            StationSpec("vax-1",
                        owner_model=TraceOwner([(0.0, 2 * HOUR)]),
                        arch="vax"),
        ]
        system = CondorSystem(sim, specs, coordinator_host="home")
        system.start()
        job = Job(user="u", home="home", demand_seconds=10 * HOUR,
                  architectures=("vax", "sun"))
        system.submit(job)
        sim.run(until=DAY)
        assert job.locked_arch == "sun"
        assert job.placements and set(job.placements) == {"sun-1"}
        assert not job.finished            # stranded: no sun machine free
        assert job.checkpointed_progress > 0

    def test_mixed_pool_schedules_both_kinds(self):
        sim, system = self.build(["vax", "sun"],
                                 config=CondorConfig(
                                     placements_per_cycle=10,
                                     grants_per_station_per_cycle=10))
        vax_job = Job(user="u", home="home", demand_seconds=HOUR,
                      architectures=("vax",))
        sun_job = Job(user="u", home="home", demand_seconds=HOUR,
                      architectures=("sun",))
        system.submit(vax_job)
        system.submit(sun_job)
        sim.run(until=6 * HOUR)
        assert vax_job.finished and vax_job.placements == ["h0"]
        assert sun_job.finished and sun_job.placements == ["h1"]

    def test_wrong_arch_grant_skipped_for_matching_job(self):
        # Queue: [sun-only, vax-only]; the only host is vax -> the vax
        # job is picked although it is second in FIFO order.
        sim, system = self.build(["vax"])
        sun_job = Job(user="u", home="home", demand_seconds=HOUR,
                      architectures=("sun",))
        vax_job = Job(user="u", home="home", demand_seconds=HOUR,
                      architectures=("vax",))
        system.submit(sun_job)
        system.submit(vax_job)
        sim.run(until=4 * HOUR)
        assert vax_job.finished
        assert not sun_job.placements


class TestReservations:
    def build_contended(self, pool=4):
        """A pool fully held by a heavy user, plus a reserving light user."""
        sim = Simulation()
        specs = [home_spec("heavy"), home_spec("light")]
        specs += [StationSpec(f"p{i}", owner_model=NeverActiveOwner())
                  for i in range(pool)]
        config = CondorConfig(placements_per_cycle=10,
                              grants_per_station_per_cycle=10)
        system = CondorSystem(sim, specs, config=config,
                              coordinator_host="heavy")
        system.start()
        heavy_jobs = []
        for i in range(pool * 3):
            job = Job(user="H", home="heavy", demand_seconds=20 * HOUR)
            system.submit(job)
            heavy_jobs.append(job)
        return sim, system, heavy_jobs

    def test_reservation_validation(self):
        sim, system, _ = self.build_contended()
        with pytest.raises(SimulationError):
            system.reservations.reserve("light", 0, 100.0, HOUR)
        with pytest.raises(SimulationError):
            system.reservations.reserve("light", 1, 100.0, 0)
        sim.run(until=500.0)
        with pytest.raises(SimulationError):
            system.reservations.reserve("light", 1, 100.0, HOUR)

    def test_reserved_capacity_preempts_the_pool(self):
        sim, system, heavy_jobs = self.build_contended(pool=4)
        reservation_start = 4 * HOUR
        system.reservations.reserve("light", 3, reservation_start, 6 * HOUR)
        sim.run(until=reservation_start)
        # Pool is saturated by the heavy user before the window opens.
        running = sum(1 for j in heavy_jobs if j.state == "running")
        assert running == 4

        light_jobs = [Job(user="L", home="light", demand_seconds=2 * HOUR)
                      for _ in range(3)]
        for job in light_jobs:
            system.submit(job)
        sim.run(until=reservation_start + HOUR)
        # Within the window the light user holds the reserved 3 machines.
        running_light = sum(1 for j in light_jobs
                            if j.state == "running")
        assert running_light == 3
        assert sum(j.priority_preemptions for j in heavy_jobs) >= 3

    def test_capacity_returns_after_window(self):
        sim, system, heavy_jobs = self.build_contended(pool=3)
        system.reservations.reserve("light", 2, 2 * HOUR, 2 * HOUR)
        light = Job(user="L", home="light", demand_seconds=HOUR)
        sim.schedule(2 * HOUR, lambda: system.submit(light))
        sim.run(until=12 * HOUR)
        assert light.finished
        # After the window the heavy user repopulates the whole pool.
        running_heavy = sum(1 for j in heavy_jobs if j.state == "running")
        assert running_heavy == 3

    def test_cancelled_reservation_has_no_effect(self):
        sim, system, heavy_jobs = self.build_contended(pool=3)
        reservation = system.reservations.reserve("light", 3, 2 * HOUR,
                                                  2 * HOUR)
        system.reservations.cancel(reservation)
        light = Job(user="L", home="light", demand_seconds=30 * 60.0)
        sim.schedule(2 * HOUR, lambda: system.submit(light))
        sim.run(until=2 * HOUR + 10 * 60.0)
        # No reserved burst: at most the normal Up-Down path (which needs
        # time to preempt one machine) — certainly no 3-machine grab.
        running_light = 1 if light.state == "running" else 0
        preempted = sum(j.priority_preemptions for j in heavy_jobs)
        assert preempted <= 1
        assert running_light <= 1

    def test_reservation_without_pending_jobs_grants_nothing(self):
        sim, system, heavy_jobs = self.build_contended(pool=3)
        system.reservations.reserve("light", 3, 2 * HOUR, HOUR)
        sim.run(until=3 * HOUR)
        # The beneficiary queued nothing: nobody is disturbed.
        assert sum(j.priority_preemptions for j in heavy_jobs) == 0

    def test_reserved_counts_accumulate(self):
        sim, system, _ = self.build_contended()
        system.reservations.reserve("light", 2, 1000.0, HOUR)
        system.reservations.reserve("light", 1, 1000.0, HOUR)
        sim.run(until=1500.0)
        assert system.reservations.reserved_counts() == {"light": 3}
