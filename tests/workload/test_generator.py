"""Tests for the workload generator against a live small system."""

from repro.core import CondorSystem, StationSpec
from repro.machine import AlwaysActiveOwner, NeverActiveOwner
from repro.sim import DAY, HOUR, RandomStream, Simulation
from repro.sim.randomness import Constant, Exponential, Uniform
from repro.workload import UserProfile, WorkloadGenerator


def build_small_system(sim, hosts=3):
    specs = [StationSpec("ws-home", owner_model=AlwaysActiveOwner())]
    specs += [StationSpec(f"ws-h{i}", owner_model=NeverActiveOwner())
              for i in range(hosts)]
    return CondorSystem(sim, specs)


def light_profile(total_jobs=10, demand=Constant(HOUR)):
    return UserProfile(
        "L", "ws-home", total_jobs, demand,
        batch_size_dist=Uniform(2, 4),
        interbatch_dist=Exponential(6 * HOUR),
    )


def heavy_profile(total_jobs=20, target=5):
    return UserProfile(
        "H", "ws-home", total_jobs, Constant(HOUR),
        batch_size_dist=Constant(5),
        standing_target=target,
    )


class TestLightUser:
    def test_submits_exactly_budget(self):
        sim = Simulation()
        system = build_small_system(sim)
        gen = WorkloadGenerator(sim, system, [light_profile(10)],
                                RandomStream(3), horizon=2 * DAY)
        system.start()
        gen.start()
        sim.run(until=2 * DAY)
        assert len(gen.submitted["L"]) == 10
        assert gen.remaining_budget(gen.profiles[0]) == 0

    def test_batches_are_bursty(self):
        sim = Simulation()
        system = build_small_system(sim)
        gen = WorkloadGenerator(sim, system, [light_profile(10)],
                                RandomStream(3), horizon=2 * DAY)
        system.start()
        gen.start()
        sim.run(until=2 * DAY)
        submit_times = sorted({j.submitted_at for j in gen.submitted["L"]})
        # 10 jobs in far fewer distinct submission instants than jobs.
        assert len(submit_times) <= 5

    def test_all_jobs_sorted_by_id(self):
        sim = Simulation()
        system = build_small_system(sim)
        gen = WorkloadGenerator(sim, system, [light_profile(8)],
                                RandomStream(3), horizon=DAY)
        system.start()
        gen.start()
        sim.run(until=DAY)
        ids = [job.id for job in gen.all_jobs()]
        assert ids == sorted(ids)


class TestHeavyUser:
    def test_maintains_standing_target(self):
        sim = Simulation()
        system = build_small_system(sim, hosts=2)
        gen = WorkloadGenerator(sim, system, [heavy_profile(50, target=5)],
                                RandomStream(4), horizon=10 * DAY)
        system.start()
        gen.start()
        sim.run(until=6 * HOUR)
        in_system = gen.in_system_count("H")
        assert in_system == 5      # topped up to the target

    def test_budget_is_exhausted_eventually(self):
        sim = Simulation()
        system = build_small_system(sim, hosts=3)
        gen = WorkloadGenerator(sim, system, [heavy_profile(12, target=4)],
                                RandomStream(4), horizon=30 * DAY)
        system.start()
        gen.start()
        sim.run(until=10 * DAY)
        assert len(gen.submitted["H"]) == 12
        assert all(job.finished for job in gen.submitted["H"])


class TestRefusals:
    def test_disk_refusals_counted_not_fatal(self):
        sim = Simulation()
        specs = [StationSpec("ws-home", owner_model=AlwaysActiveOwner(),
                             disk_mb=1.2),
                 StationSpec("ws-h0", owner_model=NeverActiveOwner())]
        system = CondorSystem(sim, specs)
        profile = UserProfile(
            "L", "ws-home", 6, Constant(10 * HOUR),
            batch_size_dist=Constant(6),
            interbatch_dist=Exponential(HOUR),
        )
        gen = WorkloadGenerator(sim, system, [profile], RandomStream(5),
                                horizon=DAY)
        system.start()
        gen.start()
        sim.run(until=DAY)
        # ~0.5 MB images on a 1.2 MB disk: only 2 fit at submit time.
        assert gen.refused["L"] > 0
        assert len(gen.submitted["L"]) + gen.refused["L"] == 6


def test_light_user_names():
    sim = Simulation()
    system = build_small_system(sim)
    gen = WorkloadGenerator(
        sim, system, [heavy_profile(), light_profile()], RandomStream(1),
        horizon=DAY,
    )
    assert gen.light_user_names() == frozenset({"L"})


class TestHeavyQuota:
    def test_daily_quota_paces_submissions(self):
        sim = Simulation()
        system = build_small_system(sim, hosts=3)
        profile = UserProfile(
            "H", "ws-home", 30, Constant(10 * 60.0),
            batch_size_dist=Constant(10),
            standing_target=30, daily_quota=5,
        )
        gen = WorkloadGenerator(sim, system, [profile], RandomStream(8),
                                horizon=10 * DAY)
        system.start()
        gen.start()
        sim.run(until=DAY - 1.0)
        day1 = len(gen.submitted["H"])
        sim.run(until=2 * DAY - 1.0)
        day2 = len(gen.submitted["H"])
        assert day1 == 5               # capped by the quota
        assert day2 == 10
        sim.run(until=10 * DAY)
        assert len(gen.submitted["H"]) == 30   # budget still exhausted

    def test_no_quota_floods_to_standing_target(self):
        sim = Simulation()
        system = build_small_system(sim, hosts=1)
        profile = UserProfile(
            "H", "ws-home", 40, Constant(10 * HOUR),
            batch_size_dist=Constant(50),
            standing_target=25,
        )
        gen = WorkloadGenerator(sim, system, [profile], RandomStream(8),
                                horizon=10 * DAY)
        system.start()
        gen.start()
        sim.run(until=HOUR)
        assert len(gen.submitted["H"]) == 25   # straight to the target
