"""Tests for Table 1 user profiles."""

import pytest

from repro.sim import DAY, HOUR, RandomStream, SimulationError
from repro.workload import TABLE_1, UserProfile, paper_profiles
from repro.sim.randomness import Constant, Exponential

HOMES = {user: f"ws-0{i + 1}" for i, (user, _j, _h) in enumerate(TABLE_1)}
HORIZON = 30 * DAY


def test_paper_profiles_match_table_counts():
    profiles = paper_profiles(HOMES, HORIZON)
    by_name = {p.name: p for p in profiles}
    assert by_name["A"].total_jobs == 690
    assert by_name["B"].total_jobs == 138
    assert by_name["E"].total_jobs == 11
    assert sum(p.total_jobs for p in profiles) == 918


def test_only_a_is_heavy():
    profiles = paper_profiles(HOMES, HORIZON)
    heavies = [p.name for p in profiles if p.heavy]
    assert heavies == ["A"]


def test_demand_means_match_table():
    profiles = paper_profiles(HOMES, HORIZON)
    for profile, (_user, _jobs, mean_hours) in zip(profiles, TABLE_1):
        assert profile.demand_dist.mean() == pytest.approx(
            mean_hours * HOUR, rel=1e-9
        )


def test_job_scale_shrinks_counts():
    profiles = paper_profiles(HOMES, HORIZON, job_scale=0.1)
    by_name = {p.name: p for p in profiles}
    assert by_name["A"].total_jobs == 69
    assert by_name["E"].total_jobs >= 1   # never scaled to zero


def test_homes_assigned():
    profiles = paper_profiles(HOMES, HORIZON)
    assert all(p.home == HOMES[p.name] for p in profiles)


def test_sampled_demands_have_low_median():
    # Fig. 2: mean ~5 h but median < 3 h for the pooled workload.
    profiles = paper_profiles(HOMES, HORIZON)
    stream = RandomStream(7, "demand-check")
    samples = []
    for profile in profiles:
        weight = profile.total_jobs
        samples.extend(
            profile.demand_dist.sample(stream) / HOUR
            for _ in range(weight)
        )
    samples.sort()
    median = samples[len(samples) // 2]
    mean = sum(samples) / len(samples)
    assert 4.0 < mean < 6.5
    assert median < 3.0


def test_light_user_without_interbatch_rejected():
    with pytest.raises(SimulationError):
        UserProfile("X", "ws-1", 10, Constant(HOUR))


def test_negative_total_jobs_rejected():
    with pytest.raises(SimulationError):
        UserProfile("X", "ws-1", -1, Constant(HOUR),
                    interbatch_dist=Exponential(100.0))


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
def test_job_scale_must_be_finite_and_positive(scale):
    with pytest.raises(SimulationError):
        paper_profiles(HOMES, HORIZON, job_scale=scale)
