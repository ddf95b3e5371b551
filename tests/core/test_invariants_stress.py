"""Randomized stress tests: invariants hold under chaos.

These runs combine random owner activity, random workloads, crash
injection and both scheduler modes, sampling the invariant checker
throughout.  They are the repository's strongest correctness evidence:
the paper's guarantees hold not just on curated scenarios but across
arbitrary interleavings.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CondorConfig,
    CondorSystem,
    InvariantChecker,
    Job,
    StationSpec,
)
from repro.faults import CrashInjector
from repro.machine import AlternatingOwner, AlwaysActiveOwner
from repro.metrics.timeseries import PeriodicSampler
from repro.sim import DAY, HOUR, MINUTE, RandomStream, Simulation
from repro.sim.randomness import Exponential, LogNormal, Uniform


def build_chaos_system(seed, stations=6, config=None):
    sim = Simulation()
    stream = RandomStream(seed, "chaos")
    specs = [StationSpec("home", owner_model=AlwaysActiveOwner(),
                         disk_mb=500.0)]
    for i in range(stations):
        specs.append(StationSpec(
            f"h{i}",
            owner_model=AlternatingOwner(
                Exponential(2 * HOUR), LogNormal(30 * MINUTE, 1.0),
                stream.fork(f"h{i}.owner"),
            ),
        ))
    system = CondorSystem(sim, specs, config=config,
                          coordinator_host="home")
    return sim, system, stream


def submit_random_workload(system, stream, n_jobs):
    jobs = []
    demand = Uniform(10 * MINUTE, 6 * HOUR)
    for i in range(n_jobs):
        job = Job(user=f"user-{i % 3}", home="home",
                  demand_seconds=demand.sample(stream),
                  syscall_rate=stream.uniform(0.0, 1.0))
        system.submit(job)
        jobs.append(job)
    return jobs


def run_with_invariant_sampling(sim, system, horizon):
    checker = InvariantChecker(system)
    sampler = PeriodicSampler(sim, checker.check, interval=10 * MINUTE,
                              name="invariants")
    system.start()
    sampler.start()
    sim.run(until=horizon)
    system.finalize()
    checker.check_final()
    return checker


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_invariants_hold_with_churny_owners(seed):
    sim, system, stream = build_chaos_system(seed)
    jobs = submit_random_workload(system, stream.fork("jobs"), 12)
    checker = run_with_invariant_sampling(sim, system, 6 * DAY)
    assert checker.checks_passed > 500
    assert all(job.finished for job in jobs)
    # Checkpointing guarantee: nothing was ever redone.
    assert all(job.wasted_cpu_seconds == 0.0 for job in jobs)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_invariants_hold_under_crash_injection(seed):
    sim, system, stream = build_chaos_system(seed)
    jobs = submit_random_workload(system, stream.fork("jobs"), 10)
    injector = CrashInjector(
        sim, system, stream.fork("faults"),
        uptime_dist=Exponential(8 * HOUR),
        downtime_dist=Exponential(30 * MINUTE),
        exclude=("home",),
    )
    injector.start()
    checker = run_with_invariant_sampling(sim, system, 8 * DAY)
    assert injector.crashes > 0
    # The paper's guarantee: jobs eventually complete despite failures.
    assert all(job.finished for job in jobs)
    assert checker.checks_passed > 500


@pytest.mark.parametrize("seed", [21, 22])
def test_invariants_hold_in_butler_mode_with_crashes(seed):
    config = CondorConfig(kill_on_owner_return=True)
    sim, system, stream = build_chaos_system(seed, config=config)
    jobs = submit_random_workload(system, stream.fork("jobs"), 8)
    injector = CrashInjector(
        sim, system, stream.fork("faults"),
        uptime_dist=Exponential(12 * HOUR),
        downtime_dist=Exponential(20 * MINUTE),
        exclude=("home",),
    )
    injector.start()
    run_with_invariant_sampling(sim, system, 10 * DAY)
    finished = [job for job in jobs if job.finished]
    # Kill-mode wastes work (that's its point) but never corrupts it.
    for job in finished:
        useful = job.remote_cpu_seconds - job.wasted_cpu_seconds
        assert useful == pytest.approx(job.demand_seconds, abs=1.0)


@pytest.mark.parametrize("seed", [31, 32])
def test_invariants_with_periodic_checkpoints_and_crashes(seed):
    config = CondorConfig(periodic_checkpoint_interval=15 * MINUTE)
    sim, system, stream = build_chaos_system(seed, config=config)
    jobs = submit_random_workload(system, stream.fork("jobs"), 8)
    injector = CrashInjector(
        sim, system, stream.fork("faults"),
        uptime_dist=Exponential(6 * HOUR),
        downtime_dist=Exponential(30 * MINUTE),
        exclude=("home",),
    )
    injector.start()
    run_with_invariant_sampling(sim, system, 8 * DAY)
    finished = [job for job in jobs if job.finished]
    assert finished
    # With 15-minute periodic checkpoints, each crash loses at most
    # ~one interval of work.
    for job in finished:
        max_loss = (job.kill_count + len(job.placements)) * (15 * MINUTE)
        assert job.wasted_cpu_seconds <= max_loss + 1.0


@given(seed=st.integers(0, 10_000))
@settings(max_examples=8, deadline=None)
def test_invariants_property_short_chaos(seed):
    """Hypothesis sweep: short chaotic runs across arbitrary seeds."""
    sim, system, stream = build_chaos_system(seed, stations=4)
    submit_random_workload(system, stream.fork("jobs"), 6)
    checker = run_with_invariant_sampling(sim, system, 1 * DAY)
    assert checker.checks_passed > 100


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_invariants_hold_with_message_jitter(seed):
    """Messages between daemons arrive out of order (jittered latency);
    the protocols must tolerate the reordering."""
    from repro.net import Network

    sim = Simulation()
    stream = RandomStream(seed, "jitter-chaos")
    network = Network(
        sim, latency=0.005, latency_jitter=2.0,
        jitter_stream=stream.fork("net"),
    )
    specs = [StationSpec("home", owner_model=AlwaysActiveOwner(),
                         disk_mb=500.0)]
    for i in range(5):
        specs.append(StationSpec(
            f"h{i}",
            owner_model=AlternatingOwner(
                Exponential(90 * MINUTE), LogNormal(20 * MINUTE, 1.0),
                stream.fork(f"h{i}.owner"),
            ),
        ))
    system = CondorSystem(sim, specs, network=network,
                          coordinator_host="home")
    jobs = submit_random_workload(system, stream.fork("jobs"), 10)
    injector = CrashInjector(
        sim, system, stream.fork("faults"),
        uptime_dist=Exponential(10 * HOUR),
        downtime_dist=Exponential(30 * MINUTE),
        exclude=("home",),
    )
    injector.start()
    checker = run_with_invariant_sampling(sim, system, 6 * DAY)
    assert checker.checks_passed > 400
    assert all(job.finished for job in jobs)
