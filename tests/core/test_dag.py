"""Tests for dependent-job (DAG) submission."""

import pytest

from repro.core import CondorSystem, Job, JobDag, SchedulingError, StationSpec
from repro.machine import AlwaysActiveOwner, NeverActiveOwner
from repro.sim import DAY, HOUR, Simulation


def build(pool=2):
    sim = Simulation()
    specs = [StationSpec("home", owner_model=AlwaysActiveOwner(),
                         disk_mb=None)]
    specs += [StationSpec(f"h{i}", owner_model=NeverActiveOwner())
              for i in range(pool)]
    system = CondorSystem(sim, specs, coordinator_host="home")
    system.start()
    return sim, system


def job(demand=HOUR, name=None):
    return Job(user="u", home="home", demand_seconds=demand, name=name)


def test_linear_chain_runs_in_order():
    sim, system = build()
    dag = JobDag(system)
    a = dag.add(job(name="a"))
    b = dag.add(job(name="b"), after=[a])
    c = dag.add(job(name="c"), after=[b])
    dag.start()
    sim.run(until=DAY)
    assert dag.done
    assert a.completed_at <= b.submitted_at
    assert b.completed_at <= c.submitted_at


def test_parallel_stage_overlaps():
    sim, system = build(pool=3)
    dag = JobDag(system)
    gen = dag.add(job(demand=30 * 60.0, name="generate"))
    sims = [dag.add(job(demand=2 * HOUR, name=f"sweep-{i}"), after=[gen])
            for i in range(3)]
    reduce_job = dag.add(job(demand=30 * 60.0, name="reduce"), after=sims)
    dag.start()
    sim.run(until=2 * DAY)
    assert dag.done
    # The three sweeps ran concurrently (window overlap).
    starts = [j.first_placed_at for j in sims]
    ends = [j.completed_at for j in sims]
    assert max(starts) < min(ends)
    assert reduce_job.submitted_at >= max(ends)


def test_diamond_dependencies():
    sim, system = build(pool=2)
    dag = JobDag(system)
    top = dag.add(job(name="top", demand=600.0))
    left = dag.add(job(name="left", demand=600.0), after=[top])
    right = dag.add(job(name="right", demand=1200.0), after=[top])
    bottom = dag.add(job(name="bottom", demand=600.0),
                     after=[left, right])
    dag.start()
    sim.run(until=DAY)
    assert dag.done
    assert bottom.submitted_at >= max(left.completed_at,
                                      right.completed_at)


def test_unblocked_jobs_submit_immediately():
    sim, system = build()
    dag = JobDag(system)
    a = dag.add(job(name="a"))
    b = dag.add(job(name="b"))
    dag.start()
    assert a.submitted_at is not None and b.submitted_at is not None


def test_parent_must_be_added_first():
    sim, system = build()
    dag = JobDag(system)
    ghost = job(name="ghost")
    with pytest.raises(SchedulingError):
        dag.add(job(name="child"), after=[ghost])


def test_no_duplicate_jobs():
    sim, system = build()
    dag = JobDag(system)
    a = dag.add(job())
    with pytest.raises(SchedulingError):
        dag.add(a)


def test_no_additions_after_start():
    sim, system = build()
    dag = JobDag(system)
    dag.add(job())
    dag.start()
    with pytest.raises(SchedulingError):
        dag.add(job())


def test_critical_path_demand():
    sim, system = build()
    dag = JobDag(system)
    a = dag.add(job(demand=100.0))
    b = dag.add(job(demand=200.0), after=[a])
    c = dag.add(job(demand=50.0), after=[a])
    d = dag.add(job(demand=25.0), after=[b, c])
    dag.start()
    assert dag.critical_path_demand() == 325.0   # a -> b -> d


def test_makespan_bounded_below_by_critical_path():
    sim, system = build(pool=4)
    dag = JobDag(system)
    a = dag.add(job(demand=HOUR))
    for i in range(3):
        dag.add(job(demand=HOUR), after=[a])
    dag.start()
    sim.run(until=DAY)
    assert dag.done
    makespan = max(j.completed_at for j in dag.jobs)
    assert makespan >= dag.critical_path_demand()
