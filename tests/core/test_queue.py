"""Tests for the per-station background job queue."""

import pytest

from repro.core import FIFO, SHORTEST_FIRST, BackgroundJobQueue, Job
from repro.core import job as jobstate
from repro.sim import SimulationError


def make_job(demand=3600.0):
    return Job(user="A", home="ws-1", demand_seconds=demand)


def test_unknown_discipline_rejected():
    with pytest.raises(SimulationError):
        BackgroundJobQueue("ws-1", discipline="lifo")


def test_fifo_order():
    queue = BackgroundJobQueue("ws-1", FIFO)
    jobs = [make_job() for _ in range(3)]
    for job in jobs:
        queue.enqueue(job)
    assert [queue.select_next() for _ in range(3)] == jobs


def test_shortest_first_order():
    queue = BackgroundJobQueue("ws-1", SHORTEST_FIRST)
    long_job = make_job(demand=7200.0)
    short_job = make_job(demand=600.0)
    queue.enqueue(long_job)
    queue.enqueue(short_job)
    assert queue.select_next() is short_job


def test_select_from_empty_returns_none():
    assert BackgroundJobQueue("ws-1").select_next() is None


def test_enqueue_requires_pending_state():
    queue = BackgroundJobQueue("ws-1")
    job = make_job()
    job.transition(jobstate.PLACING)
    with pytest.raises(SimulationError):
        queue.enqueue(job)


def test_double_enqueue_rejected():
    queue = BackgroundJobQueue("ws-1")
    job = make_job()
    queue.enqueue(job)
    with pytest.raises(SimulationError):
        queue.enqueue(job)


def test_counts_track_lifecycle():
    queue = BackgroundJobQueue("ws-1")
    job = make_job()
    queue.enqueue(job)
    assert (queue.pending_count, queue.active_count) == (1, 0)
    assert queue.total_in_system == 1

    picked = queue.select_next()
    queue.mark_active(picked)
    assert (queue.pending_count, queue.active_count) == (0, 1)
    assert queue.total_in_system == 1

    picked.transition(jobstate.PLACING)
    picked.transition(jobstate.PENDING)
    queue.return_to_pending(picked)
    assert (queue.pending_count, queue.active_count) == (1, 0)


def test_retire_from_active():
    queue = BackgroundJobQueue("ws-1")
    job = make_job()
    queue.enqueue(job)
    queue.select_next()
    queue.mark_active(job)
    queue.retire(job)
    assert queue.total_in_system == 0


def test_retire_from_pending():
    queue = BackgroundJobQueue("ws-1")
    job = make_job()
    queue.enqueue(job)
    queue.retire(job)
    assert queue.total_in_system == 0


def test_retire_unknown_rejected():
    queue = BackgroundJobQueue("ws-1")
    with pytest.raises(SimulationError):
        queue.retire(make_job())


def test_double_mark_active_rejected():
    queue = BackgroundJobQueue("ws-1")
    job = make_job()
    queue.enqueue(job)
    queue.select_next()
    queue.mark_active(job)
    with pytest.raises(SimulationError):
        queue.mark_active(job)
