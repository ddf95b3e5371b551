"""Tests for the Job state machine and per-job metrics."""

import pytest

from repro.core import job as jobstate
from repro.core.job import Job, LiveJobs
from repro.remote_unix import SegmentLayout
from repro.sim import HOUR, SimulationError


def make_job(demand=HOUR, **kwargs):
    return Job(user="A", home="ws-1", demand_seconds=demand, **kwargs)


class TestConstruction:
    def test_defaults(self):
        job = make_job()
        assert job.state == jobstate.PENDING
        assert job.remaining_seconds == HOUR
        assert job.image_mb() == pytest.approx(0.5)

    def test_demand_must_be_positive(self):
        with pytest.raises(SimulationError):
            make_job(demand=0)

    def test_negative_syscall_rate_rejected(self):
        with pytest.raises(SimulationError):
            make_job(syscall_rate=-1.0)

    def test_layout_type_checked(self):
        with pytest.raises(SimulationError):
            make_job(layout="big")

    def test_ids_are_unique_and_increasing(self):
        a, b = make_job(), make_job()
        assert b.id > a.id


class TestStateMachine:
    def test_legal_path_to_completion(self):
        job = make_job()
        for state in (jobstate.PLACING, jobstate.RUNNING,
                      jobstate.COMPLETED):
            job.transition(state)
        assert job.finished

    def test_suspend_resume_cycle(self):
        job = make_job()
        job.transition(jobstate.PLACING)
        job.transition(jobstate.RUNNING)
        job.transition(jobstate.SUSPENDED)
        job.transition(jobstate.RUNNING)
        job.transition(jobstate.SUSPENDED)
        job.transition(jobstate.VACATING)
        job.transition(jobstate.PENDING)
        assert job.state == jobstate.PENDING

    def test_illegal_transition_raises(self):
        job = make_job()
        with pytest.raises(SimulationError):
            job.transition(jobstate.RUNNING)   # must go through PLACING

    def test_completed_is_terminal(self):
        job = make_job()
        job.transition(jobstate.PLACING)
        job.transition(jobstate.RUNNING)
        job.transition(jobstate.COMPLETED)
        with pytest.raises(SimulationError):
            job.transition(jobstate.PENDING)

    def test_in_system_covers_queued_states(self):
        job = make_job()
        assert job.in_system
        job.transition(jobstate.REMOVED)
        assert not job.in_system


class TestProgressAndRollback:
    def test_remaining_tracks_progress(self):
        job = make_job(demand=100.0)
        job.progress = 30.0
        assert job.remaining_seconds == 70.0

    def test_remaining_never_negative(self):
        job = make_job(demand=100.0)
        job.progress = 150.0
        assert job.remaining_seconds == 0.0

    def test_rollback_returns_lost_work(self):
        job = make_job(demand=100.0)
        job.progress = 60.0
        job.checkpointed_progress = 40.0
        lost = job.roll_back_to_checkpoint()
        assert lost == 20.0
        assert job.progress == 40.0
        assert job.wasted_cpu_seconds == 20.0

    def test_rollback_with_checkpoint_ahead_recovers_work(self):
        # A durable periodic checkpoint cut mid-slice on a crashed host
        # can lead the settled progress: resetting *recovers* work and
        # refunds the waste the crash accounting booked.
        job = make_job(demand=100.0)
        job.progress = 20.0
        job.wasted_cpu_seconds = 30.0      # booked at the host crash
        job.checkpointed_progress = 40.0   # durable image from mid-slice
        delta = job.roll_back_to_checkpoint()
        assert delta == -20.0
        assert job.progress == 40.0
        assert job.wasted_cpu_seconds == 10.0

    def test_rollback_waste_refund_never_goes_negative(self):
        job = make_job(demand=100.0)
        job.progress = 0.0
        job.checkpointed_progress = 50.0
        job.roll_back_to_checkpoint()
        assert job.wasted_cpu_seconds == 0.0
        assert job.progress == 50.0

    def test_image_grows_with_progress(self):
        layout = SegmentLayout(100, 200, 100, 50,
                               data_growth_kb_per_cpu_hour=100)
        job = make_job(demand=10 * HOUR, layout=layout)
        small = job.image_mb()
        job.progress = 5 * HOUR
        assert job.image_mb() > small


class TestSupportAccounting:
    def test_support_kinds(self):
        job = make_job()
        job.add_support("placement", 2.5)
        job.add_support("checkpoint", 2.5)
        job.add_support("syscall", 1.0)
        assert job.total_support_seconds == 6.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            make_job().add_support("magic", 1.0)

    def test_negative_support_rejected(self):
        with pytest.raises(SimulationError):
            make_job().add_support("syscall", -1.0)


class TestDerivedMetrics:
    def test_leverage(self):
        job = make_job(demand=HOUR)
        job.remote_cpu_seconds = 3600.0
        job.add_support("placement", 2.5)
        job.add_support("checkpoint", 2.5)
        job.add_support("syscall", 1.0)
        assert job.leverage() == pytest.approx(600.0)

    def test_leverage_none_without_support(self):
        assert make_job().leverage() is None

    def test_wait_ratio(self):
        job = make_job(demand=HOUR)
        job.submitted_at = 0.0
        job.completed_at = 3.0 * HOUR
        assert job.wait_ratio() == pytest.approx(2.0)

    def test_wait_ratio_zero_when_served_instantly(self):
        job = make_job(demand=HOUR)
        job.submitted_at = 0.0
        job.completed_at = HOUR
        assert job.wait_ratio() == 0.0

    def test_wait_ratio_none_until_completion(self):
        assert make_job().wait_ratio() is None

    def test_checkpoint_rate(self):
        job = make_job(demand=2 * HOUR)
        job.checkpoint_count = 3
        assert job.checkpoint_rate_per_hour() == pytest.approx(1.5)


class TestLiveJobs:
    def test_tracks_appends_and_drops_jobs_that_left_for_good(self):
        jobs = [make_job() for _ in range(3)]
        live = LiveJobs(jobs)
        assert live.current() == jobs
        jobs[0].transition(jobstate.REMOVED)
        jobs[1].transition(jobstate.PLACING)
        jobs[1].transition(jobstate.RUNNING)
        assert live.current() == jobs[1:]
        late = make_job()
        jobs.append(late)                       # e.g. a gang's members
        jobs[1].transition(jobstate.COMPLETED)
        assert live.current() == [jobs[2], late]
        assert live.current() == [job for job in jobs if job.in_system]
