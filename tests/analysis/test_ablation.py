"""Tests for the ablation harness (trace replay under variants)."""

import pytest

from repro.analysis.ablation import baseline_trace, run_variant, summarize
from repro.core import CondorConfig, FcfsPolicy

TRACE_KWARGS = {"seed": 3, "days": 2, "job_scale": 0.04}


@pytest.fixture(scope="module")
def trace():
    return baseline_trace(**TRACE_KWARGS)


def test_trace_is_cached(trace):
    assert baseline_trace(**TRACE_KWARGS) is trace


def test_trace_records_have_inputs_only(trace):
    record = trace[0]
    assert set(record) == {"user", "home", "demand_seconds",
                           "syscall_rate", "submitted_at", "layout"}


def test_replay_executes_same_workload(trace):
    run = run_variant(trace, seed=3, days=2)
    assert len(run.jobs) == len(trace)
    assert [j.demand_seconds for j in run.jobs] == \
        [r["demand_seconds"] for r in trace]


def test_variants_share_owner_randomness(trace):
    a = run_variant(trace, seed=3, days=2)
    b = run_variant(trace, seed=3, days=2,
                    config=CondorConfig(grace_period=0.0))
    # Identical owner processes: same total owner hours on every station.
    owner_a = [s.ledger.totals["owner"] for s in a.system.stations.values()]
    owner_b = [s.ledger.totals["owner"] for s in b.system.stations.values()]
    assert owner_a == owner_b


def test_policy_variant_changes_behaviour_not_workload(trace):
    updown = run_variant(trace, seed=3, days=2)
    fcfs = run_variant(trace, seed=3, days=2, policy=FcfsPolicy())
    assert len(updown.jobs) == len(fcfs.jobs)
    assert updown.system.policy.name == "up-down"
    assert fcfs.system.policy.name == "fcfs"


def test_summarize_keys(trace):
    summary = summarize(run_variant(trace, seed=3, days=2))
    expected = {"completed", "completion_rate", "remote_hours",
                "wasted_hours", "checkpoints", "kills", "preemptions",
                "avg_wait_all", "avg_wait_light", "avg_wait_heavy",
                "avg_leverage"}
    assert set(summary) == expected
    assert 0.0 <= summary["completion_rate"] <= 1.0


def test_replay_run_light_heavy_partition(trace):
    run = run_variant(trace, seed=3, days=2)
    assert "A" not in run.light_users
    all_users = {j.user for j in run.jobs}
    assert run.light_users <= all_users
