"""Absolute golden traces: sha256 pins of short recorded runs.

Every other golden test in the suite is relative (delta vs poll, K=1 vs
delta), so a change that shifts *both* sides passes them.  These
hashes are absolute: a refactor that claims "same behaviour" must
reproduce them byte for byte.  The first three were taken at the
commit before the simulator's daemons moved onto the telemetry hub; the
storage-chaos and kill-mode pins before the home side of the local
scheduler was folded onto one requeue and one banking path.  All must
only ever change together with a CHANGES.md line saying why the
simulated behaviour moved.

The storage-chaos runs are the only ones that reach periodic
checkpoints, torn or disk-full image loss and the restore fallback; the
kill-mode month is the only one that reaches ``job_killed``.  The trace
does not carry ``checkpoint_lost_count``: ``TestStorageDurability``
guards that counter.
"""

import hashlib

import pytest

from repro.analysis.chaos import run_chaos
from repro.analysis.experiment import ExperimentRun
from repro.core import CondorConfig, reset_job_ids
from repro.sim import DAY
from repro.telemetry import kinds
from repro.workload.users import paper_profiles

MONTH_4_DAYS_SEED_42 = (
    "6c7229bd3328edf9f098823e2891326280078bbe21836391742cd59019198fd4"
)
CHAOS_KITCHEN_SINK_SEED_7 = (
    "0e08db716e6395f291cb79b9bcbcf8c6a9d689bc2e160001b955c78cf5c52d26"
)
FEDERATED_K4_SEED_42 = (
    "13ef9900f2d0d5a0aa449187c2da33fd3962d4e4ed6449dc9dd4a913a4f90486"
)
STORAGE_CHAOS_SEED_7 = {
    "torn-write":
        "b3208fb20dc8c18e335fbc911639a46dd8b20568024e1452db72699ef333c9da",
    "disk-chaos":
        "003f23971d5baaa87a2a40fcb62ac7765d7bda4ed71175c6840bafe93338a5b6",
    "corrupt-restore":
        "32e72aa31357c988808cb33f39499394a16f8a008975fa629cdd23f0b83964ab",
}
KILL_MODE_2_DAYS_SEED_42 = (
    "189fd4acd933c9b6ecccd49d3f82d6ee3c1bdecc03f3a77e3d147939c741abf7"
)


def _recorded(tmp_path, **kwargs):
    reset_job_ids()
    path = tmp_path / "trace.jsonl"
    run = ExperimentRun(trace_path=str(path), **kwargs).execute()
    return run, hashlib.sha256(path.read_bytes()).hexdigest()


def test_month_four_days(tmp_path):
    run, digest = _recorded(tmp_path, seed=42, days=4)
    assert run.telemetry.events_emitted > 5000
    assert digest == MONTH_4_DAYS_SEED_42


def test_chaos_kitchen_sink():
    run = run_chaos("kitchen-sink", seed=7)
    assert run.injector.injected > 0
    assert hashlib.sha256(run.trace_bytes).hexdigest() == (
        CHAOS_KITCHEN_SINK_SEED_7)


@pytest.mark.parametrize("schedule", sorted(STORAGE_CHAOS_SEED_7))
def test_storage_chaos(schedule):
    run = run_chaos(schedule, seed=7)
    assert run.injector.injected > 0
    assert hashlib.sha256(run.trace_bytes).hexdigest() == (
        STORAGE_CHAOS_SEED_7[schedule])


def test_month_kill_on_owner_return(tmp_path):
    # Butler mode: an owner's return kills the guest without a
    # checkpoint, so every eviction is a ``job_killed`` requeue.
    run, digest = _recorded(tmp_path, seed=42, days=2,
                            config=CondorConfig(kill_on_owner_return=True))
    assert run.telemetry.counts[kinds.JOB_KILLED] > 100
    assert digest == KILL_MODE_2_DAYS_SEED_42


def test_federated_four_pools(tmp_path):
    # Table 1's users spread over the four 6-station pools, so leases
    # flow and the federation vocabulary is in the pinned bytes.
    homes = {"A": "ws-01", "B": "ws-07", "C": "ws-13",
             "D": "ws-19", "E": "ws-02"}
    days = 3
    run, digest = _recorded(
        tmp_path, seed=42, days=days, stations=24, pools=4,
        profiles=paper_profiles(homes, days * DAY, job_scale=0.2),
        config=CondorConfig(max_machines_per_station=6),
    )
    assert run.system.matchmaker.leases_brokered > 0
    assert digest == FEDERATED_K4_SEED_42
