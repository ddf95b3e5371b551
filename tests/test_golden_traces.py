"""Absolute golden traces: sha256 pins of three short recorded runs.

Every other golden test in the suite is relative (delta vs poll, K=1 vs
delta), so a change that shifts *both* sides passes them.  These three
hashes are absolute: a refactor that claims "same behaviour" must
reproduce them byte for byte.  They were taken at the
commit before the simulator's daemons moved onto the telemetry hub and
must only ever change together with a CHANGES.md line saying why the
simulated behaviour moved.
"""

import hashlib

from repro.analysis.chaos import run_chaos
from repro.analysis.experiment import ExperimentRun
from repro.core import CondorConfig, reset_job_ids
from repro.sim import DAY
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
