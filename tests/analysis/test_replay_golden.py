"""Absolute pins of the replay path: a recorded workload run as a variant.

The ablation, sensitivity and pool-size exhibits all replay one baseline
trace under scheduler variants.  These hashes fix what a replayed run
does — its comparison metrics, every station's ledger, its event count
and its full telemetry trace — so a refactor of the run builder has to
reproduce them byte for byte.
"""

import hashlib
import json

from repro.analysis.ablation import baseline_trace, run_variant, summarize
from repro.analysis.experiment import ExperimentRun
from repro.core import CondorConfig, FcfsPolicy, reset_job_ids

TRACE_KWARGS = {"seed": 3, "days": 2, "job_scale": 0.04}

VARIANTS_SEED_3 = (
    "7de6899a2520d47862dc46d487c237b12710bf6970e013a64a88d59b1033ba9d"
)
REPLAY_TRACE_SEED_3 = (
    "6ec982ae224f8b72abb6f3ba00a83d75552338b6393ee0e6c283df6b145e7932"
)


def _digest(payload):
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def test_variant_outcomes():
    trace = baseline_trace(**TRACE_KWARGS)
    runs = [
        run_variant(trace, seed=3, days=2),
        run_variant(trace, seed=3, days=2, policy=FcfsPolicy()),
        run_variant(trace, seed=3, days=2,
                    config=CondorConfig(grace_period=0.0)),
    ]
    payload = [
        [summarize(run),
         [[name, sorted(station.ledger.totals.items())]
          for name, station in run.system.stations.items()],
         run.sim.events_dispatched]
        for run in runs
    ]
    assert _digest(payload) == VARIANTS_SEED_3


def test_replayed_run_trace(tmp_path):
    trace = baseline_trace(**TRACE_KWARGS)
    reset_job_ids()
    path = tmp_path / "replay.jsonl"
    ExperimentRun(seed=3, days=2, config=CondorConfig(), records=trace,
                  trace_path=str(path)).execute()
    data = path.read_bytes()
    assert len(data) == 1_706_585
    assert hashlib.sha256(data).hexdigest() == REPLAY_TRACE_SEED_3
