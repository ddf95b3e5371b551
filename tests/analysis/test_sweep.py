"""The sweep executor's determinism contract.

A spec executed through the sweep machinery must be indistinguishable
from the same experiment run directly: identical headline scalars and a
byte-identical telemetry trace.  Parallelism (``jobs=N``) must change
wall time only, never results.
"""

import dataclasses

import pytest

from repro.analysis import experiment
from repro.analysis.ablation import baseline_trace
from repro.analysis.sweep import (
    COLLECTORS,
    MonthSpec,
    month_spec,
    run_spec,
    run_specs,
    sweep_seeds,
    sweep_values,
)
from repro.analysis.validation import headline_metrics
from repro.core.config import CondorConfig
from repro.core.job import reset_job_ids
from repro.sim.errors import SimulationError

SEED = 7
KW = {"days": 2, "job_scale": 0.2}


class TestWorkerMatchesDirectRun:
    def test_headline_scalars_identical(self):
        reset_job_ids()
        direct = headline_metrics(experiment.run_month(seed=SEED, **KW))
        record = run_spec(month_spec(SEED, **KW))
        assert record["seed"] == SEED
        assert record["metrics"] == direct

    def test_traces_byte_identical(self, tmp_path):
        direct_path = tmp_path / "direct.jsonl"
        sweep_path = tmp_path / "sweep.jsonl"
        reset_job_ids()
        experiment.run_month(seed=SEED, trace_path=str(direct_path), **KW)
        run_spec(month_spec(SEED, trace_path=str(sweep_path), **KW))
        direct = direct_path.read_bytes()
        assert len(direct) > 0
        assert direct == sweep_path.read_bytes()


class TestOrderingAndParallelism:
    def test_results_in_input_order(self):
        seeds = [11, 5, 8]
        results = sweep_seeds(seeds, **KW)
        assert [seed for seed, _m in results] == seeds

    def test_serial_flavours_agree(self):
        for jobs in (None, 0, 1):
            results = run_specs([month_spec(SEED, **KW)], jobs=jobs)
            assert results[0]["seed"] == SEED

    def test_parallel_identical_to_serial(self):
        specs = [month_spec(seed, **KW) for seed in (3, 4)]
        assert run_specs(specs, jobs=2) == run_specs(specs)

    def test_empty_specs(self):
        assert run_specs([]) == []

    def test_unknown_spec_rejected(self):
        with pytest.raises(SimulationError):
            run_spec(object())

    def test_unknown_collector_rejected(self):
        with pytest.raises(SimulationError):
            run_spec(month_spec(SEED, collector="nope", **KW))


class TestVariantSweep:
    @pytest.fixture(scope="class")
    def records(self):
        return baseline_trace(days=3, job_scale=0.15)

    def test_values_in_input_order(self, records):
        values = [0.0, 300.0]
        results = sweep_values(records, "grace_period", values, days=3)
        assert [value for value, _s in results] == values
        for _value, summary in results:
            assert "completed" in summary

    def test_unknown_field_rejected(self, records):
        with pytest.raises(SimulationError):
            sweep_values(records, "not_a_field", [1], days=3)

    def test_spec_is_picklable(self, records):
        import pickle

        spec = month_spec(42, collector="ablation", records=tuple(records),
                          config=CondorConfig(grace_period=0.0))
        clone = dict(pickle.loads(pickle.dumps(spec)).run_kwargs)
        assert clone["config"].grace_period == 0.0
        assert len(clone["records"]) == len(records)


class TestCollectorsRegistry:
    def test_builtin_collectors_present(self):
        assert {"headline", "ablation", "pool"} <= set(COLLECTORS)

    def test_month_spec_sorts_kwargs(self):
        a = month_spec(1, days=2, job_scale=0.5)
        b = month_spec(1, job_scale=0.5, days=2)
        assert a == b
        assert isinstance(a, MonthSpec)


class TestCacheKeyGuard:
    """Mutating a config after caching must not alias the old entry."""

    def test_mutated_config_misses_stale_entry(self):
        experiment.clear_cache()
        try:
            config = CondorConfig(max_machines_per_station=6)
            first = experiment.cached_month_run(seed=SEED, config=config,
                                                **KW)
            config.grace_period = 0.0
            second = experiment.cached_month_run(seed=SEED, config=config,
                                                 **KW)
            assert second is not first
            assert second.config.grace_period == 0.0
        finally:
            experiment.clear_cache()

    def test_equal_configs_share_entry(self):
        experiment.clear_cache()
        try:
            first = experiment.cached_month_run(
                seed=SEED, config=CondorConfig(grace_period=60.0), **KW)
            second = experiment.cached_month_run(
                seed=SEED, config=CondorConfig(grace_period=60.0), **KW)
            assert second is first
        finally:
            experiment.clear_cache()

    def test_freeze_handles_containers(self):
        frozen = experiment._freeze(
            {"a": [1, 2], "b": CondorConfig(), "c": {3, 4}})
        assert hash(frozen) == hash(experiment._freeze(
            {"b": CondorConfig(), "c": {4, 3}, "a": [1, 2]}))

    def test_unfreezable_kwarg_bypasses_cache(self):
        class Unhashable:
            __hash__ = None

        with pytest.raises(experiment._Uncacheable):
            experiment._freeze(Unhashable())

    def test_distinct_field_values_distinct_keys(self):
        a = experiment._freeze(CondorConfig(grace_period=0.0))
        b = experiment._freeze(CondorConfig(grace_period=300.0))
        assert a != b
        assert dataclasses.is_dataclass(CondorConfig())
