"""The verdicts of ``benchmarks/perf_smoke.py``, on synthetic rows.

CI's perf-smoke job fails on three kinds of verdict: a gated throughput
row below its baseline floor, a delta build whose median speedup over
the polling build at N=1000 falls under 1.8x, and an N=5000 run that
costs 50x the N=100 run's events or more (``--full`` adds the
per-station-day budget at N=50000).  The numbers they read are wall
clocks, so here each verdict gets hand-made rows instead; nothing here
runs a simulation.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_perf_smoke():
    spec = importlib.util.spec_from_file_location(
        "perf_smoke", ROOT / "benchmarks" / "perf_smoke.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf_smoke = _load_perf_smoke()


def coordinator_results(ratios=(2.0,) * 5, events_n100=1000,
                        events_n5000=20000):
    """Rows as ``measure_coordinator`` leaves them, walls and counts
    chosen so each verdict sits where a test wants it."""
    return {
        "n1000_pairs": [{"poll_wall_seconds": ratio,
                         "delta_wall_seconds": 1.0} for ratio in ratios],
        "n100": {"stations": 100, "days": 2, "events": events_n100},
        "n5000": {"stations": 5000, "days": 2, "events": events_n5000},
    }


class TestCheck:
    BASELINE = {"n100": {"station_cycles_per_sec": 1000.0},
                "n1000": {"station_cycles_per_sec": 1000.0}}

    def test_rows_at_or_above_the_floor_pass(self):
        results = {"n100": {"station_cycles_per_sec": 500.0},
                   "n1000": {"station_cycles_per_sec": 2000.0}}
        assert perf_smoke.check(results, self.BASELINE, 0.5,
                                suite="coordinator") == []

    def test_a_floor_miss_fails_and_names_the_row(self):
        results = {"n100": {"station_cycles_per_sec": 499.0},
                   "n1000": {"station_cycles_per_sec": 2000.0}}
        failures = perf_smoke.check(results, self.BASELINE, 0.5,
                                    suite="coordinator")
        assert len(failures) == 1
        assert failures[0].startswith("n100.station_cycles_per_sec:")

    @pytest.mark.parametrize("missing_from", ["results", "baseline"])
    def test_an_absent_row_does_not_gate(self, missing_from):
        # n1000_federated_k4 is gated; here one side lacks it, as the
        # --full rows are absent from a default run.
        results = dict(self.BASELINE)
        baseline = dict(self.BASELINE)
        if missing_from == "results":
            baseline["n1000_federated_k4"] = {"station_cycles_per_sec": 1e9}
        else:
            results["n1000_federated_k4"] = {"station_cycles_per_sec": 1.0}
        assert perf_smoke.check(results, baseline, 0.5,
                                suite="coordinator") == []


class TestSpeedupVerdict:
    def test_median_at_the_bound_passes(self):
        ratios = (perf_smoke.MIN_SPEEDUP_N1000,) * 5
        assert perf_smoke.coordinator_failures(
            coordinator_results(ratios)) == []

    def test_two_slow_pairs_of_five_do_not_fail_it(self):
        # Mean 1.34x: a mean, a minimum or any single pair would fail.
        failures = perf_smoke.coordinator_failures(
            coordinator_results((0.5, 1.9, 1.9, 0.5, 1.9)))
        assert failures == []

    def test_a_median_below_the_bound_fails(self):
        # Mean 3.02x and maximum 5x: only the median reads 1.7x.
        failures = perf_smoke.coordinator_failures(
            coordinator_results((5.0, 1.7, 1.7, 5.0, 1.7)))
        assert len(failures) == 1
        assert "1.70x (median of 5 pairs)" in failures[0]

    def test_the_ratio_is_poll_over_delta(self):
        pairs = [{"poll_wall_seconds": 1.0, "delta_wall_seconds": 2.0}] * 5
        assert perf_smoke.median_speedup(pairs) == 0.5


class TestEventsVerdict:
    def test_just_under_fifty_times_passes(self):
        assert perf_smoke.coordinator_failures(coordinator_results(
            events_n100=1000, events_n5000=49_999)) == []

    def test_fifty_times_the_events_fails(self):
        failures = perf_smoke.coordinator_failures(coordinator_results(
            events_n100=1000, events_n5000=50_000))
        assert len(failures) == 1
        assert failures[0].startswith("events(N=5000) / events(N=100)")


class TestPerStationDayVerdict:
    """Only a ``--full`` run carries the N=50000 row it reads."""

    @staticmethod
    def full_results(events_n50000):
        results = coordinator_results(events_n100=1000)    # 5 a station-day
        results["n50000_federated_k10"] = {
            "stations": 50000, "days": 1, "events": events_n50000}
        return results

    def test_the_same_budget_passes(self):
        assert perf_smoke.coordinator_failures(
            self.full_results(250_000)) == []

    def test_a_larger_budget_fails(self):
        failures = perf_smoke.coordinator_failures(
            self.full_results(250_001))
        assert len(failures) == 1
        assert failures[0].startswith("N=50000 costs")
