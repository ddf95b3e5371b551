"""Ingest throughput of the sqlite ops plane on the month trace.

The ops store pays its cost once at ingest; every later query is a
sqlite read.  This bench records the full one-month trace (~80k events,
~17 MB JSONL) and measures:

* parse+ingest from the JSONL file into a fresh on-disk store — the
  path ``repro-condor query --trace`` takes — with its ``tracemalloc``
  peak (ingest is a stream: the peak is one chunk, not the trace);
* the no-op re-ingest of that file into a current store (a seek to the
  stored byte offset: nothing is parsed);
* ingest alone (pre-parsed records) into a fresh in-memory store, and
  its no-op re-ingest (every record skipped by sequence number).
"""

import time
import tracemalloc

import pytest

from repro.analysis.experiment import ExperimentRun
from repro.core.job import reset_job_ids
from repro.metrics.report import render_table
from repro.telemetry import read_trace
from repro.telemetry.store import TraceStore


@pytest.fixture(scope="module")
def month_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("ingest") / "month.jsonl"
    reset_job_ids()
    ExperimentRun(seed=42, days=30, trace_path=str(path)).execute()
    return path


@pytest.fixture(scope="module")
def month_records(month_trace):
    return list(read_trace(month_trace))


def test_ingest_file_throughput(benchmark, month_trace, tmp_path, show):
    counter = iter(range(1_000_000))

    def ingest():
        db = tmp_path / f"file-{next(counter)}.sqlite"
        with TraceStore(str(db)) as store:
            return store.ingest_file(str(month_trace))

    events = benchmark(ingest)
    assert events > 50_000
    rate = events / benchmark.stats.stats.mean

    with TraceStore(str(tmp_path / "traced.sqlite")) as store:
        tracemalloc.start()
        try:
            assert store.ingest_file(str(month_trace)) == events
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        started = time.perf_counter()
        assert store.ingest_file(str(month_trace)) == 0
        noop_s = time.perf_counter() - started

    show("trace_ingest", render_table(
        ["metric", "value"],
        [("events", events),
         ("trace file (MB)", f"{month_trace.stat().st_size / 1e6:.1f}"),
         ("mean ingest (s)", f"{benchmark.stats.stats.mean:.3f}"),
         ("events/s (parse+ingest, disk)", f"{rate:,.0f}"),
         ("tracemalloc peak of one ingest (MiB)", f"{peak / 2**20:.1f}"),
         ("no-op re-ingest of the file (ms)", f"{noop_s * 1e3:.2f}")],
        title="Ops-plane ingest: one-month JSONL trace, from the file",
    ))


def test_ingest_records_throughput(benchmark, month_records):
    def ingest():
        with TraceStore(":memory:") as store:
            return store.ingest(iter(month_records))

    events = benchmark(ingest)
    assert events == len(month_records)


def test_reingest_file_noop_cost(benchmark, month_trace, tmp_path):
    db = tmp_path / "current-file.sqlite"
    with TraceStore(str(db)) as store:
        store.ingest_file(str(month_trace))

    def reingest():
        with TraceStore(str(db)) as store:
            return store.ingest_file(str(month_trace))

    assert benchmark(reingest) == 0


def test_reingest_records_noop_cost(benchmark, month_records, tmp_path):
    db = tmp_path / "current.sqlite"
    with TraceStore(str(db)) as store:
        store.ingest(iter(month_records))

    def reingest():
        with TraceStore(str(db)) as store:
            return store.ingest(iter(month_records))

    assert benchmark(reingest) == 0
