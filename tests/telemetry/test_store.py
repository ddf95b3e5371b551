"""Tests for the sqlite ops plane (:mod:`repro.telemetry.store`).

The invariants under test:

* **faithfulness** — ``store.summary().headline()`` equals
  ``replay_trace(path).headline()`` bit-for-bit;
* **idempotence** — re-ingesting the same trace is an exact no-op;
* **resumability** — ingesting a prefix and then the full trace gives
  the same store as one-shot ingestion;
* **loudness** — gapped or head-truncated traces fail ingestion.
"""

import json
import math

import pytest

from repro.analysis.experiment import ExperimentRun
from repro.core.job import reset_job_ids
from repro.sim import SimulationError
from repro.telemetry import kinds, read_trace, replay_trace
from repro.telemetry.store import TraceStore, ingest_trace

SEED = 42
DAYS = 2


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "month.jsonl"
    reset_job_ids()
    run = ExperimentRun(seed=SEED, days=DAYS,
                        trace_path=str(path)).execute()
    return run, path


@pytest.fixture(scope="module")
def store(recorded, tmp_path_factory):
    _run, path = recorded
    db = tmp_path_factory.mktemp("ops") / "ops.sqlite"
    store, added = ingest_trace(str(path), str(db))
    assert added > 0
    yield store
    store.close()


class TestFaithfulness:
    def test_headline_bit_for_bit(self, recorded, store):
        _run, path = recorded
        assert store.summary().headline() == replay_trace(path).headline()

    def test_event_counts_match(self, recorded, store):
        run, _path = recorded
        summary = store.summary()
        emitted = {kind: count
                   for kind, count in run.telemetry.counts.items()
                   if count}
        assert summary.event_counts == emitted

    def test_events_table_is_verbatim(self, recorded, store):
        _run, path = recorded
        records = list(read_trace(path))
        _cols, rows = store.query(
            "SELECT COUNT(*), MIN(seq), MAX(seq) FROM events")
        assert rows[0] == (len(records), 0, len(records) - 1)
        _cols, sample = store.query(
            "SELECT payload FROM events WHERE seq = 0")
        assert json.loads(sample[0][0]) == records[0]["payload"]

    def test_job_lifecycle_rollup(self, recorded, store):
        run, _path = recorded
        _cols, rows = store.query(
            "SELECT COUNT(*), SUM(status = 'completed'), "
            "SUM(placements), SUM(vacates) FROM jobs")
        jobs, completed, placements, vacates = rows[0]
        assert jobs == len(run.jobs)
        assert completed == len(run.completed_jobs)
        assert placements == run.telemetry.counts[kinds.JOB_PLACED]
        assert vacates == sum(j.checkpoint_count for j in run.jobs)

    def test_utilization_buckets_cover_ledger(self, store):
        # The hourly heatmap splits exactly the booked seconds, so the
        # two tables agree per station+category to float tolerance.
        _cols, rows = store.query(
            "SELECT l.station, l.category, l.seconds, "
            "(SELECT SUM(u.seconds) FROM utilization u "
            " WHERE u.station = l.station AND u.category = l.category) "
            "FROM ledger l")
        assert rows
        for _station, _category, booked, bucketed in rows:
            assert bucketed == pytest.approx(booked, rel=1e-9)


class TestIngestCursor:
    def test_reingest_is_noop(self, recorded, store):
        _run, path = recorded
        before = store.row_counts()
        assert store.ingest_file(str(path)) == 0
        assert store.row_counts() == before

    def test_resumable_ingest_matches_one_shot(self, recorded, store,
                                               tmp_path):
        _run, path = recorded
        records = list(read_trace(path))
        split = len(records) // 2
        resumed = TraceStore(str(tmp_path / "resumed.sqlite"))
        assert resumed.ingest(iter(records[:split])) == split
        # Extending the same stream picks up exactly where it left off
        # (records below the cursor are skipped).
        assert resumed.ingest(iter(records)) == len(records) - split
        counts = {table: rows for table, rows
                  in resumed.row_counts().items() if table != "meta"}
        expected = {table: rows for table, rows
                    in store.row_counts().items() if table != "meta"}
        assert counts == expected
        assert (resumed.summary().headline()
                == store.summary().headline())
        resumed.close()

    def test_gap_rejected(self, recorded, tmp_path):
        _run, path = recorded
        records = list(read_trace(path))
        del records[5]
        fresh = TraceStore(str(tmp_path / "gap.sqlite"))
        with pytest.raises(SimulationError, match="non-contiguous"):
            fresh.ingest(iter(records))
        # The failed transaction rolled back entirely.
        assert fresh.next_seq == 0
        assert fresh.row_counts()["events"] == 0
        fresh.close()

    @pytest.mark.parametrize("back", [1, 5], ids=["repeat", "step-back"])
    def test_seq_repeat_or_step_back_rejected(self, recorded, tmp_path,
                                              back):
        _run, path = recorded
        lines = path.read_bytes().splitlines(keepends=True)
        trace = tmp_path / "repeat.jsonl"
        trace.write_bytes(b"".join(lines[:10] + [lines[10 - back]]))
        fresh = TraceStore(str(tmp_path / "repeat.sqlite"))
        with pytest.raises(SimulationError,
                           match=r"repeat\.jsonl:11: seq \d+ repeats"):
            fresh.ingest_file(str(trace))
        assert fresh.next_seq == 0
        assert fresh.row_counts()["events"] == 0
        # Appended past a stored file cursor: the last stored seq is
        # the one before the first new line.
        trace.write_bytes(b"".join(lines[:10]))
        assert fresh.ingest_file(str(trace)) == 10
        with open(trace, "ab") as fh:
            fh.writelines([lines[10 - back], lines[10]])
        with pytest.raises(SimulationError,
                           match=r"repeat\.jsonl:11: seq \d+ repeats"):
            fresh.ingest_file(str(trace))
        # Rewritten and re-read from the top: the same.
        trace.write_bytes(b"".join(lines[:4] + lines[:12]))
        with pytest.raises(SimulationError,
                           match=r"repeat\.jsonl:5: seq 0 repeats"):
            fresh.ingest_file(str(trace))
        assert fresh.next_seq == 10
        fresh.close()

    def test_head_truncation_rejected(self, recorded, tmp_path):
        _run, path = recorded
        records = list(read_trace(path))
        fresh = TraceStore(str(tmp_path / "head.sqlite"))
        with pytest.raises(SimulationError, match="head-truncated"):
            fresh.ingest(iter(records[100:]))
        fresh.close()

    def test_nan_time_rejected(self, tmp_path):
        # sqlite stores a NaN as NULL, which ``events.t`` refuses: the
        # store names the record instead of failing inside sqlite.
        records = [_record(0, 0.0, "h1", kinds.COORDINATOR_CYCLE),
                   _record(1, math.nan, "h1", kinds.COORDINATOR_CYCLE)]
        with TraceStore(str(tmp_path / "nan.sqlite")) as store:
            with pytest.raises(SimulationError,
                               match="seq 1: its t is NaN"):
                store.ingest(iter(records))
            assert store.next_seq == 0
            assert store.row_counts()["events"] == 0

    def test_schema_version_checked(self, tmp_path):
        db = str(tmp_path / "v0.sqlite")
        store = TraceStore(db)
        store.connection.execute(
            "UPDATE meta SET value = '999' WHERE key = 'schema_version'")
        store.connection.commit()
        store.close()
        with pytest.raises(SimulationError, match="schema"):
            TraceStore(db)


def _record(seq, t, src, kind, **payload):
    return {"seq": seq, "t": t, "src": src, "kind": kind,
            "payload": payload}


class TestLeaseAndFaultTables:
    """Synthetic streams pin the normalized lease/fault lifecycles."""

    def test_lease_lifecycle(self, tmp_path):
        job = {"id": 1, "name": "j", "user": "A", "home": "h0",
               "demand_seconds": 10.0}
        records = [
            _record(0, 0.0, "h0", kinds.JOB_SUBMITTED, job=job,
                    station="h0"),
            _record(1, 1.0, "coordinator.1",
                    kinds.CROSS_POOL_LEASE_GRANTED,
                    station="coordinator.1", lease_id="lease-1",
                    borrower="coordinator.0", stations=["h4", "h5"],
                    expires_at=50.0),
            _record(2, 9.0, "h5", kinds.CROSS_POOL_LEASE_RETURNED,
                    station="h5", lease_id="lease-1", pool=0,
                    reason="owner_return"),
            _record(3, 60.0, "h4", kinds.CROSS_POOL_LEASE_EXPIRED,
                    station="h4", lease_id="lease-1",
                    borrower="coordinator.0"),
        ]
        with TraceStore(str(tmp_path / "leases.sqlite")) as store:
            assert store.ingest(iter(records)) == 4
            _cols, rows = store.query(
                "SELECT station, lender, borrower, granted_t, "
                "returned_t, return_reason, expired_t FROM leases "
                "ORDER BY station")
            assert rows == [
                ("h4", "coordinator.1", "coordinator.0", 1.0,
                 None, None, 60.0),
                ("h5", "coordinator.1", "coordinator.0", 1.0,
                 9.0, "owner_return", None),
            ]

    def test_fault_rows(self, tmp_path):
        records = [
            _record(0, 0.0, "", kinds.FAULT_INJECTED,
                    fault="station_crash", station="h2"),
            _record(1, 5.0, "", kinds.FAULT_CLEARED,
                    fault="station_crash", station="h2"),
            _record(2, 6.0, "h1", kinds.MESSAGE_RETRY, station="h1",
                    dst="coordinator", op="state_update", attempt=2),
        ]
        with TraceStore(str(tmp_path / "faults.sqlite")) as store:
            assert store.ingest(iter(records)) == 3
            _cols, rows = store.query(
                "SELECT seq, kind, fault, target FROM faults "
                "ORDER BY seq")
            assert rows == [
                (0, kinds.FAULT_INJECTED, "station_crash", "h2"),
                (1, kinds.FAULT_CLEARED, "station_crash", "h2"),
                (2, kinds.MESSAGE_RETRY, None, "h1"),
            ]


class TestReports:
    def test_every_canned_report_renders(self, store, recorded):
        from repro.analysis.ops import REPORTS
        from repro.metrics.report import render_table

        for name, report in REPORTS.items():
            headers, rows, title = report(store, None)
            text = render_table(headers, rows, title=title)
            assert headers and title
            assert isinstance(text, str)

    def test_fair_share_covers_every_user(self, store, recorded):
        from repro.analysis.ops import report_fair_share

        run, _path = recorded
        _headers, rows, _title = report_fair_share(store, None)
        assert {row[0] for row in rows} == {j.user for j in run.jobs}
        assert sum(row[1] for row in rows) == len(run.jobs)

    def test_sql_escape_hatch(self, store):
        columns, rows = store.query(
            "SELECT kind, count FROM event_counts ORDER BY count DESC")
        assert columns == ["kind", "count"]
        assert rows and rows[0][1] >= rows[-1][1]
