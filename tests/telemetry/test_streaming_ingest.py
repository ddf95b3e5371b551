"""Streaming ingest: the ops store reads a trace as a stream.

What is pinned here, beyond ``test_store.py``:

* **chunking is invisible** — any chunk size, and any split of the file
  into appended pieces, gives the same tables row for row;
* **all-or-nothing across chunks** — an error after several chunks have
  been written back leaves the store exactly as it was;
* **bounded memory** — the peak of an ingest does not grow with the
  trace (events, stations, simulated hours, jobs);
* **resume by offset** — a grown file costs its new lines, an unchanged
  one nothing, a replaced one falls back to scan-and-skip, a torn last
  line waits for its newline;
* **one transaction** — the file cursor commits with the rows;
* **loud input** — a malformed line names its file and line.
"""

import json
import tracemalloc

import pytest

from repro.analysis.experiment import ExperimentRun
from repro.core.job import reset_job_ids
from repro.sim import SimulationError
from repro.telemetry import kinds, read_trace, replay_trace, store, trace
from repro.telemetry.store import TraceStore

SEED = 42
DAYS = 2


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """``(path, lines)`` of a recorded two-day run."""
    path = tmp_path_factory.mktemp("traces") / "run.jsonl"
    reset_job_ids()
    ExperimentRun(seed=SEED, days=DAYS, trace_path=str(path)).execute()
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) > 5000
    return path, lines


def _dump(ops):
    """Every row of every table, rowids included, doubles as they are."""
    tables = {}
    for table in ops.row_counts():
        if table == "meta":
            # last_trace names the file, which differs between runs here.
            query = ("SELECT key, value FROM meta "
                     "WHERE key != 'last_trace' ORDER BY key")
        else:
            order = "id" if table == "users" else "rowid"
            query = f"SELECT rowid, * FROM {table} ORDER BY {order}"
        tables[table] = ops.query(query)[1]
    # A burned AUTOINCREMENT id would show here before it shows in users.
    tables["sqlite_sequence"] = ops.query(
        "SELECT name, seq FROM sqlite_sequence ORDER BY name")[1]
    return tables


def _ingested(trace_path, db_path):
    with TraceStore(str(db_path)) as ops:
        ops.ingest_file(str(trace_path))
        return _dump(ops)


class TestChunkingIsInvisible:
    @pytest.fixture(scope="class")
    def reference(self, recorded, tmp_path_factory):
        path, _lines = recorded
        tables = _ingested(
            path, tmp_path_factory.mktemp("ref") / "ops.sqlite")
        assert tables["events"] and tables["utilization"]
        assert len(tables["users"]) > 1 and len(tables["jobs"]) > 10
        return tables

    @pytest.mark.parametrize("chunk", [7, 1000, 10**9])
    def test_any_chunk_size_same_rows(self, recorded, reference, chunk,
                                      tmp_path, monkeypatch):
        path, _lines = recorded
        monkeypatch.setattr(store, "CHUNK_EVENTS", chunk)
        assert _ingested(path, tmp_path / "ops.sqlite") == reference

    def test_three_appended_thirds_same_rows(self, recorded, reference,
                                             tmp_path):
        path, lines = recorded
        growing = tmp_path / path.name
        third = len(lines) // 3
        with TraceStore(str(tmp_path / "ops.sqlite")) as ops:
            for piece in (lines[:third], lines[third:2 * third],
                          lines[2 * third:]):
                with open(growing, "ab") as fh:
                    fh.writelines(piece)
                assert ops.ingest_file(str(growing)) == len(piece)
            assert _dump(ops) == reference
            assert (ops.summary().headline()
                    == replay_trace(path).headline())


class TestAllOrNothingAcrossChunks:
    CHUNK = 64

    @pytest.fixture
    def preloaded(self, recorded, tmp_path, monkeypatch):
        """A store holding the first 100 events, and the rest."""
        path, _lines = recorded
        monkeypatch.setattr(store, "CHUNK_EVENTS", self.CHUNK)
        records = list(read_trace(path))
        ops = TraceStore(str(tmp_path / "ops.sqlite"))
        assert ops.ingest(iter(records[:100])) == 100
        yield ops, records
        ops.close()

    def test_gap_after_full_chunks_rolls_back(self, preloaded):
        ops, records = preloaded
        before = _dump(ops)
        del records[100 + 3 * self.CHUNK + 5]
        with pytest.raises(SimulationError, match="non-contiguous"):
            ops.ingest(iter(records))
        assert ops.next_seq == 100
        assert _dump(ops) == before

    def test_malformed_line_after_full_chunks_rolls_back(
            self, preloaded, recorded, tmp_path):
        ops, _records = preloaded
        _path, lines = recorded
        before = _dump(ops)
        bad = 100 + 3 * self.CHUNK + 5
        broken = tmp_path / "broken.jsonl"
        broken.write_bytes(b"".join(
            lines[:bad] + [b'{"seq": oops}\n'] + lines[bad:]))
        with pytest.raises(SimulationError,
                           match=rf"broken\.jsonl:{bad + 1}: not JSON"):
            ops.ingest_file(str(broken))
        assert ops.next_seq == 100
        assert _dump(ops) == before


def _synthetic_trace(path, events):
    """A trace whose stations, simulated hours and jobs grow with
    ``events``; returns the file size."""
    assert events % 4 == 0
    stations = max(1, events // 64)
    users = max(1, events // 512)
    lines = []
    for k in range(events // 4):
        t = k * 600.0
        station = f"ws-{k % stations:05d}"
        job = {"id": k, "name": f"job-{k}", "user": f"user-{k % users}",
               "home": station, "demand_seconds": 3600.0 + k}
        for kind, payload in (
            (kinds.LEDGER_ENTRY,
             {"category": "owner", "t0": t, "t1": t + 5400.0,
              "booked": 5400.0}),
            (kinds.JOB_SUBMITTED, {"job": job, "station": station}),
            (kinds.JOB_PLACED, {"job": job, "host": station}),
            (kinds.JOB_COMPLETED, {"job": job, "station": station}),
        ):
            lines.append(json.dumps(
                {"seq": len(lines), "t": t, "src": station, "kind": kind,
                 "payload": payload},
                sort_keys=True, separators=(",", ":")) + "\n")
    path.write_text("".join(lines), encoding="utf-8")
    return path.stat().st_size


class TestBoundedMemory:
    CHUNK = 256

    def _peak(self, tmp_path, events):
        trace_path = tmp_path / f"synthetic-{events}.jsonl"
        size = _synthetic_trace(trace_path, events)
        with TraceStore(str(tmp_path / f"ops-{events}.sqlite")) as ops:
            tracemalloc.start()
            try:
                assert ops.ingest_file(str(trace_path)) == events
                _now, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            rows = ops.row_counts()
        assert rows["jobs"] == events // 4
        assert rows["utilization"] >= events // 4
        return peak, size

    def test_peak_does_not_grow_with_the_trace(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store, "CHUNK_EVENTS", self.CHUNK)
        small, _size = self._peak(tmp_path, 16 * self.CHUNK)
        large, size = self._peak(tmp_path, 64 * self.CHUNK)
        assert large <= 1.25 * small
        assert large <= size / 8


class TestResumeByOffset:
    @pytest.fixture
    def decoded(self, monkeypatch):
        """The texts handed to the JSON decoder, in order."""
        calls = []
        decode = trace._decode

        def counting(text):
            calls.append(text)
            return decode(text)

        monkeypatch.setattr(trace, "_decode", counting)
        return calls

    def test_only_the_appended_suffix_is_decoded(self, recorded, tmp_path,
                                                 decoded):
        _path, lines = recorded
        growing = tmp_path / "growing.jsonl"
        half = len(lines) // 2
        growing.write_bytes(b"".join(lines[:half]))
        with TraceStore(str(tmp_path / "ops.sqlite")) as ops:
            assert ops.ingest_file(str(growing)) == half
            assert len(decoded) == half
            del decoded[:]
            with open(growing, "ab") as fh:
                fh.writelines(lines[half:])
            assert ops.ingest_file(str(growing)) == len(lines) - half
            assert len(decoded) == len(lines) - half
            # An unchanged file is a seek: nothing is decoded or written.
            del decoded[:]
            before = _dump(ops)
            assert ops.ingest_file(str(growing)) == 0
            assert decoded == []
            assert _dump(ops) == before

    def test_the_cursor_survives_reopening_the_store(self, recorded,
                                                     tmp_path, decoded):
        path, lines = recorded
        db = str(tmp_path / "ops.sqlite")
        with TraceStore(db) as ops:
            assert ops.ingest_file(str(path)) == len(lines)
        del decoded[:]
        with TraceStore(db) as ops:
            assert ops.ingest_file(str(path)) == 0
        assert decoded == []

    def test_shorter_file_falls_back_to_the_scan(self, recorded, tmp_path,
                                                 decoded):
        _path, lines = recorded
        target = tmp_path / "t.jsonl"
        target.write_bytes(b"".join(lines))
        with TraceStore(str(tmp_path / "ops.sqlite")) as ops:
            assert ops.ingest_file(str(target)) == len(lines)
            before = _dump(ops)
            del decoded[:]
            kept = len(lines) * 3 // 5
            target.write_bytes(b"".join(lines[:kept]))
            # As before this change: every line read, every record
            # below the cursor skipped, nothing added.
            assert ops.ingest_file(str(target)) == 0
            assert len(decoded) == kept
            assert ops.next_seq == len(lines)
            rows = _dump(ops)
            rows.pop("meta")
            before.pop("meta")
            assert rows == before

    def test_different_file_falls_back_to_the_scan(self, recorded,
                                                   tmp_path, decoded):
        _path, lines = recorded
        split = len(lines) - 50
        target = tmp_path / "t.jsonl"
        target.write_bytes(b"".join(lines[:split]))
        with TraceStore(str(tmp_path / "ops.sqlite")) as ops:
            assert ops.ingest_file(str(target)) == split
            del decoded[:]
            # Same records, other bytes: the fingerprinted line is not
            # where the cursor says, so the offset cannot be trusted.
            target.write_bytes(b"".join(b" " + line for line in lines))
            assert ops.ingest_file(str(target)) == 50
            assert len(decoded) == len(lines)
            assert ops.next_seq == len(lines)
            # ... and the cursor it leaves is good for the new file.
            del decoded[:]
            assert ops.ingest_file(str(target)) == 0
            assert decoded == []

    def test_torn_tail_waits_for_its_newline(self, recorded, tmp_path,
                                             decoded):
        _path, lines = recorded
        live = tmp_path / "live.jsonl"
        torn = lines[200]
        live.write_bytes(b"".join(lines[:200]) + torn[:len(torn) // 2])
        with TraceStore(str(tmp_path / "ops.sqlite")) as ops:
            assert ops.ingest_file(str(live)) == 200
            offset = ops.query("SELECT value FROM meta "
                               "WHERE key = 'trace_offset'")[1][0][0]
            assert int(offset) == sum(map(len, lines[:200]))
            # Still torn: nothing to read, the line is not even decoded.
            del decoded[:]
            with open(live, "ab") as fh:
                fh.write(torn[len(torn) // 2:-1])
            assert ops.ingest_file(str(live)) == 0
            assert decoded == []
            with open(live, "ab") as fh:
                fh.write(b"\n")
                fh.writelines(lines[201:300])
            assert ops.ingest_file(str(live)) == 100
            assert len(decoded) == 100
            assert ops.next_seq == 300

    def test_replay_still_rejects_a_torn_tail(self, recorded, tmp_path):
        _path, lines = recorded
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(b"".join(lines[:200]) + lines[200][:40])
        with pytest.raises(SimulationError,
                           match=r"torn\.jsonl:201: not JSON"):
            replay_trace(torn)


class TestOneTransaction:
    def test_file_cursor_commits_with_the_rows(self, recorded, tmp_path):
        path, lines = recorded
        with TraceStore(str(tmp_path / "ops.sqlite")) as ops:
            statements = []
            ops.connection.set_trace_callback(statements.append)
            assert ops.ingest_file(str(path)) == len(lines)
            ops.connection.set_trace_callback(None)
            for verb in ("BEGIN", "COMMIT"):
                assert sum(statement.startswith(verb)
                           for statement in statements) == 1
            meta = dict(ops.query("SELECT key, value FROM meta")[1])
        assert meta["last_trace"] == str(path)
        assert int(meta["trace_offset"]) == path.stat().st_size
        assert int(meta["next_seq"]) == len(lines)

    def test_failed_ingest_leaves_the_file_cursor(self, recorded,
                                                  tmp_path):
        _path, lines = recorded
        good = tmp_path / "good.jsonl"
        good.write_bytes(b"".join(lines[:300]))
        gapped = tmp_path / "gapped.jsonl"
        gapped.write_bytes(b"".join(lines[:400] + lines[401:]))
        with TraceStore(str(tmp_path / "ops.sqlite")) as ops:
            assert ops.ingest_file(str(good)) == 300
            before = _dump(ops)
            with pytest.raises(SimulationError, match="non-contiguous"):
                ops.ingest_file(str(gapped))
            assert _dump(ops) == before
            meta = dict(ops.query("SELECT key, value FROM meta")[1])
            assert meta["last_trace"] == str(good)


class TestLoudInput:
    @pytest.mark.parametrize("line, complaint", [
        (b"not json at all\n", r"not JSON: Expecting value at column 1"),
        (b'{"seq": 7} trailing\n', r"not JSON: Extra data at column 11"),
        (b"[1, 2, 3]\n", r"not a JSON object: list"),
        (b'{"t": 1.0, "src": "ws-01", "payload": {}}\n',
         r"record lacks kind, seq"),
        (b"\xff\xfe\n", r"'utf-8' codec can't decode byte 0xff"),
    ])
    def test_malformed_line_names_file_and_line(self, recorded, tmp_path,
                                                line, complaint):
        _path, lines = recorded
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"".join(lines[:10]) + line + b"".join(lines[10:20]))
        with pytest.raises(SimulationError,
                           match=rf"bad\.jsonl:11: {complaint}"):
            list(read_trace(bad))
        with TraceStore(str(tmp_path / "ops.sqlite")) as ops:
            before = ops.row_counts()
            with pytest.raises(SimulationError,
                               match=rf"bad\.jsonl:11: {complaint}"):
                ops.ingest_file(str(bad))
            assert ops.row_counts() == before
            assert ops.next_seq == 0

    def test_line_numbers_hold_after_a_resume(self, recorded, tmp_path):
        _path, lines = recorded
        growing = tmp_path / "growing.jsonl"
        growing.write_bytes(b"".join(lines[:50]))
        with TraceStore(str(tmp_path / "ops.sqlite")) as ops:
            assert ops.ingest_file(str(growing)) == 50
            with open(growing, "ab") as fh:
                fh.writelines(lines[50:60] + [b"{}\n"])
            with pytest.raises(SimulationError,
                               match=r"growing\.jsonl:61: record lacks"):
                ops.ingest_file(str(growing))
            assert ops.next_seq == 50
