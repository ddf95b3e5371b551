"""Ingest stores the payload text it read.

The line reader scans a line that opens as the recorder's envelope does
(``{"kind":K,"payload":P,...``) in three values and hands the ops store
``P``'s own text, which goes into ``events.payload`` and
``faults.detail`` without being encoded again.  What is pinned here:

* a line ``encode_event`` wrote stores ``_canonical(jsonify(payload))``
  and is read by the envelope scan, in both tables;
* a line that is not in the envelope — spaced, reordered — or that
  carries a NaN or infinite ``t``, ``\\u`` escapes in its strings or a
  payload string holding ``,"seq":``, still stores the canonical
  encoding, and the reader returns what a whole decode returns;
* a line that opens as the envelope does but is not one (a second
  payload key, stray whitespace, a trailing comma) reads, or fails,
  exactly as a whole decode does;
* a garbage line still fails as ``SimulationError("<path>:<line>: …")``
  and leaves the store as it was;
* a no-op re-ingest sends no statement to ``utilization``, and a first
  ingest of one chunk reads no ``utilization`` row back.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiment import ExperimentRun
from repro.core.job import reset_job_ids
from repro.sim import SimulationError
from repro.telemetry import TelemetryEvent, encode_event, jsonify, kinds
from repro.telemetry import trace
from repro.telemetry.store import TraceStore, _canonical

#: A kind the store only files in ``events``, and one it also files in
#: ``faults``; neither reads any payload field it would choke on.
_KINDS = (kinds.COORDINATOR_CYCLE, kinds.FAULT_INJECTED)

#: Strings that would trip a reader that looked for the envelope's
#: keys instead of scanning its values.
_TRICKY = (',"seq":', ',"seq":1,"src":"x","t":0}', '","payload":{}',
           '"', "\\", "\\u0041", "żółć", " ", "\x00")

_texts = st.one_of(st.text(max_size=8), st.sampled_from(_TRICKY))

_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              _texts),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(_texts, inner, max_size=3),
    ),
    max_leaves=10,
)

#: Keyword payloads, as the hub emits them.  ``fault`` and ``job`` are
#: fault-table columns, which take scalars only.
_payloads = st.dictionaries(
    _texts.filter(lambda key: key not in ("fault", "job")), _values,
    max_size=5)

#: ``t`` as sqlite can store it (a NaN ``t`` cannot be: see the reader
#: test below).
_times = st.one_of(
    st.floats(allow_nan=False),
    st.integers(min_value=-2**53, max_value=2**53),
    st.sampled_from([-0.0, math.inf, -math.inf]),
)

_events = st.lists(
    st.tuples(_times, st.one_of(_texts, st.text()),
              st.sampled_from(_KINDS), _payloads),
    min_size=1, max_size=6,
)


def _escaped(text):
    """``text`` as a JSON string with every character a ``\\u`` escape."""
    return '"' + "".join(f"\\u{ord(char):04x}" if ord(char) < 0x10000
                         else json.dumps(char)[1:-1]
                         for char in text) + '"'


def _write(record, form):
    """One trace line for ``record`` (seq, t, src, kind, payload) in
    ``form``."""
    seq, t, src, kind, payload = record
    if form == "recorder":
        return encode_event(TelemetryEvent(seq, t, src, kind, payload))
    envelope = {"kind": kind, "payload": jsonify(payload), "seq": seq,
                "src": src, "t": t}
    if form == "spaced":
        return json.dumps(envelope, sort_keys=True)
    if form == "reordered":
        return json.dumps(dict(reversed(list(envelope.items()))),
                          separators=(",", ":"))
    assert form == "escaped"
    line = encode_event(TelemetryEvent(seq, t, "", "", payload))
    # The envelope's kind opens the line; its src is the last one
    # before "t", the last key.
    head, _src, tail = line.removeprefix('{"kind":""').rpartition(
        ',"src":"","t":')
    return (f'{{"kind":{_escaped(kind)}{head},"src":{_escaped(src)},'
            f'"t":{tail}')


def _stored(lines):
    """Ingest ``lines`` as a file; ``(events payloads, faults details)``."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "t.jsonl"
        path.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
        with TraceStore(str(Path(scratch) / "ops.sqlite")) as ops:
            assert ops.ingest_file(str(path)) == len(lines)
            events = ops.query("SELECT seq, payload FROM events "
                               "ORDER BY seq")[1]
            faults = ops.query("SELECT seq, detail FROM faults "
                               "ORDER BY seq")[1]
    return events, faults


def _expected(records):
    canonical = [(seq, _canonical(jsonify(payload)))
                 for seq, _t, _src, _kind, payload in records]
    in_faults = [row for row, record in zip(canonical, records)
                 if record[3] == kinds.FAULT_INJECTED]
    return canonical, in_faults


@settings(max_examples=150, deadline=None)
@given(events=_events)
def test_recorded_lines_store_their_payload_text(events):
    records = [(seq, *event) for seq, event in enumerate(events)]
    lines = [_write(record, "recorder") for record in records]
    for lineno, (line, record) in enumerate(zip(lines, records), 1):
        # The envelope scan takes every line the recorder writes, and
        # the text it hands over is the canonical one.
        _record, text = trace._parse_line(line.encode(), "t", lineno)
        assert text == _canonical(jsonify(record[4]))
    assert _stored(lines) == _expected(records)


@settings(max_examples=150, deadline=None)
@given(events=_events, forms=st.lists(
    st.sampled_from(["spaced", "reordered", "escaped", "recorder"]),
    min_size=6, max_size=6))
def test_other_lines_store_the_canonical_encoding(events, forms):
    records = [(seq, *event) for seq, event in enumerate(events)]
    lines = [_write(record, form) for record, form in zip(records, forms)]
    for lineno, line in enumerate(lines, 1):
        # What a whole decode gives, in the same key order.
        record, _text = trace._parse_line(line.encode(), "t", lineno)
        assert json.dumps(record) == json.dumps(json.loads(line))
    assert _stored(lines) == _expected(records)


@settings(max_examples=100, deadline=None)
@given(t=st.sampled_from([math.nan, math.inf, -math.inf, 0, -0.0]),
       src=st.one_of(_texts, st.text()), payload=_payloads)
def test_the_reader_hands_over_the_text_at_any_t(t, src, payload):
    """The store cannot take a NaN ``t`` (``events.t`` is NOT NULL and
    sqlite reads a NaN as NULL), so this one is checked at the reader."""
    line = encode_event(TelemetryEvent(0, t, src, kinds.FAULT_INJECTED,
                                       payload))
    record, text = trace._parse_line(line.encode(), "t", 1)
    assert text == _canonical(jsonify(payload))
    assert json.dumps(record) == json.dumps(json.loads(line))


@pytest.mark.parametrize("line, text", [
    # A second payload key: the record's payload is the last one.
    ('{"kind":"x","payload":{"a":1},"payload":{"b":2},"seq":0,'
     '"src":"s","t":0.0}', None),
    # A second kind key takes nothing from the payload's text.
    ('{"kind":"x","payload":{"a":1},"kind":"y","seq":0,"src":"s",'
     '"t":0.0}', '{"a":1}'),
    ('{"kind":"x","payload": {"a":1},"seq":0,"src":"s","t":0.0}', None),
    ('{"kind":"x","payload":{"a":1} ,"seq":0,"src":"s","t":0.0}', None),
    ('{"kind":"x","payload":{"a":1},  "seq":0,"src":"s","t":0.0 }',
     '{"a":1}'),
])
def test_the_envelope_scan_reads_what_a_whole_decode_reads(line, text):
    record, payload_text = trace._parse_line(line.encode(), "t", 1)
    assert json.dumps(record) == json.dumps(json.loads(line))
    assert payload_text == text


@pytest.mark.parametrize("line", [
    '{"kind":"x","payload":{"a":1},}',
    '{"kind":"x","payload":{"a":1},"seq":0,"src":"s","t":0.0,}',
    '{"kind":"x","payload":{"a":1}"seq":0,"src":"s","t":0.0}',
    '{"kind":"x","payload":{"a":1},"seq":0,"src":"s","t":0.0}}',
])
def test_a_malformed_envelope_fails_as_a_whole_decode_does(line):
    errors = []
    for decode in (None, trace._decode_whole):
        with pytest.raises(SimulationError) as raised:
            trace._parse_line(line.encode(), "t", 1, decode)
        errors.append(str(raised.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith("t:1: not JSON: ")


@settings(max_examples=100, deadline=None)
@given(events=_events, data=st.data())
def test_a_garbage_line_names_file_and_line(events, data):
    records = [(seq, *event) for seq, event in enumerate(events)]
    lines = [_write(record, "recorder") for record in records]
    victim = data.draw(st.integers(0, len(lines) - 1))
    cut = data.draw(st.integers(1, len(lines[victim]) - 1))
    lines[victim] = lines[victim][:cut]     # a torn line, then more lines
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "garbage.jsonl"
        path.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
        with TraceStore(str(Path(scratch) / "ops.sqlite")) as ops:
            before = ops.row_counts()
            with pytest.raises(SimulationError) as raised:
                ops.ingest_file(str(path))
            assert ops.row_counts() == before
        with pytest.raises(SimulationError) as replayed:
            list(trace.read_trace(path))
    assert str(raised.value).startswith(f"{path}:{victim + 1}: ")
    assert str(raised.value) == str(replayed.value)


class TestUtilizationReads:
    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("traces") / "run.jsonl"
        reset_job_ids()
        ExperimentRun(seed=42, days=1, trace_path=str(path)).execute()
        return path

    @staticmethod
    def _statements(ops, call):
        statements = []
        ops.connection.set_trace_callback(statements.append)
        try:
            result = call()
        finally:
            ops.connection.set_trace_callback(None)
        return result, statements

    def test_noop_reingest_stays_a_seek(self, recorded, tmp_path):
        with TraceStore(str(tmp_path / "ops.sqlite")) as ops:
            assert ops.ingest_file(str(recorded)) > 0
            added, statements = self._statements(
                ops, lambda: ops.ingest_file(str(recorded)))
        assert added == 0
        assert statements
        assert not [statement for statement in statements
                    if "utilization" in statement]

    def test_one_chunk_reads_no_bucket_back(self, recorded, tmp_path,
                                            monkeypatch):
        lines = recorded.read_bytes().splitlines(keepends=True)
        monkeypatch.setattr("repro.telemetry.store.CHUNK_EVENTS",
                            len(lines))
        with TraceStore(str(tmp_path / "ops.sqlite")) as ops:
            added, statements = self._statements(
                ops, lambda: ops.ingest_file(str(recorded)))
            assert added == len(lines)
            assert ops.row_counts()["utilization"] > 0
        # Every bucket is above the highest stored one, so none is read.
        assert not [statement for statement in statements
                    if statement.startswith("SELECT seconds FROM "
                                            "utilization")]
