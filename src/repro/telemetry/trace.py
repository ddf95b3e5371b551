"""Deterministic JSONL trace export and offline replay.

A trace is the full typed event stream of a run, one canonical JSON
object per line.  Canonical means: sorted keys, no whitespace, stable
value encoding — so the same seed produces a **byte-identical** file,
and a trace can be diffed, archived next to results, or replayed.

Replaying (:func:`summarize_trace`) reconstructs the run's headline
aggregates — Table-1 job totals, hours consumed by Condor, checkpoint
counts, utilisation by category — *from the trace alone*, without
re-running the simulation: the scheduler's behaviour is fully determined
by its event record (cluster management as data management).

One encoder
-----------
Every canonical string in the repo — a trace line, the ordering key of
a set's members, the ops store's ``payload`` column — comes out of
:func:`_encode`, one C encoder built at import with the settings of
``json.dumps(value, sort_keys=True, separators=(",", ":"))``, so
"canonical" has a single definition and no call builds an encoder of
its own.  A trace line is the envelope
``{"kind":K,"payload":P,"seq":N,"src":S,"t":T}`` — its keys already in
sorted order — joined from ``_encode`` of each value, not a five-key
dict sorted and encoded per event.

One reader
----------
Every trace line read back — by :func:`read_trace` for a finished
trace, by the ops store's tail for a growing one — is decoded once and
validated by :func:`_parse_line`, so a line that is not a JSON object,
lacks ``seq``/``t``/``src``/``kind``, types one of them wrongly (``seq``
an integer, ``t`` a number, ``src`` and ``kind`` strings; a boolean is
neither) or carries a ``payload`` that is neither an object nor null
fails the same way everywhere:
``SimulationError("<path>:<line>: ...")``.  A line in the recorder's
envelope is scanned value by value, which hands back the payload's own
text with the record: the ops store stores that text instead of
encoding again what it has just decoded.
"""

import json

from repro.sim.errors import SimulationError
from repro.telemetry import kinds

#: Seconds per hour (kept local so the trace layer stays dependency-free).
_HOUR = 3600.0

#: Attributes used to summarise job-like payload objects.  Duck-typed so
#: the simulator's Job serialises without this module importing it.
_JOB_ATTRS = ("id", "name", "user", "owner", "home", "demand_seconds")

#: ``_iterencode(value, 0)`` -> the canonical encoding's chunks: no
#: cycle check (:func:`jsonify` output has no cycles), ``TypeError`` on
#: what JSON cannot hold, ASCII-only strings, no indent, no whitespace,
#: sorted keys, no skipped keys, NaN and infinities as JavaScript has them.
_iterencode = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
    None, ":", ",", True, False, True)

#: ``_scan(text, index) -> (value, end)``: the C scanner behind
#: ``JSONDecoder.raw_decode``; ``StopIteration`` where no value starts.
_scan = json.JSONDecoder().scan_once

#: ``_raw_decode(text) -> (value, end)``: a whole-text decode.
_raw_decode = json.JSONDecoder().raw_decode

#: Exact types the encoder writes as they are.  Sets, so that
#: ``_ATOMS.issuperset(map(type, items))`` checks a container in C.
_ATOMS = frozenset((str, int, float, bool, type(None)))
_STR = frozenset((str,))

#: Keys every trace record carries (``payload`` may be absent).
_REQUIRED = frozenset(("seq", "t", "src", "kind"))
#: ``(key, exact types, what the error calls them)`` for each of them.
_TYPED = (("seq", (int,), "an integer"), ("t", (int, float), "a number"),
          ("src", (str,), "a string"), ("kind", (str,), "a string"))


def _encode(value):
    """The canonical encoding of ``value`` (see module docs)."""
    return "".join(_iterencode(value, 0))


def _decode(text):
    """Decode one trace line's text: ``(value, end, payload_text)``.

    A line that opens as the recorder's envelope does,
    ``{"kind":K,"payload":P,``, is scanned in three values — ``K``,
    ``P`` and the object the rest makes — so ``P``, the payload's own
    text, comes back with the record; any other text is decoded whole
    and ``payload_text`` is None.  Either way the text is decoded once
    and the record is the one a whole decode gives.  The caller checks
    ``end``, which spares each line the two whitespace scans of
    ``JSONDecoder.decode``.
    """
    if text.startswith('{"kind":'):
        try:
            kind, start = _scan(text, 8)
            if text.startswith(',"payload":', start):
                start += 11
                payload, stop = _scan(text, start)
                if text.startswith(",", stop):
                    # The rest, its comma read as a brace: an object
                    # with at least one key and no second payload.
                    rest, end = _scan("{" + text[stop + 1:], 0)
                    if rest and "payload" not in rest:
                        record = {"kind": kind, "payload": payload}
                        record.update(rest)
                        return record, stop + end, text[start:stop]
        except (StopIteration, ValueError):
            pass                # decoded whole below, which says why
    return _decode_whole(text)


def _decode_whole(text):
    """:func:`_decode` without the envelope scan: ``payload_text`` is
    None.  For readers that have no use for the text."""
    value, end = _raw_decode(text)
    return value, end, None


def jsonify(value):
    """Encode a payload value canonically and deterministically.

    Containers the encoder already takes as they are — dicts with
    ``str`` keys, lists and tuples, holding only ``str``/``int``/
    ``float``/``bool``/``None`` — are returned themselves, not copied:
    most events carry exactly such a payload, and rebuilding it costs
    more than encoding it.
    """
    kind = type(value)
    if kind in _ATOMS:
        return value
    if kind is dict and _STR.issuperset(map(type, value)):
        if _ATOMS.issuperset(map(type, value.values())):
            return value
        return {key: item if type(item) in _ATOMS else jsonify(item)
                for key, item in value.items()}
    if ((kind is list or kind is tuple)
            and _ATOMS.issuperset(map(type, value))):
        return value
    # The general case, subclasses included.
    if isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, dict):
        return {str(key): jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    if isinstance(value, (set, frozenset)):
        # Sort by the canonical JSON encoding of the *jsonified* items:
        # members of mixed types (or members that jsonify to dicts, e.g.
        # job objects) have no mutual ordering, so sorting the raw
        # values would raise TypeError.  The encoding is a total order
        # over every jsonify output, and equal encodings mean equal
        # values, so the result is byte-stable across insertion orders.
        return sorted((jsonify(item) for item in value), key=_encode)
    summary = {}
    for attr in _JOB_ATTRS:
        item = getattr(value, attr, None)
        if item is not None and isinstance(item, (str, int, float, bool)):
            summary[attr] = item
    if summary:
        return summary
    # Last resort: the type name only — never repr(), whose memory
    # addresses would break byte-identity across runs.
    return f"<{type(value).__name__}>"


def encode_event(event):
    """One canonical JSONL line (no trailing newline) for an event: the
    envelope's keys in sorted order, each value through :func:`_encode`."""
    return (f'{{"kind":{_encode(event.kind)},'
            f'"payload":{_encode(jsonify(event.payload))},'
            f'"seq":{_encode(event.seq)},"src":{_encode(event.source)},'
            f'"t":{_encode(event.sim_time)}}}')


class TraceRecorder:
    """Streams every hub event to a JSONL file.

    Subscribe-all based: recording is a pure observer, so attaching a
    recorder never changes scheduling behaviour.  Close (or use as a
    context manager) to flush and detach.
    """

    def __init__(self, hub, path):
        self.hub = hub
        self.path = path
        self.events_written = 0
        self._fh = open(path, "w", encoding="utf-8", newline="\n")
        hub.subscribe_all(self._on_event)

    def _on_event(self, event):
        self._fh.write(encode_event(event) + "\n")
        self.events_written += 1

    def close(self):
        """Detach from the hub and flush the file.  Idempotent."""
        if self._fh is None:
            return
        self.hub.unsubscribe_all(self._on_event)
        self._fh.close()
        self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self):
        return f"<TraceRecorder {self.path} events={self.events_written}>"


def _parse_line(line, path, lineno, decode=None):
    """Decode and validate one raw trace line (``bytes``): the one
    reader behind :func:`read_trace` and the ops store's tail.

    Returns ``(record, payload_text)`` as ``decode`` — by default
    :func:`_decode` — gives them.
    """
    try:
        text = line.decode("utf-8").strip()
        record, end, payload_text = (decode or _decode)(text)
        if end != len(text):
            raise json.JSONDecodeError("Extra data", text, end)
    except json.JSONDecodeError as exc:
        raise SimulationError(
            f"{path}:{lineno}: not JSON: {exc.msg} at column "
            f"{exc.pos + 1}") from None
    except UnicodeDecodeError as exc:
        raise SimulationError(f"{path}:{lineno}: {exc}") from None
    if type(record) is not dict:
        raise SimulationError(
            f"{path}:{lineno}: not a JSON object: "
            f"{type(record).__name__}")
    if not _REQUIRED <= record.keys():
        raise SimulationError(
            f"{path}:{lineno}: record lacks "
            + ", ".join(sorted(_REQUIRED - record.keys())))
    t = type(record["t"])
    if (type(record["seq"]) is not int or (t is not float and t is not int)
            or type(record["src"]) is not str
            or type(record["kind"]) is not str):
        # Exact types, so a bool is neither a seq nor a time.
        for key, types, what in _TYPED:
            if type(record[key]) not in types:
                raise SimulationError(
                    f"{path}:{lineno}: {key} is not {what}: "
                    f"{type(record[key]).__name__}")
    payload = record.get("payload")
    if payload is not None and type(payload) is not dict:
        raise SimulationError(
            f"{path}:{lineno}: payload is not a JSON object: "
            f"{type(payload).__name__}")
    return record, payload_text


def _ordered_seq(record, last, path, lineno):
    """``record``'s seq, which must be above ``last`` (the seq of the
    record before it; -1 before the first)."""
    seq = record["seq"]
    if seq <= last:
        raise SimulationError(
            f"{path}:{lineno}: seq {seq} is negative" if seq < 0 else
            f"{path}:{lineno}: seq {seq} repeats or steps back "
            f"(after seq {last})")
    return seq


def read_trace(path):
    """Yield a finished trace's event records (plain dicts) in order.

    Raises :class:`SimulationError` naming file and line on the first
    malformed one — a final line torn mid-write, or a seq that repeats
    or steps back, included; only the ops store's tail
    (:meth:`TraceStore.ingest_file`) reads a trace that is still being
    written.
    """
    last = -1
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.isspace():
                record = _parse_line(line, path, lineno, _decode_whole)[0]
                last = _ordered_seq(record, last, path, lineno)
                yield record


class TraceSummary:
    """Headline aggregates reconstructed from a trace's events."""

    def __init__(self):
        #: Events per kind, exactly as the hub counted them.
        self.event_counts = {}
        self.events_total = 0
        #: Largest timestamp seen (≈ the run horizon).
        self.end_time = 0.0
        #: Table-1 material: per-user submitted job counts and demand.
        self.jobs_by_user = {}
        self.demand_seconds_by_user = {}
        #: Ledger seconds per station per category (exact float replay
        #: of each station's own accumulation order).
        self.ledger = {}
        #: First and last sequence numbers seen (None on an empty trace).
        self.first_seq = None
        self._last_seq = None
        self.seq_gaps = 0

    # -- ingestion ------------------------------------------------------

    def add(self, record):
        seq = record["seq"]
        if self._last_seq is None:
            self.first_seq = seq
        elif seq != self._last_seq + 1:
            self.seq_gaps += 1
        self._last_seq = seq
        kind = record["kind"]
        self.event_counts[kind] = self.event_counts.get(kind, 0) + 1
        self.events_total += 1
        if record["t"] > self.end_time:
            self.end_time = record["t"]
        payload = record.get("payload") or {}
        if kind == kinds.JOB_SUBMITTED:
            job = payload.get("job") or {}
            user = job.get("user") or job.get("owner") or "?"
            self.jobs_by_user[user] = self.jobs_by_user.get(user, 0) + 1
            demand = job.get("demand_seconds")
            if demand is not None:
                self.demand_seconds_by_user[user] = (
                    self.demand_seconds_by_user.get(user, 0.0) + demand
                )
        elif kind == kinds.LEDGER_ENTRY:
            station = self.ledger.setdefault(record["src"], {})
            category = payload["category"]
            station[category] = (
                station.get(category, 0.0) + payload["booked"]
            )

    # -- derived headline scalars --------------------------------------

    @property
    def last_seq(self):
        """Last sequence number seen (None on an empty trace)."""
        return self._last_seq

    def count(self, kind):
        return self.event_counts.get(kind, 0)

    @property
    def jobs_submitted(self):
        return sum(self.jobs_by_user.values())

    @property
    def jobs_completed(self):
        return self.count(kinds.JOB_COMPLETED)

    @property
    def checkpoints(self):
        """Checkpoints taken: vacates plus periodic images stored."""
        return sum(self.count(kind) for kind in kinds.CHECKPOINT_KINDS)

    @property
    def total_demand_hours(self):
        return sum(self.demand_seconds_by_user.values()) / _HOUR

    def ledger_hours(self, category):
        """Cluster-wide booked hours for one CPU category.

        Per-station sums replay each ledger's own accumulation order, so
        they equal the live ``CpuLedger.totals`` bit-for-bit; stations
        are then combined in sorted-name order for a stable total.
        """
        return sum(
            self.ledger[station].get(category, 0.0)
            for station in sorted(self.ledger)
        ) / _HOUR

    @property
    def remote_hours(self):
        """Hours consumed by Condor (the paper's headline 4771)."""
        return self.ledger_hours("remote_job")

    @property
    def local_hours(self):
        return self.ledger_hours("owner") + self.ledger_hours("local_job")

    @property
    def support_hours(self):
        return (self.ledger_hours("placement")
                + self.ledger_hours("checkpoint")
                + self.ledger_hours("syscall"))

    def headline(self):
        """The acceptance scalars as a plain dict."""
        return {
            "events": self.events_total,
            "end_time_days": self.end_time / (24 * _HOUR),
            "jobs_submitted": self.jobs_submitted,
            "jobs_completed": self.jobs_completed,
            "checkpoints": self.checkpoints,
            "total_demand_hours": self.total_demand_hours,
            "remote_hours": self.remote_hours,
            "local_hours": self.local_hours,
            "support_hours": self.support_hours,
        }

    def __repr__(self):
        return (f"<TraceSummary events={self.events_total} "
                f"jobs={self.jobs_submitted} "
                f"completed={self.jobs_completed}>")


def summarize_trace(records):
    """Fold an iterable of trace records into a :class:`TraceSummary`.

    Raises :class:`SimulationError` unless the records form the complete
    stream ``seq 0..N`` with no gaps: a trace truncated at the *head*
    (first seq > 0) is just as incomplete as one with holes in the
    middle, and would otherwise silently under-count every aggregate.
    """
    summary = TraceSummary()
    for record in records:
        summary.add(record)
    head_truncated = summary.first_seq not in (None, 0)
    if summary.seq_gaps or head_truncated:
        detail = (f"first seq {summary.first_seq}, "
                  f"last seq {summary.last_seq}, "
                  f"{summary.seq_gaps} sequence gap(s)")
        if head_truncated:
            detail += " — head-truncated, expected seq 0 at the start"
        raise SimulationError(f"trace is not contiguous: {detail}")
    return summary


def replay_trace(path):
    """Read and summarise a JSONL trace file in one call."""
    return summarize_trace(read_trace(path))
