"""The sqlite-backed ops plane: a JSONL trace as a queryable database.

Robinson & DeWitt's thesis — cluster management *is* data management —
made operational here: :class:`TraceStore` incrementally ingests the
deterministic JSONL trace (see :mod:`repro.telemetry.trace`) into the
normalized tables of :mod:`repro.telemetry.schema`, so every
operational question ("which user starved last week?", "which jobs lost
checkpoints?", "how hot was pool 2 on Tuesday?") becomes a query
instead of a re-simulation.

Ingest cursor
-------------
``meta['next_seq']`` records how far the store has read.  Ingest skips
records with ``seq < next_seq`` (so re-ingesting the same trace — or the
unchanged prefix of an extended trace — is an exact no-op) and demands
the first new record be exactly ``next_seq`` (so a head-truncated or
gapped trace fails loudly instead of silently under-counting).  The
file readers hold a trace's seqs to strictly increasing and name the
line that repeats or steps back; a read that resumes past a stored file
cursor counts the last stored seq as the one before its first line.

Streaming ingest
----------------
:meth:`TraceStore.ingest` reads its records as a stream and holds one
chunk of them (:data:`CHUNK_EVENTS`) at a time: at each chunk boundary
the pending rows go out and the aggregate caches are written back and
evicted, all inside the one all-or-nothing transaction.  Memory is
bounded by the chunk — not by the trace's length, stations, simulated
hours or jobs — and the tables do not depend on the chunk size: an
aggregate is stored as an absolute value and read back by the next
chunk that touches it (a sqlite REAL round-trips a double), so it is
folded in trace order either way, and rows keep first-appearance order.

:meth:`TraceStore.ingest_file` adds a *file cursor* so the stream starts
where the last call stopped: ``meta['trace_offset']`` is the byte just
past the last line read of ``meta['last_trace']`` and
``meta['trace_fingerprint']`` is ``<line number>:<byte length>:<sha256>``
of that line.  While the file still holds that line right before the
offset, the next call seeks there and parses only what was appended;
otherwise (replaced, rewritten, shorter) it reads from the top and the
ingest cursor skips what the store has.  A last line without its
newline is one its writer has not finished: it is left for the next
call.  The file cursor is written inside ingest's transaction, so it
can never name a position the rows do not match.

Each trace byte once
--------------------
A line in the recorder's envelope comes out of the line reader with its
payload's own text (see :mod:`repro.telemetry.trace`), and that text is
what ``events.payload`` and ``faults.detail`` store: the payload is not
encoded again after being decoded.  Only another line, or a record
handed to :meth:`TraceStore.ingest` as a dict, is encoded here.  A
``utilization`` bucket above the highest one its station has stored
cannot have a row, so it starts at zero without a query; the highest
one is read once per station and chunk, by the primary key.

Faithfulness invariant
----------------------
:meth:`TraceStore.summary` rebuilds a :class:`TraceSummary` from the
tables alone — per-user and per-station doubles were folded in the same
order :func:`summarize_trace` folds them, and sqlite REALs round-trip
IEEE doubles exactly — so ``store.summary().headline()`` equals
``replay_trace(path).headline()`` **bit-for-bit**.  A store that can
reproduce the replay path's every scalar is provably carrying the whole
trace, not a lossy digest of it.
"""

import contextlib
import hashlib
import math
import sqlite3

from repro.sim.errors import SimulationError
from repro.telemetry import kinds
from repro.telemetry.schema import SCHEMA, SCHEMA_VERSION
from repro.telemetry.trace import (
    TraceSummary,
    _encode as _canonical,
    _ordered_seq,
    _parse_line,
)

#: Width of one utilization heatmap bucket (seconds).
BUCKET_SECONDS = 3600.0

#: Events folded between write-backs: ingest holds one chunk's rows and
#: cached aggregates, never the trace's.  A constant, not a knob — the
#: result is the same for every value (tests run 7, 1 000 and 10**9).
CHUNK_EVENTS = 4096

#: jobs-table columns, in schema order (used for the cache round trip).
_JOB_COLS = (
    "key", "id", "name", "user", "home", "demand_seconds", "status",
    "submitted_t", "first_placed_t", "completed_t", "last_host",
    "placements", "placement_failures", "suspensions", "resumes",
    "vacates", "periodic_checkpoints", "kills", "preemptions",
    "host_losses", "images_lost", "torn_writes", "restore_fallbacks",
)

_JOB_COUNTERS = {
    kinds.JOB_PLACED: "placements",
    kinds.JOB_PLACEMENT_FAILED: "placement_failures",
    kinds.JOB_SUSPENDED: "suspensions",
    kinds.JOB_RESUMED: "resumes",
    kinds.JOB_VACATED: "vacates",
    kinds.JOB_PERIODIC_CHECKPOINT: "periodic_checkpoints",
    kinds.JOB_KILLED: "kills",
    kinds.JOB_PREEMPTED: "preemptions",
    kinds.HOST_LOST: "host_losses",
    kinds.CHECKPOINT_IMAGE_LOST: "images_lost",
    kinds.CHECKPOINT_WRITE_TORN: "torn_writes",
    kinds.CHECKPOINT_RESTORE_FALLBACK: "restore_fallbacks",
}

_JOB_STATUS = {
    kinds.JOB_SUBMITTED: "queued",
    kinds.JOB_REFUSED: "refused",
    kinds.JOB_PLACED: "running",
    kinds.JOB_SUSPENDED: "suspended",
    kinds.JOB_RESUMED: "running",
    kinds.JOB_VACATED: "queued",
    kinds.JOB_KILLED: "queued",
    kinds.JOB_PREEMPTED: "queued",
    kinds.HOST_LOST: "queued",
    kinds.JOB_COMPLETED: "completed",
    kinds.JOB_REMOVED: "removed",
    kinds.JOB_FAILED: "failed",
}

#: Kinds recorded in the ``faults`` incident table.
_FAULT_TABLE_KINDS = frozenset(kinds.FAULT_KINDS + kinds.STORAGE_KINDS)

#: Payload keys tried, in order, for the fault table's ``target`` column.
_FAULT_TARGET_KEYS = ("station", "host", "name", "src", "dst")


def _job_dict(payload):
    job = payload.get("job")
    return job if isinstance(job, dict) else {}


def _job_key(job):
    """Stable per-trace key for a job payload summary."""
    if job.get("id") is not None:
        return f"#{job['id']}"
    return str(job.get("name") or "?")


def _job_user(job):
    return job.get("user") or job.get("owner") or "?"


class TraceStore:
    """One sqlite database holding an ingested telemetry trace.

    ``path`` may be a filesystem path or ``":memory:"``.  Open stores
    are context managers; :meth:`close` is idempotent.
    """

    def __init__(self, path):
        self.path = path
        self._db = sqlite3.connect(path)
        self._db.executescript(SCHEMA)
        stored = self._meta_get("schema_version")
        if stored is None:
            self._meta_set("schema_version", str(SCHEMA_VERSION))
            self._db.commit()
        elif int(stored) != SCHEMA_VERSION:
            raise SimulationError(
                f"ops store {path!r} has schema v{stored}, "
                f"this build expects v{SCHEMA_VERSION}"
            )

    # -- plumbing ------------------------------------------------------

    @property
    def connection(self):
        """The underlying :mod:`sqlite3` connection (escape hatch)."""
        return self._db

    def close(self):
        if self._db is not None:
            self._db.close()
            self._db = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def _meta_get(self, key, default=None):
        row = self._db.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return default if row is None else row[0]

    def _meta_set(self, key, value):
        self._db.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT (key) DO UPDATE SET value = excluded.value",
            (key, value),
        )

    @property
    def next_seq(self):
        """The ingest cursor: first sequence number not yet stored."""
        return int(self._meta_get("next_seq", "0"))

    @property
    def end_time(self):
        return float(self._meta_get("end_time", "0.0"))

    def row_counts(self):
        """``{table: rows}`` for every table (no-op-ingest checks)."""
        tables = [row[0] for row in self._db.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name NOT LIKE 'sqlite_%' ORDER BY name")]
        return {table: self._db.execute(
                    f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                for table in tables}

    def __repr__(self):
        return f"<TraceStore {self.path} next_seq={self.next_seq}>"

    # -- ingestion -----------------------------------------------------

    def ingest_file(self, trace_path):
        """Ingest what a JSONL trace file holds beyond what this store
        has read of it; returns the number of new events.

        Resumes at the byte offset the last call stopped at (a seek, so
        an unchanged file costs nothing and a grown one its new lines)
        and stops before a final line still missing its newline, so a
        trace can be tailed while its recorder is writing it.
        """
        with contextlib.closing(self._tail(str(trace_path))) as tail:
            return self.ingest(tail)

    def _tail(self, path):
        """Yield ``(record, payload text)`` for each line of ``path``
        past the stored file cursor (see :func:`~repro.telemetry.trace.
        _parse_line`).

        :meth:`ingest` drains this inside its transaction, so the cursor
        this generator writes once the last line is taken — file name,
        byte offset, fingerprint of the last line read — commits or
        rolls back together with the rows and ``next_seq``.
        """
        taken = None                # the last record line ingest took
        with open(path, "rb") as fh:
            offset, lineno = self._resume_point(fh)
            # The seq of the record before the next line: past a stored
            # cursor, the last one stored.
            last = self.next_seq - 1 if lineno else -1
            for line in fh:
                if not line.endswith(b"\n"):
                    break           # torn tail: its writer is mid-line
                offset += len(line)
                lineno += 1
                if not line.isspace():
                    item = _parse_line(line, path, lineno)
                    last = _ordered_seq(item[0], last, path, lineno)
                    yield item
                    taken = offset, lineno, line
        if taken is not None:
            offset, lineno, line = taken
            self._meta_set("last_trace", path)
            self._meta_set("trace_offset", str(offset))
            self._meta_set(
                "trace_fingerprint",
                f"{lineno}:{len(line)}:{_fingerprint(line)}")

    def _resume_point(self, fh):
        """Position ``fh`` where reading resumes; returns ``(byte
        offset, lines before it)``.

        That is the stored cursor while the file still holds the
        fingerprinted line right before it.  A replaced, rewritten or
        shorter file is read from the top, where :meth:`ingest` skips
        what it has — either way every line before the cursor is one
        :meth:`ingest` took or skipped.
        """
        try:
            lineno, length, digest = self._meta_get(
                "trace_fingerprint", "").split(":")
            offset = int(self._meta_get("trace_offset", ""))
            length = int(length)
            fh.seek(offset - length)
            if _fingerprint(fh.read(length)) == digest:
                return offset, int(lineno)
        except (ValueError, OSError):
            pass                    # no cursor yet, or not one of ours
        fh.seek(0)
        return 0, 0

    def ingest(self, records):
        """Fold trace records (dicts, seq order) into the tables.

        Records below the cursor are skipped (idempotent re-ingest); the
        first new record must be exactly ``next_seq``.  Returns the
        number of newly ingested events.  All-or-nothing: one
        transaction, rolled back on error.

        ``records`` is consumed as a stream: every :data:`CHUNK_EVENTS`
        events the pending rows are written and the cached aggregates
        written back *and evicted* (still inside the transaction), so
        memory is bounded by the chunk, not by the trace.  Aggregates
        are stored as absolute values and re-read on their next touch —
        a sqlite REAL round-trips a double — so each one is folded in
        trace order whatever the chunk size.

        An item may also be a ``(record, payload text)`` pair, as
        :meth:`ingest_file`'s tail yields them: the text is stored as it
        is, where a bare record's payload is encoded here.
        """
        start = cursor = self.next_seq
        end_time = self.end_time
        counts = {}
        event_rows, fault_rows, lease_ops = [], [], []
        ledger = _RowCache(self._ledger_load)
        tops = _RowCache(self._bucket_top)
        buckets = _RowCache(lambda key: self._bucket_load(key, tops))
        users = _RowCache(self._user_load)
        jobs = _RowCache(self._job_load)

        def write_back():
            self._db.executemany(
                "INSERT INTO events (seq, t, src, kind, payload) "
                "VALUES (?, ?, ?, ?, ?)", event_rows)
            self._ledger_flush(ledger)
            self._bucket_flush(buckets)
            self._user_flush(users)
            self._job_flush(jobs)
            self._db.executemany(
                "INSERT INTO faults (seq, t, kind, fault, target, "
                "detail) VALUES (?, ?, ?, ?, ?, ?)", fault_rows)
            for sql, params in lease_ops:
                self._db.execute(sql, params)
            for pending in (event_rows, fault_rows, lease_ops,
                            ledger, tops, buckets, users, jobs):
                pending.clear()

        with self._db:
            for record in records:
                if type(record) is tuple:
                    record, text = record
                else:
                    text = None
                seq = record["seq"]
                if seq < cursor:
                    continue
                if seq != cursor:
                    raise SimulationError(
                        f"cannot ingest a non-contiguous trace: expected "
                        f"seq {cursor}, got {seq}"
                        + (" — head-truncated, expected seq 0 at the start"
                           if start == cursor == 0 else "")
                    )
                cursor += 1
                t = record["t"]
                if t != t:
                    # sqlite stores a NaN as NULL; events.t is NOT NULL.
                    raise SimulationError(
                        f"cannot ingest seq {seq}: its t is NaN")
                src = record["src"]
                kind = record["kind"]
                payload = record.get("payload")
                if not payload:
                    payload, text = {}, None
                text = text or _canonical(payload)
                event_rows.append((seq, t, src, kind, text))
                counts[kind] = counts.get(kind, 0) + 1
                if t > end_time:
                    end_time = t
                self._ingest_one(seq, t, src, kind, payload, text,
                                 ledger, buckets, users, jobs,
                                 fault_rows, lease_ops)
                if len(event_rows) >= CHUNK_EVENTS:
                    write_back()
            if cursor > start:
                write_back()
                self._db.executemany(
                    "INSERT INTO event_counts (kind, count) VALUES (?, ?) "
                    "ON CONFLICT (kind) DO UPDATE "
                    "SET count = count + excluded.count",
                    sorted(counts.items()))
                self._meta_set("next_seq", str(cursor))
                self._meta_set("end_time", repr(end_time))
        return cursor - start

    def _ingest_one(self, seq, t, src, kind, payload, text,
                    ledger, buckets, users, jobs, fault_rows, lease_ops):
        if kind == kinds.LEDGER_ENTRY:
            row = ledger[(src, payload["category"])]
            # Fold in trace order: equals the live ledger bit-for-bit.
            row[0] += payload["booked"]
            row[1] += 1
            self._bucket_spread(buckets, src, payload)
            return
        job = _job_dict(payload)
        if kind == kinds.JOB_SUBMITTED:
            user = users[_job_user(job)]
            user[0] += 1
            demand = job.get("demand_seconds")
            if demand is not None:
                user[2] += demand
                user[3] += 1
            row = jobs[_job_key(job)]
            self._job_describe(row, job, status="queued", submitted_t=t)
        elif kind == kinds.JOB_COMPLETED:
            users[_job_user(job)][1] += 1
            row = jobs[_job_key(job)]
            self._job_describe(row, job, status="completed",
                               completed_t=t)
        elif kind in _JOB_COUNTERS or kind in _JOB_STATUS:
            row = jobs[_job_key(job)]
            self._job_describe(row, job)
            counter = _JOB_COUNTERS.get(kind)
            if counter is not None:
                row[counter] += 1
            status = _JOB_STATUS.get(kind)
            if status is not None:
                row["status"] = status
            if kind == kinds.JOB_PLACED:
                if row["first_placed_t"] is None:
                    row["first_placed_t"] = t
                row["last_host"] = payload.get("host") or src
        if kind in _FAULT_TABLE_KINDS:
            target = next(
                (payload[key] for key in _FAULT_TARGET_KEYS
                 if isinstance(payload.get(key), str)),
                _job_dict(payload).get("name"))
            fault_rows.append((seq, t, kind, payload.get("fault"),
                               target, text))
        elif kind == kinds.CROSS_POOL_LEASE_GRANTED:
            for station in payload.get("stations") or ():
                lease_ops.append((
                    "INSERT INTO leases (lease_id, station, lender, "
                    "borrower, granted_t, expires_at) "
                    "VALUES (?, ?, ?, ?, ?, ?) "
                    "ON CONFLICT (lease_id, station) DO UPDATE SET "
                    "lender = excluded.lender, "
                    "borrower = excluded.borrower, "
                    "granted_t = excluded.granted_t, "
                    "expires_at = excluded.expires_at",
                    (str(payload.get("lease_id")), station, src,
                     str(payload.get("borrower")), t,
                     payload.get("expires_at")),
                ))
        elif kind == kinds.CROSS_POOL_LEASE_RETURNED:
            lease_ops.append((
                "INSERT INTO leases (lease_id, station, returned_t, "
                "return_reason) VALUES (?, ?, ?, ?) "
                "ON CONFLICT (lease_id, station) DO UPDATE SET "
                "returned_t = excluded.returned_t, "
                "return_reason = excluded.return_reason",
                (str(payload.get("lease_id")),
                 payload.get("station") or src, t,
                 payload.get("reason")),
            ))
        elif kind == kinds.CROSS_POOL_LEASE_EXPIRED:
            lease_ops.append((
                "INSERT INTO leases (lease_id, station, expired_t) "
                "VALUES (?, ?, ?) "
                "ON CONFLICT (lease_id, station) DO UPDATE SET "
                "expired_t = excluded.expired_t",
                (str(payload.get("lease_id")),
                 payload.get("station") or src, t),
            ))

    # -- per-table cache loaders / flushes -----------------------------

    def _ledger_load(self, key):
        station, category = key
        row = self._db.execute(
            "SELECT seconds, entries FROM ledger "
            "WHERE station = ? AND category = ?", key).fetchone()
        return [row[0], row[1]] if row else [0.0, 0]

    def _ledger_flush(self, cache):
        for (station, category), row in cache.items():
            self._db.execute(
                "INSERT INTO ledger (station, category, seconds, entries)"
                " VALUES (?, ?, ?, ?) "
                "ON CONFLICT (station, category) DO UPDATE SET "
                "seconds = excluded.seconds, entries = excluded.entries",
                (station, category, row[0], row[1]))

    def _bucket_top(self, station):
        """The highest utilization bucket stored for ``station``."""
        top = self._db.execute(
            "SELECT max(bucket) FROM utilization WHERE station = ?",
            (station,)).fetchone()[0]
        return -math.inf if top is None else top

    def _bucket_load(self, key, tops):
        if key[1] > tops[key[0]]:
            return [0.0]            # above every stored bucket: no row
        row = self._db.execute(
            "SELECT seconds FROM utilization "
            "WHERE station = ? AND bucket = ? AND category = ?",
            key).fetchone()
        return [row[0]] if row else [0.0]

    def _bucket_flush(self, cache):
        self._db.executemany(
            "INSERT INTO utilization (station, bucket, category, seconds)"
            " VALUES (?, ?, ?, ?) "
            "ON CONFLICT (station, bucket, category) DO UPDATE SET "
            "seconds = excluded.seconds",
            [(station, bucket, category, row[0])
             for (station, bucket, category), row in cache.items()])

    def _bucket_spread(self, buckets, station, payload):
        """Split one ledger booking across hourly heatmap buckets."""
        t0, t1 = payload["t0"], payload["t1"]
        booked = payload["booked"]
        category = payload["category"]
        if t1 <= t0:
            buckets[(station, int(t0 // BUCKET_SECONDS), category)][0] \
                += booked
            return
        span = t1 - t0
        first = int(t0 // BUCKET_SECONDS)
        last = int(t1 // BUCKET_SECONDS)
        if first == last:
            # Most bookings fall in one bucket: the loop below for that
            # bucket alone, whose lo is t0 and hi is t1 — the same
            # product and quotient, not ``booked``, whose bits may differ.
            buckets[(station, first, category)][0] += booked * span / span
            return
        for bucket in range(first, last + 1):
            lo = max(t0, bucket * BUCKET_SECONDS)
            hi = min(t1, (bucket + 1) * BUCKET_SECONDS)
            if hi > lo:
                buckets[(station, bucket, category)][0] += (
                    booked * (hi - lo) / span)

    def _user_load(self, user):
        row = self._db.execute(
            "SELECT jobs_submitted, jobs_completed, demand_seconds, "
            "demand_entries FROM users WHERE user = ?", (user,)).fetchone()
        return list(row) if row else [0, 0, 0.0, 0]

    def _user_flush(self, cache):
        # Not an upsert: its conflict path burns an AUTOINCREMENT id, so
        # a user written back twice would push later users' ids up.
        for user, row in cache.items():
            if not self._db.execute(
                    "UPDATE users SET jobs_submitted = ?, "
                    "jobs_completed = ?, demand_seconds = ?, "
                    "demand_entries = ? WHERE user = ?",
                    (*row, user)).rowcount:
                self._db.execute(
                    "INSERT INTO users (jobs_submitted, jobs_completed, "
                    "demand_seconds, demand_entries, user) "
                    "VALUES (?, ?, ?, ?, ?)", (*row, user))

    def _job_load(self, key):
        row = self._db.execute(
            "SELECT {} FROM jobs WHERE key = ?".format(
                ", ".join(_JOB_COLS)), (key,)).fetchone()
        if row is not None:
            return dict(zip(_JOB_COLS, row))
        fresh = dict.fromkeys(_JOB_COLS)
        fresh["key"] = key
        for counter in _JOB_COUNTERS.values():
            fresh[counter] = 0
        return fresh

    def _job_flush(self, cache):
        # An upsert keeps the rowid of a job written back before;
        # INSERT OR REPLACE would move it to the end of the table.
        self._db.executemany(
            "INSERT INTO jobs ({}) VALUES ({}) "
            "ON CONFLICT (key) DO UPDATE SET {}".format(
                ", ".join(_JOB_COLS),
                ", ".join("?" for _ in _JOB_COLS),
                ", ".join(f"{col} = excluded.{col}"
                          for col in _JOB_COLS[1:])),
            [tuple(row[col] for col in _JOB_COLS)
             for row in cache.values()])

    @staticmethod
    def _job_describe(row, job, **updates):
        """Fill identity fields from a job payload summary."""
        for attr in ("id", "name", "user", "home", "demand_seconds"):
            if row[attr] is None and job.get(attr) is not None:
                row[attr] = job[attr]
        for field, value in updates.items():
            if field == "status" or row[field] is None:
                row[field] = value

    # -- faithfulness --------------------------------------------------

    def summary(self):
        """Rebuild the replay path's :class:`TraceSummary` from tables.

        The returned summary's :meth:`~TraceSummary.headline` equals
        ``replay_trace(trace).headline()`` bit-for-bit for any trace this
        store ingested (the faithfulness invariant; see module docs).
        """
        summary = TraceSummary()
        for kind, count in self._db.execute(
                "SELECT kind, count FROM event_counts ORDER BY kind"):
            summary.event_counts[kind] = count
        summary.events_total = self.next_seq
        summary.end_time = self.end_time
        if summary.events_total:
            summary.first_seq = 0
            summary._last_seq = summary.events_total - 1
        # id order = first-appearance order: the dict insertion order
        # (and thus the float summation order) matches the replay fold.
        for user, submitted, demand, entries in self._db.execute(
                "SELECT user, jobs_submitted, demand_seconds, "
                "demand_entries FROM users ORDER BY id"):
            if submitted:
                summary.jobs_by_user[user] = submitted
            if entries:
                summary.demand_seconds_by_user[user] = demand
        for station, category, seconds in self._db.execute(
                "SELECT station, category, seconds FROM ledger "
                "ORDER BY rowid"):
            summary.ledger.setdefault(station, {})[category] = seconds
        return summary

    # -- raw queries ---------------------------------------------------

    def query(self, sql, params=()):
        """Run arbitrary SQL; returns ``(column_names, rows)``."""
        cursor = self._db.execute(sql, params)
        columns = ([description[0] for description in cursor.description]
                   if cursor.description else [])
        return columns, cursor.fetchall()


class _RowCache(dict):
    """Per-chunk write-back cache: rows load lazily on first touch and
    are flushed, then evicted, when the chunk is written back."""

    __slots__ = ("_load",)

    def __init__(self, load):
        super().__init__()
        self._load = load

    def __missing__(self, key):
        row = self._load(key)
        self[key] = row
        return row


def _fingerprint(line):
    return hashlib.sha256(line).hexdigest()


def ingest_trace(trace_path, db_path):
    """Convenience one-shot: ingest ``trace_path`` into ``db_path``.

    Returns ``(store, added_events)`` with the store left open.
    """
    store = TraceStore(db_path)
    try:
        added = store.ingest_file(trace_path)
    except BaseException:
        store.close()
        raise
    return store, added
