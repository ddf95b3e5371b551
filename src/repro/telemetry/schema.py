"""The ops database schema, shared by the trace store and the job database.

One module so the live daemon can create the tables without importing
the trace reader, the event vocabulary or :mod:`hashlib` (OpenSSL):
:class:`~repro.telemetry.store.TraceStore` fills them from a trace,
:class:`~repro.service.jobdb.JobDatabase` keeps the ``jobs`` table's
lifecycle columns current on a live pool, and ``repro-condor query``
reads either file.

Tables
------
``events``       every record verbatim: ``(seq, t, src, kind, payload)``
                 with the payload's canonical JSON text — the text the
                 line carries when it is in the recorder's envelope,
                 else re-encoded.  No secondary index: nothing reads
                 events by kind or source, and an index on each would
                 double the cost of the insert and add 3.7 MB to the
                 month's 16 MB store;
``event_counts`` per-kind totals (the replay summary's counters);
``users``        per-user submit/complete/demand rollup, ordered by
                 first appearance;
``jobs``         one row per job with the full submit → place → vacate →
                 complete lifecycle and every per-job fault counter;
``ledger``       per-station per-category booked CPU seconds, folded in
                 trace order so the doubles equal the live ledgers
                 bit-for-bit;
``utilization``  the same bookings split into hourly buckets — heatmap
                 feedstock;
``leases``       cross-pool lease lifecycle (granted / returned /
                 expired), one row per leased station;
``faults``       every fault/recovery/storage-fault event with its
                 payload, for chaos-scenario timelines;
``meta``         the ingest cursor, the file cursor and schema version.
"""

SCHEMA_VERSION = 1

SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS events (
    seq     INTEGER PRIMARY KEY,
    t       REAL NOT NULL,
    src     TEXT NOT NULL,
    kind    TEXT NOT NULL,
    payload TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS event_counts (
    kind  TEXT PRIMARY KEY,
    count INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS users (
    id              INTEGER PRIMARY KEY AUTOINCREMENT,
    user            TEXT UNIQUE NOT NULL,
    jobs_submitted  INTEGER NOT NULL DEFAULT 0,
    jobs_completed  INTEGER NOT NULL DEFAULT 0,
    demand_seconds  REAL NOT NULL DEFAULT 0.0,
    demand_entries  INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS jobs (
    key                  TEXT PRIMARY KEY,
    id                   INTEGER,
    name                 TEXT,
    user                 TEXT,
    home                 TEXT,
    demand_seconds       REAL,
    status               TEXT,
    submitted_t          REAL,
    first_placed_t       REAL,
    completed_t          REAL,
    last_host            TEXT,
    placements           INTEGER NOT NULL DEFAULT 0,
    placement_failures   INTEGER NOT NULL DEFAULT 0,
    suspensions          INTEGER NOT NULL DEFAULT 0,
    resumes              INTEGER NOT NULL DEFAULT 0,
    vacates              INTEGER NOT NULL DEFAULT 0,
    periodic_checkpoints INTEGER NOT NULL DEFAULT 0,
    kills                INTEGER NOT NULL DEFAULT 0,
    preemptions          INTEGER NOT NULL DEFAULT 0,
    host_losses          INTEGER NOT NULL DEFAULT 0,
    images_lost          INTEGER NOT NULL DEFAULT 0,
    torn_writes          INTEGER NOT NULL DEFAULT 0,
    restore_fallbacks    INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS jobs_by_user ON jobs (user);
CREATE TABLE IF NOT EXISTS ledger (
    station  TEXT NOT NULL,
    category TEXT NOT NULL,
    seconds  REAL NOT NULL,
    entries  INTEGER NOT NULL,
    PRIMARY KEY (station, category)
);
CREATE TABLE IF NOT EXISTS utilization (
    station  TEXT NOT NULL,
    bucket   INTEGER NOT NULL,
    category TEXT NOT NULL,
    seconds  REAL NOT NULL,
    PRIMARY KEY (station, bucket, category)
);
CREATE TABLE IF NOT EXISTS leases (
    lease_id      TEXT NOT NULL,
    station       TEXT NOT NULL,
    lender        TEXT,
    borrower      TEXT,
    granted_t     REAL,
    expires_at    REAL,
    returned_t    REAL,
    return_reason TEXT,
    expired_t     REAL,
    PRIMARY KEY (lease_id, station)
);
CREATE TABLE IF NOT EXISTS faults (
    seq    INTEGER PRIMARY KEY,
    t      REAL NOT NULL,
    kind   TEXT NOT NULL,
    fault  TEXT,
    target TEXT,
    detail TEXT NOT NULL
);
"""
