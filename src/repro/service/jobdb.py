"""The crash-safe job database: sqlite, WAL, one transaction per move.

This is the service plane's only durable truth.  The coordinator daemon
holds **no** job state that is not recoverable from here: a ``kill -9``
at any instant leaves a database from which a restarted (or standby)
coordinator rebuilds the queue, the in-flight placements, and the
Up-Down accounting.

The file is *the same queryable store PR 9 built* (Robinson & DeWitt:
cluster management is data management): :class:`JobDatabase` creates the
full :mod:`repro.telemetry.schema` and keeps the ``jobs`` table's
lifecycle columns up to date on every transition, so ``repro-condor
query jobs --db`` (and raw SQL) work on a live service database exactly
as they do on an ingested trace.  Service-only state lives in four extra
tables:

``service_jobs``    entry point, payload, fine-grained state machine
                    (submitted → placed → running → checkpointed →
                    done / vacated / stopped / failed), hosting agent,
                    incarnation, placement epoch, and the monotone
                    checkpoint ``progress`` watermark;
``service_queue``   the pending queue as ``(pos, key, owner)`` — head
                    requeue inserts at ``min(pos) - 1`` so a vacated job
                    keeps its age; the ``(owner, pos)`` index lets the
                    placement cycle ask for the wanting owners and for
                    one owner's head rows without touching the rest of
                    the queue (a file written before the ``owner``
                    column existed gains and back-fills it when opened);
``service_owners``  persisted Up-Down schedule indices;
``service_agents``  last registration of every station agent.

Durability discipline: WAL journal with ``synchronous=FULL`` (every
commit reaches the disk before the transition is acknowledged), and
every lifecycle transition is exactly one transaction — there is no
observable intermediate state for a crash to expose.  Transitions that
are decided together commit together (:meth:`JobDatabase.transaction`:
a transition called inside an open transaction joins it): all
placements of one cycle plus the Up-Down indices
(:meth:`JobDatabase.place_batch`), an exit report's final checkpoint
with its completion, and a verb's own transition with the placement it
enables — two commits in a job's life (submit, exit), each carrying
the placement it made possible.
"""

import contextlib
import json
import sqlite3
import threading
import time

from repro.service.errors import ServiceError, StaleEpochError
from repro.telemetry.schema import SCHEMA, SCHEMA_VERSION

# -- the fine-grained service state machine -----------------------------
SUBMITTED = "submitted"
PLACED = "placed"
RUNNING = "running"
CHECKPOINTED = "checkpointed"
DONE = "done"
VACATED = "vacated"
STOPPED = "stopped"
FAILED = "failed"

#: States in which the job sits in the queue waiting for a placement.
QUEUED_STATES = (SUBMITTED, VACATED)
#: States in which the job occupies an agent.
INFLIGHT_STATES = (PLACED, RUNNING, CHECKPOINTED)
#: Terminal states.
FINAL_STATES = (DONE, STOPPED, FAILED)

_SERVICE_SCHEMA = """
CREATE TABLE IF NOT EXISTS service_jobs (
    key         TEXT PRIMARY KEY,
    entry       TEXT NOT NULL,
    payload     TEXT NOT NULL,
    state       TEXT NOT NULL,
    agent       TEXT,
    incarnation INTEGER NOT NULL DEFAULT 0,
    epoch       INTEGER NOT NULL DEFAULT 0,
    progress    INTEGER NOT NULL DEFAULT 0,
    result      TEXT,
    error       TEXT
);
CREATE INDEX IF NOT EXISTS service_jobs_by_state
    ON service_jobs (state);
CREATE TABLE IF NOT EXISTS service_queue (
    pos   REAL PRIMARY KEY,
    key   TEXT UNIQUE NOT NULL,
    owner TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS service_owners (
    owner TEXT PRIMARY KEY,
    idx   REAL NOT NULL DEFAULT 0.0
);
CREATE TABLE IF NOT EXISTS service_agents (
    name           TEXT PRIMARY KEY,
    epoch          INTEGER NOT NULL DEFAULT 0,
    registered_t   REAL
);
"""

#: Created after the ``owner`` column is known to exist (see
#: :meth:`JobDatabase._upgrade_queue`).
_QUEUE_INDEX = """
CREATE INDEX IF NOT EXISTS service_queue_by_owner
    ON service_queue (owner, pos)
"""

#: The distinct owners in the queue, one index probe each (a loose
#: index scan: sqlite's DISTINCT would walk every queue entry).
_WANTING_OWNERS = """
WITH RECURSIVE wanting (owner) AS (
    SELECT MIN(owner) FROM service_queue
    UNION ALL
    SELECT (SELECT MIN(owner) FROM service_queue
            WHERE owner > wanting.owner)
    FROM wanting WHERE wanting.owner IS NOT NULL
)
SELECT owner FROM wanting WHERE owner IS NOT NULL
"""

#: meta keys holding integer counters (all crash-safe, all queryable).
COUNTER_KEYS = (
    "service_stale_epoch_rejections",
    "service_stale_results_rejected",
    "service_progress_regressions",
    "service_agent_expiries",
    "service_promotions",
)


class JobDatabase:
    """One sqlite file holding the whole service plane's durable state.

    Thread-safe (one internal lock; sqlite connection shared).  Times
    are stored relative to the database's creation instant
    (``meta.service_t0``) so the PR 9 reports' day/hour arithmetic stays
    meaningful on live databases.
    """

    def __init__(self, path, clock=time.time):
        self.path = str(path)
        self._clock = clock
        self._lock = threading.RLock()
        self._db = sqlite3.connect(self.path, check_same_thread=False,
                                   timeout=10.0)
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=FULL")
        self._db.execute("PRAGMA busy_timeout=10000")
        with self._db:
            self._db.executescript(SCHEMA)
            self._db.executescript(_SERVICE_SCHEMA)
            if self._meta("schema_version") is None:
                self._meta_set("schema_version", str(SCHEMA_VERSION))
            if self._meta("service_t0") is None:
                self._meta_set("service_t0", repr(clock()))
        self._upgrade_queue()
        self._t0 = float(self._meta("service_t0"))

    # -- plumbing ------------------------------------------------------

    def close(self):
        if self._db is not None:
            self._db.close()
            self._db = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def _meta(self, key, default=None):
        row = self._db.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return default if row is None else row[0]

    def _meta_set(self, key, value):
        self._db.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT (key) DO UPDATE SET value = excluded.value",
            (key, str(value)),
        )

    def _now(self):
        return self._clock() - self._t0

    def _queue_has_owner(self):
        return any(column[1] == "owner" for column in self._db.execute(
            "PRAGMA table_info(service_queue)"))

    def _upgrade_queue(self):
        """Give a file written before ``service_queue.owner`` existed the
        column, back-filled from ``jobs.user``, and its index — all in
        one transaction, so no opener ever sees a half-filled column."""
        with self._db:
            if not self._queue_has_owner():
                self._db.execute("BEGIN IMMEDIATE")
                # Another process opening the same file may have won.
                if not self._queue_has_owner():
                    self._db.execute(
                        "ALTER TABLE service_queue "
                        "ADD COLUMN owner TEXT NOT NULL DEFAULT ''")
                    self._db.execute(
                        "UPDATE service_queue SET owner = (SELECT user "
                        "FROM jobs WHERE jobs.key = service_queue.key)")
            self._db.execute(_QUEUE_INDEX)

    @contextlib.contextmanager
    def transaction(self):
        """One ``BEGIN IMMEDIATE … COMMIT`` under the database lock.

        Re-entrant: a transition called inside an open transaction joins
        it, so moves decided together commit together or not at all.  An
        exception leaving the outermost block rolls everything back.  The
        write lock is taken first, so an epoch read inside cannot be
        overtaken by another process's bump before the writes land.
        """
        with self._lock:
            if self._db.in_transaction:
                yield
                return
            self._db.execute("BEGIN IMMEDIATE")
            try:
                yield
                self._db.commit()
            except BaseException:
                self._db.rollback()
                raise

    def _bump(self, counter):
        self._meta_set(counter, int(self._meta(counter, "0")) + 1)

    def counter(self, name):
        """Current value of one crash-safe meta counter."""
        with self._lock:
            return int(self._meta(name, "0"))

    # -- epoch fencing -------------------------------------------------

    @property
    def epoch(self):
        """The current coordinator epoch (grows at every takeover)."""
        with self._lock:
            return int(self._meta("service_epoch", "0"))

    def bump_epoch(self, promotion=False):
        """Claim the coordinatorship: one transaction, new epoch.

        Every placement stamped with an older epoch is thereby fenced:
        agents reporting it are told to re-register, and a deposed
        coordinator discovers the newer epoch here and abdicates.
        """
        with self.transaction():
            epoch = int(self._meta("service_epoch", "0")) + 1
            self._meta_set("service_epoch", epoch)
            if promotion:
                self._bump("service_promotions")
            return epoch

    # -- lifecycle transitions (one transaction each) ------------------

    def submit(self, entry, payload=None, name=None, owner="anonymous",
               demand_seconds=0.0):
        """submitted: new job at the queue tail; returns its key."""
        with self.transaction():
            job_id = int(self._meta("service_next_job_id", "1"))
            self._meta_set("service_next_job_id", job_id + 1)
            key = f"#{job_id}"
            now = self._now()
            self._db.execute(
                "INSERT INTO service_jobs (key, entry, payload, state) "
                "VALUES (?, ?, ?, ?)",
                (key, entry, json.dumps(payload or {}, sort_keys=True),
                 SUBMITTED))
            tail = self._db.execute(
                "SELECT COALESCE(MAX(pos), 0.0) + 1.0 FROM service_queue"
            ).fetchone()[0]
            self._db.execute(
                "INSERT INTO service_queue (pos, key, owner) "
                "VALUES (?, ?, ?)", (tail, key, owner))
            self._db.execute(
                "INSERT INTO jobs (key, id, name, user, home, "
                "demand_seconds, status, submitted_t) "
                "VALUES (?, ?, ?, ?, ?, ?, 'queued', ?)",
                (key, job_id, name or f"job-{job_id}", owner, owner,
                 demand_seconds, now))
            return key

    def place_batch(self, assignments, epoch, indices=None):
        """placed, for a whole placement cycle in one transaction.

        ``assignments`` is ``[(key, agent), ...]``; every key still
        queued is popped and assigned, a key that is no longer placeable
        (stopped or placed since it was read) is skipped without
        disturbing the others, and ``indices`` (the Up-Down schedule
        indices the choice was made under) are persisted alongside.
        Returns ``{key: incarnation}`` for the keys placed.

        The coordinator's claim is checked inside the transaction: when
        a newer coordinator has bumped ``meta.service_epoch`` past
        ``epoch`` nothing is placed and :class:`StaleEpochError` is
        raised — rolling back the enclosing transaction, if any — so a
        deposed coordinator cannot place in the gap between two of its
        own fencing polls.
        """
        placed = {}
        with self.transaction():
            current = int(self._meta("service_epoch", "0"))
            if current > epoch:
                raise StaleEpochError(
                    f"epoch {epoch} fenced by coordinator epoch {current}")
            now = self._now()
            for key, agent in assignments:
                row = self._db.execute(
                    "SELECT state, incarnation FROM service_jobs "
                    "WHERE key = ?", (key,)).fetchone()
                if row is None or row[0] not in QUEUED_STATES:
                    continue
                incarnation = row[1] + 1
                self._db.execute(
                    "DELETE FROM service_queue WHERE key = ?", (key,))
                self._db.execute(
                    "UPDATE service_jobs SET state = ?, agent = ?, "
                    "incarnation = ?, epoch = ? WHERE key = ?",
                    (PLACED, agent, incarnation, epoch, key))
                self._db.execute(
                    "UPDATE jobs SET status = 'running', last_host = ?, "
                    "placements = placements + 1, first_placed_t = "
                    "COALESCE(first_placed_t, ?) WHERE key = ?",
                    (agent, now, key))
                placed[key] = incarnation
            if placed and indices:
                self._write_owner_indices(indices)
        return placed

    def place(self, key, agent, epoch):
        """placed: pop from the queue, assign to ``agent``; returns the
        new incarnation number (the one-job case of
        :meth:`place_batch`)."""
        placed = self.place_batch([(key, agent)], epoch)
        if key not in placed:
            record = self.job(key)
            raise ServiceError(
                f"cannot place {key}: state "
                f"{record['state'] if record else 'missing'!r}")
        return placed[key]

    def _guarded(self, key, agent, incarnation):
        """The job's ``(state, progress)`` iff (agent, incarnation)
        still own it."""
        return self._db.execute(
            "SELECT state, progress FROM service_jobs WHERE key = ? "
            "AND agent = ? AND incarnation = ?",
            (key, agent, incarnation)).fetchone()

    def running(self, key, agent, incarnation):
        """running: the agent confirmed execution began."""
        with self.transaction():
            row = self._guarded(key, agent, incarnation)
            if row is None or row[0] != PLACED:
                return False
            self._db.execute(
                "UPDATE service_jobs SET state = ? WHERE key = ?",
                (RUNNING, key))
            return True

    def _advance_watermark(self, key, state, watermark, progress):
        """Move the monotone progress watermark of an in-flight job
        (inside the caller's transaction); False on a regression."""
        if progress < watermark:
            self._bump("service_progress_regressions")
            return False
        if progress > watermark or state != CHECKPOINTED:
            self._db.execute(
                "UPDATE service_jobs SET state = ?, progress = ? "
                "WHERE key = ?", (CHECKPOINTED, progress, key))
            self._db.execute(
                "UPDATE jobs SET periodic_checkpoints = "
                "periodic_checkpoints + 1 WHERE key = ?", (key,))
        return True

    def checkpoint(self, key, agent, incarnation, progress):
        """checkpointed: advance the monotone progress watermark.

        A report *below* the watermark is a correctness red flag (a job
        resumed from older state than it had durably reported): the
        watermark is kept and ``service_progress_regressions`` counts
        the violation for the chaos suite to assert on.
        """
        with self.transaction():
            row = self._guarded(key, agent, incarnation)
            if row is None or row[0] not in INFLIGHT_STATES:
                return False
            return self._advance_watermark(key, row[0], row[1], progress)

    def _finish(self, key, agent, incarnation, progress, state, column,
                value, status):
        """One transaction: the exit report's last checkpoint (if it
        carries ``progress``) and the terminal state, accepted only from
        the owning incarnation."""
        with self.transaction():
            row = self._guarded(key, agent, incarnation)
            if row is None or row[0] not in INFLIGHT_STATES:
                self._bump("service_stale_results_rejected")
                return False
            if progress:
                self._advance_watermark(key, row[0], row[1], progress)
            self._db.execute(
                f"UPDATE service_jobs SET state = ?, {column} = ? "
                "WHERE key = ?", (state, value, key))
            self._db.execute(
                "UPDATE jobs SET status = ?, completed_t = ? "
                "WHERE key = ?", (status, self._now(), key))
            return True

    def complete(self, key, agent, incarnation, result=None, progress=0):
        """done — accepted only from the owning incarnation.

        A stale incarnation's result (the agent was partitioned away and
        its job re-placed) is rejected and counted, preserving
        exactly-once completion.  ``progress`` is the exit report's
        final watermark, checkpointed in the same transaction.
        """
        return self._finish(key, agent, incarnation, progress, DONE,
                            "result", json.dumps(result), "completed")

    def fail(self, key, agent, incarnation, error, progress=0):
        """failed: the job function itself raised (not an infra fault)."""
        return self._finish(key, agent, incarnation, progress, FAILED,
                            "error", str(error), "failed")

    def vacate(self, key, reason="vacated", requeue=True, agent=None,
               incarnation=None):
        """vacated: back to the queue **head** — the job keeps its age
        and is re-placed before younger submissions (resume, not
        restart).  Returns False if the job is not in flight — or, when
        ``agent`` / ``incarnation`` are given, not in flight there: a
        decision read before a re-placement never requeues the next
        placement."""
        with self.transaction():
            row = self._db.execute(
                "SELECT state, agent, incarnation FROM service_jobs "
                "WHERE key = ?", (key,)).fetchone()
            if (row is None or row[0] not in INFLIGHT_STATES
                    or agent not in (None, row[1])
                    or incarnation not in (None, row[2])):
                return False
            self._db.execute(
                "UPDATE service_jobs SET state = ?, agent = NULL "
                "WHERE key = ?", (VACATED, key))
            if requeue:
                head = self._db.execute(
                    "SELECT COALESCE(MIN(pos), 1.0) - 1.0 "
                    "FROM service_queue").fetchone()[0]
                self._db.execute(
                    "INSERT INTO service_queue (pos, key, owner) "
                    "SELECT ?, key, user FROM jobs WHERE key = ?",
                    (head, key))
            self._db.execute(
                "UPDATE jobs SET status = 'queued', vacates = vacates + 1 "
                "WHERE key = ?", (key,))
            return True

    def stop(self, key):
        """stopped (the ``rm`` verb): out of the queue, terminal.

        An in-flight job is marked stopped immediately — the daemon
        tells its agent to drop it, and any later exit report from that
        incarnation is rejected (a ``vacated`` one is the agent's
        acknowledgement, not counted as stale)."""
        with self.transaction():
            row = self._db.execute(
                "SELECT state FROM service_jobs WHERE key = ?",
                (key,)).fetchone()
            if row is None or row[0] in FINAL_STATES:
                return False
            self._db.execute(
                "DELETE FROM service_queue WHERE key = ?", (key,))
            self._db.execute(
                "UPDATE service_jobs SET state = ? WHERE key = ?",
                (STOPPED, key))
            self._db.execute(
                "UPDATE jobs SET status = 'removed' WHERE key = ?",
                (key,))
            return True

    # -- placement and recovery reads ----------------------------------

    def wanting_owners(self):
        """Owners with at least one queued job, sorted by name."""
        with self._lock:
            return [row[0] for row in self._db.execute(_WANTING_OWNERS)]

    def queue_heads(self, owner, limit):
        """The first ``limit`` queued jobs of ``owner`` in queue order:
        ``[(key, entry, payload), ...]`` — what the placement cycle can
        act on, whatever the depth behind them."""
        with self._lock:
            rows = self._db.execute(
                "SELECT q.key, s.entry, s.payload FROM service_queue q "
                "JOIN service_jobs s ON s.key = q.key "
                "WHERE q.owner = ? ORDER BY q.pos LIMIT ?",
                (owner, limit)).fetchall()
        return [(key, entry, json.loads(payload))
                for key, entry, payload in rows]

    def queue(self):
        """The whole pending queue in order, for recovery checks and
        inspection (O(depth): not for the placement path):
        ``[(key, entry, payload, owner, progress), ...]``."""
        with self._lock:
            rows = self._db.execute(
                "SELECT q.key, s.entry, s.payload, j.user, s.progress "
                "FROM service_queue q "
                "JOIN service_jobs s ON s.key = q.key "
                "JOIN jobs j ON j.key = q.key "
                "ORDER BY q.pos").fetchall()
        return [(key, entry, json.loads(payload), owner, progress)
                for key, entry, payload, owner, progress in rows]

    def inflight(self):
        """Placed/running/checkpointed jobs:
        ``[(key, agent, incarnation, epoch, progress, owner), ...]``."""
        with self._lock:
            return self._db.execute(
                "SELECT s.key, s.agent, s.incarnation, s.epoch, "
                "s.progress, j.user FROM service_jobs s "
                "JOIN jobs j ON j.key = s.key "
                "WHERE s.state IN (?, ?, ?) ORDER BY s.key",
                INFLIGHT_STATES).fetchall()

    def job(self, key):
        """Full service row for one job, or ``None``."""
        with self._lock:
            row = self._db.execute(
                "SELECT key, entry, payload, state, agent, incarnation, "
                "epoch, progress, result, error FROM service_jobs "
                "WHERE key = ?", (key,)).fetchone()
        if row is None:
            return None
        names = ("key", "entry", "payload", "state", "agent",
                 "incarnation", "epoch", "progress", "result", "error")
        record = dict(zip(names, row))
        record["payload"] = json.loads(record["payload"])
        return record

    def job_rows(self, limit=None):
        """The ``q`` verb's listing, oldest first (all of it without a
        ``limit``): ``[(key, state, agent, progress, owner), ...]``."""
        with self._lock:
            return self._db.execute(
                "SELECT s.key, s.state, s.agent, s.progress, j.user "
                "FROM service_jobs s JOIN jobs j ON j.key = s.key "
                "ORDER BY j.id LIMIT ?",
                (limit or -1,)).fetchall()

    def counts(self):
        """``{state: jobs}`` plus queue depth (the ``q`` verb's core)."""
        with self._lock:
            by_state = dict(self._db.execute(
                "SELECT state, COUNT(*) FROM service_jobs "
                "GROUP BY state").fetchall())
            pending = self._db.execute(
                "SELECT COUNT(*) FROM service_queue").fetchone()[0]
        by_state["pending"] = pending
        return by_state

    # -- Up-Down persistence -------------------------------------------

    def _write_owner_indices(self, indices):
        self._db.executemany(
            "INSERT INTO service_owners (owner, idx) VALUES (?, ?) "
            "ON CONFLICT (owner) DO UPDATE SET idx = excluded.idx",
            sorted(indices.items()))

    def save_owner_indices(self, indices):
        """Persist the Up-Down schedule indices (one transaction)."""
        with self.transaction():
            self._write_owner_indices(indices)

    def load_owner_indices(self):
        with self._lock:
            return dict(self._db.execute(
                "SELECT owner, idx FROM service_owners").fetchall())

    # -- agents --------------------------------------------------------

    def register_agent(self, name, epoch):
        with self.transaction():
            self._db.execute(
                "INSERT INTO service_agents (name, epoch, registered_t) "
                "VALUES (?, ?, ?) ON CONFLICT (name) DO UPDATE SET "
                "epoch = excluded.epoch, "
                "registered_t = excluded.registered_t",
                (name, epoch, self._now()))

    def count_stale_result(self):
        with self.transaction():
            self._bump("service_stale_results_rejected")

    def count_stale_epoch(self):
        with self.transaction():
            self._bump("service_stale_epoch_rejections")

    def count_agent_expiry(self):
        with self.transaction():
            self._bump("service_agent_expiries")

    def __repr__(self):
        return f"<JobDatabase {self.path} epoch={self.epoch}>"
