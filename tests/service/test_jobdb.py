"""Job-database tests: one transaction per transition, crash recovery."""

import sqlite3

import pytest

from repro.service import jobdb
from repro.service.errors import ServiceError, StaleEpochError
from repro.service.jobdb import JobDatabase


@pytest.fixture
def db(tmp_path):
    database = JobDatabase(tmp_path / "svc.sqlite")
    yield database
    database.close()


class Statements:
    """Everything a handle's connection executes inside a ``with``."""

    def __init__(self, database):
        self.connection = database._db
        self.seen = []

    def __enter__(self):
        self.connection.set_trace_callback(self.seen.append)
        return self

    def __exit__(self, *exc_info):
        self.connection.set_trace_callback(None)

    @property
    def commits(self):
        return sum(1 for text in self.seen if text.startswith("COMMIT"))


class TestLifecycle:
    def test_submit_queues_at_tail(self, db):
        k1 = db.submit("m:f", owner="ann")
        k2 = db.submit("m:f", owner="bob")
        assert [row[0] for row in db.queue()] == [k1, k2]
        assert db.counts() == {"submitted": 2, "pending": 2}

    def test_place_pops_queue_and_bumps_incarnation(self, db):
        key = db.submit("m:f", payload={"steps": 3}, owner="ann")
        incarnation = db.place(key, "agent-a", epoch=1)
        assert incarnation == 1
        assert db.queue() == []
        record = db.job(key)
        assert record["state"] == jobdb.PLACED
        assert record["agent"] == "agent-a"
        assert record["payload"] == {"steps": 3}

    def test_job_rows_lists_oldest_first_up_to_a_limit(self, db):
        k1 = db.submit("m:f", owner="ann")
        k2 = db.submit("m:f", owner="bob")
        db.place(k1, "agent-a", epoch=1)
        assert db.job_rows() == [
            (k1, jobdb.PLACED, "agent-a", 0, "ann"),
            (k2, jobdb.SUBMITTED, None, 0, "bob"),
        ]
        assert [row[0] for row in db.job_rows(limit=1)] == [k1]
        assert len(db.job_rows(limit=0)) == 2     # no limit, like q

    def test_place_requires_queued_state(self, db):
        key = db.submit("m:f")
        db.place(key, "a", 1)
        with pytest.raises(ServiceError, match="cannot place"):
            db.place(key, "b", 1)

    def test_full_happy_path(self, db):
        key = db.submit("m:f", owner="ann")
        inc = db.place(key, "a", 1)
        assert db.running(key, "a", inc)
        assert db.checkpoint(key, "a", inc, 10)
        assert db.complete(key, "a", inc, result=99)
        record = db.job(key)
        assert record["state"] == jobdb.DONE
        assert record["progress"] == 10

    def test_vacate_requeues_at_head(self, db):
        first = db.submit("m:f", owner="ann")
        second = db.submit("m:f", owner="ann")
        db.place(first, "a", 1)
        db.vacate(first)
        # The vacated job outranks the younger still-queued one.
        assert [row[0] for row in db.queue()] == [first, second]

    def test_revived_job_gets_new_incarnation(self, db):
        key = db.submit("m:f")
        assert db.place(key, "a", 1) == 1
        db.vacate(key)
        assert db.place(key, "b", 1) == 2

    def test_stop_is_terminal(self, db):
        key = db.submit("m:f")
        assert db.stop(key)
        assert db.queue() == []
        assert not db.stop(key)          # already terminal
        assert not db.vacate(key)

    def test_fail_records_error(self, db):
        key = db.submit("m:f")
        inc = db.place(key, "a", 1)
        assert db.fail(key, "a", inc, "ValueError: boom")
        assert db.job(key)["error"] == "ValueError: boom"


class TestPlacementReads:
    def test_wanting_owners_are_the_distinct_queue_owners(self, db):
        assert db.wanting_owners() == []
        for owner in ("cy", "ann", "cy", "bob", "ann"):
            db.submit("m:f", owner=owner)
        assert db.wanting_owners() == ["ann", "bob", "cy"]

    def test_queue_heads_are_one_owners_first_rows(self, db):
        ann = [db.submit("m:f", payload={"n": i}, owner="ann")
               for i in range(3)]
        bob = db.submit("m:f", owner="bob")
        assert db.queue_heads("ann", 2) == [
            (ann[0], "m:f", {"n": 0}), (ann[1], "m:f", {"n": 1})]
        assert [row[0] for row in db.queue_heads("bob", 5)] == [bob]
        assert db.queue_heads("nobody", 5) == []

    def test_vacated_job_heads_its_owners_rows(self, db):
        first, second = (db.submit("m:f", owner="ann") for _ in range(2))
        db.place(first, "a", 1)
        db.vacate(first)
        assert [row[0] for row in db.queue_heads("ann", 1)] == [first]
        assert db.wanting_owners() == ["ann"]
        # ...and leaves the owner set once placed again.
        db.place_batch([(first, "a"), (second, "b")], 1)
        assert db.wanting_owners() == []


class TestPlaceBatch:
    def test_one_commit_places_all_and_saves_indices(self, db):
        keys = [db.submit("m:f", owner="ann") for _ in range(3)]
        with Statements(db) as statements:
            placed = db.place_batch(
                [(keys[0], "a"), (keys[1], "b")], 1, {"ann": 2.5})
        assert statements.commits == 1
        assert placed == {keys[0]: 1, keys[1]: 1}
        assert [row[0] for row in db.queue()] == [keys[2]]
        assert db.load_owner_indices() == {"ann": 2.5}
        assert db.job(keys[1])["agent"] == "b"

    def test_unplaceable_key_is_skipped_not_fatal(self, db):
        keys = [db.submit("m:f", owner="ann") for _ in range(3)]
        db.stop(keys[1])
        placed = db.place_batch(
            [(keys[0], "a"), (keys[1], "b"), (keys[2], "c")], 1)
        assert sorted(placed) == [keys[0], keys[2]]
        # None half-placed: the stopped job kept its state, lost no
        # queue row it did not have, and took no agent.
        assert db.job(keys[1])["state"] == jobdb.STOPPED
        assert db.job(keys[1])["agent"] is None
        assert db.queue() == []
        assert db.counts() == {"placed": 2, "stopped": 1, "pending": 0}
        rows = dict(db._db.execute("SELECT key, status FROM jobs"))
        assert rows == {keys[0]: "running", keys[1]: "removed",
                        keys[2]: "running"}

    def test_newer_epoch_fences_the_whole_batch(self, db):
        epoch = db.bump_epoch()
        keys = [db.submit("m:f", owner="ann") for _ in range(2)]
        other = JobDatabase(db.path)     # the coordinator that took over
        other.bump_epoch()
        other.close()
        with pytest.raises(StaleEpochError):
            db.place_batch([(keys[0], "a"), (keys[1], "b")], epoch,
                           {"ann": 1.0})
        assert [row[0] for row in db.queue()] == keys
        assert db.inflight() == []
        assert db.load_owner_indices() == {}
        with pytest.raises(ServiceError):
            db.place(keys[0], "a", epoch)


class TestFencing:
    def test_exit_checkpoint_and_completion_are_one_commit(self, db):
        key = db.submit("m:f")
        inc = db.place(key, "a", 1)
        with Statements(db) as statements:
            assert db.complete(key, "a", inc, result=7, progress=40)
        assert statements.commits == 1
        # service_t0 is read once, at open.
        assert not [text for text in statements.seen
                    if "service_t0" in text]
        record = db.job(key)
        assert (record["state"], record["progress"]) == (jobdb.DONE, 40)
        assert db._db.execute(
            "SELECT periodic_checkpoints FROM jobs WHERE key = ?",
            (key,)).fetchone() == (1,)

    def test_exit_below_watermark_completes_and_is_counted(self, db):
        key = db.submit("m:f")
        inc = db.place(key, "a", 1)
        db.checkpoint(key, "a", inc, 30)
        assert db.fail(key, "a", inc, "boom", progress=20)
        record = db.job(key)
        assert (record["state"], record["progress"]) == (jobdb.FAILED, 30)
        assert db.counter("service_progress_regressions") == 1

    def test_stale_incarnation_completion_rejected(self, db):
        key = db.submit("m:f")
        old = db.place(key, "a", 1)
        db.vacate(key)
        new = db.place(key, "b", 2)
        # The zombie (agent a, incarnation 1) reports success late.
        assert not db.complete(key, "a", old, result=1)
        assert db.counter("service_stale_results_rejected") == 1
        # The legitimate incarnation still completes.
        assert db.complete(key, "b", new, result=2)
        assert db.job(key)["state"] == jobdb.DONE

    def test_completion_is_exactly_once(self, db):
        key = db.submit("m:f")
        inc = db.place(key, "a", 1)
        assert db.complete(key, "a", inc, result=1)
        # The duplicate delivery of the same report is rejected.
        assert not db.complete(key, "a", inc, result=1)

    def test_progress_watermark_is_monotone(self, db):
        key = db.submit("m:f")
        inc = db.place(key, "a", 1)
        assert db.checkpoint(key, "a", inc, 30)
        assert not db.checkpoint(key, "a", inc, 20)   # would regress
        assert db.job(key)["progress"] == 30
        assert db.counter("service_progress_regressions") == 1

    def test_epoch_bump_and_promotion_counter(self, db):
        assert db.epoch == 0
        assert db.bump_epoch() == 1
        assert db.bump_epoch(promotion=True) == 2
        assert db.counter("service_promotions") == 1


class TestCrashRecovery:
    def test_reopen_recovers_queue_and_inflight(self, tmp_path):
        path = tmp_path / "svc.sqlite"
        db1 = JobDatabase(path)
        queued = db1.submit("m:f", owner="ann")
        hosted = db1.submit("m:f", owner="bob")
        inc = db1.place(hosted, "agent-a", epoch=1)
        db1.checkpoint(hosted, "agent-a", inc, 17)
        db1.close()     # stand-in for kill -9: no shutdown logic exists

        db2 = JobDatabase(path)
        assert [row[0] for row in db2.queue()] == [queued]
        assert db2.inflight() == [(hosted, "agent-a", 1, 1, 17, "bob")]
        db2.close()

    def test_owner_indices_survive_restart(self, tmp_path):
        path = tmp_path / "svc.sqlite"
        db1 = JobDatabase(path)
        db1.save_owner_indices({"ann": -1.5, "bob": 2.25})
        db1.close()
        db2 = JobDatabase(path)
        assert db2.load_owner_indices() == {"ann": -1.5, "bob": 2.25}
        db2.close()

    def test_wal_and_full_sync_active(self, db):
        assert db._db.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        # FULL = 2: every commit reaches disk before it is acknowledged.
        assert db._db.execute("PRAGMA synchronous").fetchone()[0] == 2


class TestQueryPlaneCompatibility:
    def test_jobs_table_tracks_lifecycle(self, db):
        key = db.submit("m:f", owner="ann", name="myjob")
        inc = db.place(key, "agent-a", 1)
        db.vacate(key)
        inc = db.place(key, "agent-b", 1)
        db.checkpoint(key, "agent-b", inc, 5)
        db.complete(key, "agent-b", inc)
        row = db._db.execute(
            "SELECT status, last_host, placements, vacates, "
            "periodic_checkpoints FROM jobs WHERE key = ?",
            (key,)).fetchone()
        assert row == ("completed", "agent-b", 2, 1, 1)

    def test_live_db_opens_in_pr9_trace_store(self, tmp_path):
        from repro.telemetry.store import TraceStore

        path = tmp_path / "svc.sqlite"
        database = JobDatabase(path)
        key = database.submit("m:f", owner="ann")
        inc = database.place(key, "a", 1)
        database.complete(key, "a", inc)
        database.close()
        store = TraceStore(path)
        columns, rows = store.query(
            "SELECT status, COUNT(*) FROM jobs GROUP BY 1")
        assert rows == [("completed", 1)]
        store.close()

    def test_raw_sqlite_readable_while_open(self, db, tmp_path):
        # Ops queries run against the live database from other processes.
        key = db.submit("m:f")
        other = sqlite3.connect(db.path)
        assert other.execute(
            "SELECT state FROM service_jobs WHERE key = ?",
            (key,)).fetchone() == ("submitted",)
        other.close()
