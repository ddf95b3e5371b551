"""End-to-end service-plane tests: daemon, agents, client, recovery.

Everything here runs in-process (daemon threads + agent threads over
real localhost sockets) so the suite stays fast and debuggable; the
subprocess + real-``kill -9`` coverage lives in the live chaos suite
(``repro-condor chaos --suite service``).
"""

import socket
import sqlite3
import time

import pytest

from repro.service import protocol
from repro.service.agent import StationAgent
from repro.service.client import ServiceClient
from repro.service.daemon import CoordinatorDaemon, StandbyCoordinator
from repro.service.errors import ServiceError
from repro.service.jobdb import JobDatabase

COUNT = "repro.service.samples:count_steps"
INSTANT = "repro.service.samples:instant"
FAILS = "repro.service.samples:always_fails"


def wait_for(predicate, timeout=10.0, poll=0.01, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll)
    raise AssertionError(f"timed out waiting for {what}")


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "svc.sqlite")


@pytest.fixture
def plane(tmp_path, db_path):
    """Daemon + two agents + client, torn down in order."""
    daemon = CoordinatorDaemon(db_path, agent_timeout=1.0,
                               poll_interval=0.01)
    daemon.start()
    agents = [StationAgent(f"s{i}", [daemon.endpoint],
                           tmp_path / "ckpt", heartbeat_interval=0.02)
              for i in range(2)]
    for agent in agents:
        agent.start()
    client = ServiceClient([daemon.endpoint])
    yield daemon, agents, client
    for agent in agents:
        agent.stop()
    daemon.stop()


class FakeAgent:
    """A hand-driven agent speaking the raw protocol (no threads)."""

    def __init__(self, name, endpoint):
        self.name = name
        self.sock = socket.create_connection(endpoint, timeout=5.0)
        self.sock.settimeout(5.0)
        self.epoch = None

    def rpc(self, msg):
        protocol.send_frame(self.sock, msg)
        return protocol.recv_frame(self.sock)

    def register(self, running=()):
        reply = self.rpc({"op": "register", "agent": self.name,
                          "running": list(running)})
        if reply.get("ok"):
            self.epoch = reply["epoch"]
        return reply

    def heartbeat(self, running=(), epoch=None):
        return self.rpc({"op": "heartbeat", "agent": self.name,
                         "epoch": self.epoch if epoch is None else epoch,
                         "running": list(running)})

    def job_exit(self, job, outcome="completed"):
        return self.rpc({"op": "job_exit", "agent": self.name,
                         "epoch": self.epoch, "key": job["key"],
                         "incarnation": job["incarnation"],
                         "outcome": outcome, "progress": 0})

    def next_start(self, timeout=10.0):
        """Heartbeat until a ``start`` arrives; returns its job spec."""
        return wait_for(lambda: starts_in(self.heartbeat()),
                        timeout=timeout, what="a start command")[0]

    def close(self):
        self.sock.close()


def starts_in(reply):
    return [c["job"] for c in reply["commands"] if c["cmd"] == "start"]


def downgrade_to_parent_schema(path):
    """Rewrite ``service_queue`` as the commit before the ``owner``
    column created it (same DDL, same rows)."""
    raw = sqlite3.connect(path)
    with raw:
        raw.execute("DROP INDEX service_queue_by_owner")
        raw.execute("ALTER TABLE service_queue RENAME TO newer_queue")
        raw.execute("CREATE TABLE service_queue ("
                    "pos REAL PRIMARY KEY, key TEXT UNIQUE NOT NULL)")
        raw.execute("INSERT INTO service_queue "
                    "SELECT pos, key FROM newer_queue")
        raw.execute("DROP TABLE newer_queue")
    raw.close()


class TestHappyPath:
    def test_submit_runs_to_completion(self, plane):
        _daemon, _agents, client = plane
        keys = [client.submit(COUNT, payload={"steps": 20,
                                              "checkpoint_every": 5},
                              owner=f"u{i % 2}") for i in range(6)]
        snapshot = client.wait_idle(timeout=20.0, require_done=6)
        assert snapshot["done"] == 6
        states = {j["key"]: j for j in client.q()["jobs"]}
        assert all(states[k]["state"] == "done" for k in keys)
        assert all(states[k]["progress"] == 20 for k in keys)

    def test_failing_job_is_terminal_not_requeued(self, plane):
        _daemon, _agents, client = plane
        key = client.submit(FAILS, payload={"message": "by design"})
        _daemon2 = wait_for(
            lambda: _daemon.db.job(key)["state"] == "failed",
            what="job to fail")
        assert "by design" in _daemon.db.job(key)["error"]
        snapshot = client.q()
        assert snapshot["pending"] == 0

    def test_rm_stops_queued_job(self, db_path, tmp_path):
        # No agents: submissions stay queued, rm pulls one out.
        with CoordinatorDaemon(db_path, poll_interval=0.01) as daemon:
            client = ServiceClient([daemon.endpoint])
            key = client.submit(INSTANT)
            assert client.remove(key)
            assert daemon.db.job(key)["state"] == "stopped"
            assert not client.remove(key)    # already finished

    def test_drain_rejects_new_submissions(self, plane):
        _daemon, _agents, client = plane
        client.submit(INSTANT)
        client.drain()
        with pytest.raises(ServiceError, match="draining"):
            client.submit(INSTANT)

    def test_agent_checkpoints_are_incarnation_fenced(self, plane,
                                                      tmp_path):
        _daemon, agents, client = plane
        store = agents[0].store
        handle_v1 = type("H", (), {"key": "#9", "id": "9.i1",
                                   "incarnation": 1})()
        handle_v2 = type("H", (), {"key": "#9", "id": "9.i2",
                                   "incarnation": 2})()
        store.save(handle_v1, 10)
        store.save(handle_v2, 30)
        store.save(handle_v1, 20)    # zombie writes after re-placement
        # The successor resumes from its own image, not the zombie's.
        assert store.load(handle_v2) == 30
        # A fresh incarnation 3 picks the newest at-or-below image.
        handle_v3 = type("H", (), {"key": "#9", "id": "9.i3",
                                   "incarnation": 3})()
        assert store.load(handle_v3) == 30


class TestPlacementPath:
    """Head reads in Up-Down order, one commit per cycle, the next job
    on the exit ack."""

    def test_exit_ack_carries_the_next_start(self, db_path):
        with CoordinatorDaemon(db_path, poll_interval=0.01) as daemon:
            keys = [daemon.db.submit(INSTANT, owner="ann")
                    for _ in range(3)]
            fake = FakeAgent("fake", daemon.endpoint)
            try:
                fake.register()
                job = fake.next_start()
                assert job["key"] == keys[0]
                for expected in keys[1:]:
                    ack = fake.job_exit(job)
                    assert ack["ok"] and ack["accepted"]
                    (job,) = starts_in(ack)
                    assert job["key"] == expected
                    assert daemon.db.job(expected)["agent"] == "fake"
                ack = fake.job_exit(job)
                assert ack["accepted"] and ack["commands"] == []
            finally:
                fake.close()

    def test_agent_moves_from_job_to_job_without_heartbeating(
            self, tmp_path, db_path):
        jobs = 30
        with CoordinatorDaemon(db_path, poll_interval=0.01) as daemon:
            beats = []
            serve_beat = daemon._op_heartbeat
            daemon._op_heartbeat = lambda agent, msg: (
                beats.append(agent), serve_beat(agent, msg))[1]
            for _ in range(jobs):
                daemon.db.submit(INSTANT, owner="ann")
            # One beat a second: thirty jobs a beat apart would take
            # half a minute.
            with StationAgent("s0", [daemon.endpoint], tmp_path / "ckpt",
                              heartbeat_interval=1.0):
                wait_for(lambda: daemon.db.counts().get("done") == jobs,
                         timeout=15.0, what="the ack-fed drain")
            assert len(beats) < jobs / 2

    def test_light_owner_is_not_behind_a_deep_queue(self, db_path):
        now = [0.0]     # Up-Down sees only the time the test lets pass
        with CoordinatorDaemon(db_path, poll_interval=0.01,
                               agent_timeout=1e6,
                               clock=lambda: now[0]) as daemon:
            heavy = [daemon.db.submit(INSTANT, owner="ann")
                     for _ in range(200)]
            light = daemon.db.submit(INSTANT, owner="bob")
            fake = FakeAgent("fake", daemon.endpoint)
            try:
                fake.register()
                first = fake.next_start()
                # A minute of holding: the heavy owner's index rises,
                # the light owner's falls while it waits.
                now[0] += 60.0
                def charged():
                    with daemon._place_lock:
                        return (daemon.policy.index("ann") > 0
                                > daemon.policy.index("bob"))
                wait_for(charged, what="a poll to charge the holder")
                (second,) = starts_in(fake.job_exit(first))
                assert (first["key"], second["key"]) == (heavy[0], light)
                (third,) = starts_in(fake.job_exit(second))
                assert third["key"] == heavy[1]
                # A vacated job goes back to the head of the queue: it
                # is its owner's next placement, as a new incarnation,
                # ahead of the 198 younger jobs.
                assert fake.job_exit(third, "vacated")["accepted"]
                again = fake.next_start()
                assert again["key"] == heavy[1]
                assert again["incarnation"] == third["incarnation"] + 1
            finally:
                fake.close()

    def test_key_removed_between_read_and_commit(self, db_path):
        with CoordinatorDaemon(db_path, poll_interval=0.01) as daemon:
            keys = [daemon.db.submit(INSTANT, owner="ann")
                    for _ in range(3)]
            read_heads = daemon.db.queue_heads
            removed = []

            def heads_then_rm(owner, limit):
                rows = read_heads(owner, limit)
                if not removed and len(rows) > 1:
                    removed.append(rows[0][0])
                    daemon.db.stop(rows[0][0])    # rm wins the race
                return rows

            daemon.db.queue_heads = heads_then_rm
            fakes = [FakeAgent(name, daemon.endpoint)
                     for name in ("fake-a", "fake-b")]
            try:
                # Both idle before the next cycle runs.
                with daemon._place_lock:
                    for fake in fakes:
                        fake.register()
                wait_for(lambda: daemon.db.counts().get("placed") == 2,
                         what="the rest of the batch, then the third job")
                assert removed == [keys[0]]
                states = {key: daemon.db.job(key) for key in keys}
                assert states[keys[0]]["state"] == "stopped"
                assert states[keys[0]]["agent"] is None
                assert {states[k]["agent"] for k in keys[1:]} == {
                    "fake-a", "fake-b"}
                assert daemon.db.queue() == []
                assert daemon.db.counts()["pending"] == 0
            finally:
                for fake in fakes:
                    fake.close()

    def test_newer_epoch_mid_drain_places_nothing(self, db_path):
        # No poll will notice the takeover in time: only the check
        # inside the placement transaction stands in the way.
        with CoordinatorDaemon(db_path, poll_interval=60.0) as daemon:
            keys = [daemon.db.submit(INSTANT, owner="ann")
                    for _ in range(3)]
            fake = FakeAgent("fake", daemon.endpoint)
            try:
                fake.register()
                job = fake.next_start()
                (job,) = starts_in(fake.job_exit(job))
                other = JobDatabase(db_path)
                other.bump_epoch()
                ack = fake.job_exit(job)
                assert ack["ok"] and ack["commands"] == []
                assert daemon.deposed
                assert [row[0] for row in other.queue()] == keys[2:]
                assert other.job(keys[2])["state"] == "submitted"
                assert other.inflight() == []
                other.close()
                assert not fake.heartbeat()["ok"]
            finally:
                fake.close()

    def test_file_with_the_parent_schema_opens_and_drains_in_order(
            self, tmp_path):
        def drain_order(path, downgrade):
            db = JobDatabase(path)
            for i in range(12):
                db.submit(INSTANT, owner=("bob", "ann")[i % 2])
            younger = db.submit(INSTANT, owner="cy")
            hosted = db.submit(INSTANT, owner="cy")
            db.place(hosted, "gone", 1)
            db.vacate(hosted)
            queued = db.queue()
            db.close()
            if downgrade:
                downgrade_to_parent_schema(path)
            order = []
            # A stopped clock: every index stays 0, ties go by name.
            with CoordinatorDaemon(path, poll_interval=0.01,
                                   clock=lambda: 1000.0) as daemon:
                assert daemon.db.queue() == queued
                assert daemon.db.wanting_owners() == ["ann", "bob", "cy"]
                assert daemon.db.queue_heads("cy", 1)[0][0] == hosted
                fake = FakeAgent("fake", daemon.endpoint)
                try:
                    fake.register()
                    job = fake.next_start()
                    while job is not None:
                        order.append(job["key"])
                        job = next(iter(starts_in(fake.job_exit(job))),
                                   None)
                finally:
                    fake.close()
            assert order[-2:] == [hosted, younger]
            return order

        fresh = drain_order(str(tmp_path / "fresh.sqlite"), False)
        upgraded = drain_order(str(tmp_path / "old.sqlite"), True)
        assert len(fresh) == 14
        assert upgraded == fresh

    def test_deep_drain_reads_heads_and_commits_thrice_a_job(
            self, tmp_path, db_path, monkeypatch):
        jobs = 2000
        full_reads = []

        def no_full_read(db):
            full_reads.append(db)
            raise AssertionError("the placement path read the whole queue")

        monkeypatch.setattr(JobDatabase, "queue", no_full_read)
        daemon = CoordinatorDaemon(db_path, poll_interval=0.01)
        daemon.start()
        statements = []
        daemon.db._db.set_trace_callback(statements.append)
        agents = [StationAgent(f"s{i}", [daemon.endpoint],
                               tmp_path / "ckpt", heartbeat_interval=0.01)
                  for i in range(2)]
        try:
            for i in range(jobs):
                daemon.db.submit(INSTANT, owner=f"u{i % 4}")
            for agent in agents:
                agent.start()
            wait_for(lambda: daemon.db.counts().get("done") == jobs,
                     timeout=120.0, poll=0.05, what="the deep drain")
        finally:
            for agent in agents:
                agent.stop()
            daemon.db._db.set_trace_callback(None)
            daemon.stop()
        assert not full_reads
        commits = sum(1 for text in statements if text.startswith("COMMIT"))
        # Submit, place (shared by its cycle) and exit.  A heartbeat
        # that catches a job between the two marks it running: one more
        # commit, only for the jobs that live long enough to be seen.
        seen_running = sum(1 for text in statements
                           if "SET state = 'running'" in text)
        registrations = len(agents)
        assert commits - seen_running - registrations <= 3 * jobs


class TestRecoveryPaths:
    def test_restart_recovers_queue_and_updown(self, db_path):
        port = free_port()
        daemon1 = CoordinatorDaemon(db_path, port=port,
                                    poll_interval=0.01)
        daemon1.start()
        client = ServiceClient([("127.0.0.1", port)], retries=40,
                               retry_cap=0.2)
        keys = [client.submit(INSTANT, owner="ann") for _ in range(3)]
        daemon1.db.save_owner_indices({"ann": -3.5, "bob": 1.25})
        daemon1.stop()

        daemon2 = CoordinatorDaemon(db_path, port=port,
                                    poll_interval=0.01)
        daemon2.start()
        try:
            # Queue recovered in order; Up-Down indices recovered too.
            assert [row[0] for row in daemon2.db.queue()] == keys
            assert daemon2.policy.index("ann") == -3.5
            assert daemon2.policy.index("bob") == 1.25
            assert daemon2.epoch == daemon1.epoch + 1
        finally:
            daemon2.stop()

    def test_restart_vacates_unclaimed_inflight_to_queue_head(
            self, db_path):
        db = JobDatabase(db_path)
        lost = db.submit("m:f", owner="ann")
        younger = db.submit("m:f", owner="ann")
        db.place(lost, "dead-agent", epoch=1)
        db.close()

        daemon = CoordinatorDaemon(db_path, poll_interval=0.01,
                                   reconcile_timeout=0.05)
        daemon.start()
        try:
            wait_for(lambda: daemon.db.job(lost)["state"] == "vacated",
                     what="unclaimed in-flight job to be vacated")
            # Head of the queue: it outranks the younger submission.
            assert [row[0] for row in daemon.db.queue()] == [lost,
                                                             younger]
        finally:
            daemon.stop()

    def test_register_adopts_matching_running_job(self, db_path):
        db = JobDatabase(db_path)
        key = db.submit("m:f", owner="ann")
        inc = db.place(key, "fake", epoch=1)
        db.close()
        daemon = CoordinatorDaemon(db_path, poll_interval=0.01,
                                   reconcile_timeout=5.0)
        daemon.start()
        fake = FakeAgent("fake", daemon.endpoint)
        try:
            reply = fake.register(
                running=[{"key": key, "incarnation": inc, "progress": 3}])
            assert reply["ok"] and reply["drop"] == []
            # Adopted in place: still in flight, same incarnation.
            assert daemon.db.job(key)["state"] in ("placed", "running",
                                                   "checkpointed")
            assert daemon.db.job(key)["incarnation"] == inc
        finally:
            fake.close()
            daemon.stop()

    def test_register_drops_mismatched_running_job(self, db_path):
        daemon = CoordinatorDaemon(db_path, poll_interval=0.01)
        daemon.start()
        fake = FakeAgent("fake", daemon.endpoint)
        try:
            reply = fake.register(
                running=[{"key": "#404", "incarnation": 9}])
            assert reply["ok"] and reply["drop"] == ["#404"]
        finally:
            fake.close()
            daemon.stop()

    def test_heartbeat_expiry_vacates_job(self, db_path):
        daemon = CoordinatorDaemon(db_path, agent_timeout=0.15,
                                   poll_interval=0.01)
        daemon.start()
        client = ServiceClient([daemon.endpoint])
        fake = FakeAgent("fake", daemon.endpoint)
        try:
            fake.register()
            key = client.submit(COUNT, payload={"steps": 5})
            wait_for(lambda: daemon.db.job(key)["agent"] == "fake",
                     what="placement on the fake agent")
            # ...then the fake agent goes silent (no heartbeats).
            wait_for(lambda: daemon.db.job(key)["state"] == "vacated",
                     what="heartbeat expiry to vacate the job")
            assert daemon.db.counter("service_agent_expiries") >= 1
            assert [row[0] for row in daemon.db.queue()] == [key]
        finally:
            fake.close()
            daemon.stop()

    def test_stale_epoch_heartbeat_rejected(self, db_path):
        daemon = CoordinatorDaemon(db_path, poll_interval=0.01)
        daemon.start()
        fake = FakeAgent("fake", daemon.endpoint)
        try:
            fake.register()
            reply = fake.heartbeat(epoch=fake.epoch - 1)
            assert not reply["ok"]
            assert reply["error"] == "stale_epoch"
            assert reply["epoch"] == daemon.epoch
            assert daemon.db.counter(
                "service_stale_epoch_rejections") >= 1
            # With the right epoch the same heartbeat is accepted.
            assert fake.heartbeat()["ok"]
        finally:
            fake.close()
            daemon.stop()

    def test_deposed_coordinator_abdicates(self, db_path):
        daemon = CoordinatorDaemon(db_path, poll_interval=0.01)
        daemon.start()
        fake = FakeAgent("fake", daemon.endpoint)
        try:
            fake.register()
            # A newer coordinator claims the database behind its back.
            other = JobDatabase(db_path)
            other.bump_epoch()
            other.close()
            wait_for(lambda: daemon.deposed, what="abdication")
            reply = fake.heartbeat()
            assert not reply["ok"]      # deposed: fences its agents off
        finally:
            fake.close()
            daemon.stop()

    def test_resume_uses_checkpoint_after_restart(self, tmp_path,
                                                  db_path):
        # A placed job's progress must survive a coordinator restart
        # without the agent restarting from scratch.
        port = free_port()
        daemon1 = CoordinatorDaemon(db_path, port=port,
                                    poll_interval=0.01)
        daemon1.start()
        agent = StationAgent("s0", [("127.0.0.1", port)],
                             tmp_path / "ckpt", heartbeat_interval=0.02)
        agent.start()
        client = ServiceClient([("127.0.0.1", port)], retries=60,
                               retry_cap=0.2)
        try:
            key = client.submit(COUNT, payload={"steps": 400,
                                                "step_sleep": 0.003,
                                                "checkpoint_every": 5})
            wait_for(lambda: daemon1.db.job(key)["progress"] > 0,
                     what="first checkpoint")
            daemon1.stop()
            daemon2 = CoordinatorDaemon(db_path, port=port,
                                        poll_interval=0.01)
            daemon2.start()
            try:
                wait_for(lambda: daemon2.db.job(key)["state"] == "done",
                         timeout=30.0, what="completion after restart")
                record = daemon2.db.job(key)
                assert record["progress"] == 400
                assert record["incarnation"] == 1    # adopted, not redone
                assert daemon2.db.counter(
                    "service_progress_regressions") == 0
            finally:
                daemon2.stop()
        finally:
            agent.stop()


class TestFailover:
    def test_standby_promotes_and_finishes_work(self, tmp_path, db_path):
        primary_port, standby_port = free_port(), free_port()
        primary = CoordinatorDaemon(db_path, port=primary_port,
                                    poll_interval=0.01)
        primary.start()
        standby = StandbyCoordinator(
            db_path, ("127.0.0.1", primary_port), port=standby_port,
            check_interval=0.05, misses=3, poll_interval=0.01)
        standby.start()
        endpoints = [("127.0.0.1", primary_port),
                     ("127.0.0.1", standby_port)]
        agent = StationAgent("s0", endpoints, tmp_path / "ckpt",
                             heartbeat_interval=0.02)
        agent.start()
        client = ServiceClient(endpoints, retries=80, retry_cap=0.2)
        try:
            keys = [client.submit(COUNT, payload={"steps": 200,
                                                  "step_sleep": 0.002,
                                                  "checkpoint_every": 5})
                    for _ in range(2)]
            old_epoch = primary.epoch
            primary.stop()      # the standby's pings start missing
            wait_for(lambda: standby.daemon is not None, timeout=10.0,
                     what="standby promotion")
            snapshot = client.wait_idle(timeout=30.0,
                                        require_done=len(keys))
            assert snapshot["done"] == len(keys)
            assert standby.daemon.epoch > old_epoch
            db = JobDatabase(db_path)
            assert db.counter("service_promotions") == 1
            assert db.counter("service_progress_regressions") == 0
            db.close()
        finally:
            agent.stop()
            standby.stop()

    def test_agents_reject_promoted_epoch_only_briefly(self, db_path):
        # After promotion the old epoch is fenced: a heartbeat carrying
        # it gets stale_epoch and must re-register.
        daemon = CoordinatorDaemon(db_path, poll_interval=0.01,
                                   promotion=True)
        daemon.start()
        fake = FakeAgent("fake", daemon.endpoint)
        try:
            fake.register()
            stale = fake.heartbeat(epoch=fake.epoch - 1)
            assert stale["error"] == "stale_epoch"
            fake.register()
            assert fake.heartbeat()["ok"]
        finally:
            fake.close()
            daemon.stop()


class TestMalformedRequests:
    """A field of the wrong type gets an error reply naming it; the
    serve thread survives and the connection stays usable."""

    @pytest.mark.parametrize("request_msg, field", [
        ({"op": "q", "limit": "abc"}, "limit"),
        ({"op": "q", "limit": [5]}, "limit"),
        ({"op": "submit", "entry": INSTANT, "demand_seconds": "x"},
         "demand_seconds"),
        ({"op": "submit", "entry": INSTANT, "payload": "not-a-dict"},
         "payload"),
        ({"op": "submit", "entry": 17}, "entry"),
        ({"op": "heartbeat", "agent": "fake", "epoch": "new"}, "epoch"),
        ({"op": "heartbeat", "agent": "fake", "epoch": None,
          "running": "job-1"}, "running"),
        ({"op": "heartbeat", "agent": "fake", "epoch": None,
          "running": [{"key": "#1", "progress": "half"}]}, "progress"),
        ({"op": "register", "agent": "fake", "running": [17]}, "running"),
        ({"op": "job_exit", "agent": "fake", "epoch": None, "key": "#1",
          "incarnation": "first", "outcome": "completed"}, "incarnation"),
        ({"op": "job_exit", "agent": "fake", "epoch": None, "key": "#1",
          "incarnation": 1, "outcome": "completed", "progress": {}},
         "progress"),
    ])
    def test_wrong_type_is_an_error_reply(self, db_path, request_msg,
                                          field):
        daemon = CoordinatorDaemon(db_path, poll_interval=0.01)
        daemon.start()
        fake = FakeAgent("fake", daemon.endpoint)
        try:
            fake.register()
            if "epoch" in request_msg and request_msg["epoch"] is None:
                request_msg = {**request_msg, "epoch": fake.epoch}
            reply = fake.rpc(request_msg)
            assert reply["ok"] is False
            assert field in reply["error"]
            # Same connection, next request: still served.
            assert fake.rpc({"op": "ping"})["ok"]
            assert fake.rpc({"op": "q", "limit": 1})["ok"]
        finally:
            fake.close()
            daemon.stop()
