"""A verb's transition and the placement it enables, committed together;
the lock order that makes that safe; and the client's kept connection.

In-process daemon and agents over localhost sockets, like
``test_service_plane``, whose helpers these tests share.
"""

import faulthandler
import random
import socket
import threading
import time

import pytest

from repro.service import protocol
from repro.service.agent import StationAgent
from repro.service.client import ServiceClient
from repro.service.daemon import CoordinatorDaemon
from repro.service.errors import ProtocolError, ServiceError
from tests.service.test_service_plane import (
    INSTANT, FakeAgent, free_port, parked_agents, placements_of, starts_in,
    wait_for)


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "svc.sqlite")


def commits(statements):
    return sum(1 for text in statements if text.startswith("COMMIT"))


class TestCommitsPerJob:
    """Real COMMITs, counted by sqlite's statement trace: a job costs its
    submit and its exit, each carrying the placement it made possible."""

    JOBS = 200

    def test_steady_shaped(self, tmp_path, db_path):
        # Each job is submitted to an idle pool: submit + place commit
        # together, and so do the exit and a refill that finds nothing.
        with CoordinatorDaemon(db_path, poll_interval=0.01) as daemon:
            agents = [StationAgent(f"s{i}", [daemon.endpoint],
                                   tmp_path / "ckpt",
                                   heartbeat_interval=0.25, seed=i + 1)
                      for i in range(2)]
            for agent in agents:
                agent.start()
            statements = []
            try:
                with ServiceClient([daemon.endpoint]) as client:
                    wait_for(lambda: len(parked_agents(client)) == 2,
                             what="both agents parked")
                    daemon.db._db.set_trace_callback(statements.append)
                    for i in range(self.JOBS):
                        key = client.submit(INSTANT, owner=f"u{i % 4}")
                        wait_for(lambda: daemon.db.job(key)["state"]
                                 == "done", poll=0.001, what=f"{key} done")
            finally:
                daemon.db._db.set_trace_callback(None)
                for agent in agents:
                    agent.stop()
        assert commits(statements) / self.JOBS <= 2.1

    def test_backlog_shaped(self, tmp_path, db_path):
        # Submitted with no agent up (one commit each), drained by two:
        # every exit commits with the placement of the slot it freed.
        with CoordinatorDaemon(db_path, poll_interval=0.01) as daemon:
            statements = []
            daemon.db._db.set_trace_callback(statements.append)
            agents = [StationAgent(f"s{i}", [daemon.endpoint],
                                   tmp_path / "ckpt",
                                   heartbeat_interval=0.25, seed=i + 1)
                      for i in range(2)]
            try:
                with ServiceClient([daemon.endpoint]) as client:
                    for i in range(self.JOBS):
                        client.submit(INSTANT, owner=f"u{i % 4}")
                for agent in agents:
                    agent.start()
                wait_for(lambda: daemon.db.counts().get("done") == self.JOBS,
                         timeout=60.0, what="the drain")
            finally:
                daemon.db._db.set_trace_callback(None)
                for agent in agents:
                    agent.stop()
        assert commits(statements) / self.JOBS <= 2.2


class TestVacatedReport:
    def test_a_vacated_report_cannot_requeue_the_next_placement(
            self, db_path, monkeypatch):
        with CoordinatorDaemon(db_path, poll_interval=60.0) as daemon:
            key = daemon.db.submit(INSTANT, owner="ann")
            fake = FakeAgent("fake-a", daemon.endpoint)
            try:
                fake.register()
                job = fake.next_start()
                assert (job["key"], job["incarnation"]) == (key, 1)
                db = daemon.db
                vacate = db.vacate
                raced = []

                def expiry_first(*args, **kwargs):
                    # The report's ownership check has passed; an expiry
                    # re-places the job on fake-b before its vacate lands.
                    if not raced:
                        raced.append(key)
                        vacate(key, reason="heartbeat_expired")
                        db.place(key, "fake-b", daemon.epoch)
                    return vacate(*args, **kwargs)

                monkeypatch.setattr(db, "vacate", expiry_first)
                ack = fake.job_exit(job, "vacated")
                assert raced == [key]
                assert ack["ok"] and not ack["accepted"]
                assert db.counter("service_stale_results_rejected") == 1
                record = db.job(key)
                assert (record["state"], record["agent"],
                        record["incarnation"]) == ("placed", "fake-b", 2)
                assert db.queue() == []
            finally:
                fake.close()


class TestExitAfterReRegistration:
    @pytest.mark.parametrize("after_place_thread", [False, True])
    def test_a_rejected_exit_leaves_the_keys_next_placement_its_slot(
            self, db_path, after_place_thread):
        with CoordinatorDaemon(db_path, agent_timeout=0.3,
                               poll_interval=0.01) as daemon:
            key = daemon.db.submit(INSTANT, owner="ann")
            fake = FakeAgent("fake", daemon.endpoint)
            try:
                fake.register()
                job = fake.next_start()
                assert (job["key"], job["incarnation"]) == (key, 1)
                # Stopped past the timeout: expiry requeues the job at
                # its owner's head.
                wait_for(lambda: daemon.db.job(key)["state"] == "vacated",
                         what="heartbeat expiry to vacate the job")
                assert daemon.db.queue()[0][0] == key
                # Resumed, the agent re-registers with the exit still to
                # report; the report is rejected, and the key goes back
                # to the same agent as incarnation 2, on the exit's ack —
                # placed by the exit's own cycle, or by the place thread
                # (woken by the registration) before the report lands.
                assert fake.register(exiting=[key])["ok"]
                if after_place_thread:
                    wait_for(lambda: daemon._agents["fake"].commands,
                             what="the place thread's start")
                ack = fake.job_exit(job)
                assert ack["ok"] and not ack["accepted"]
                assert [(spec["key"], spec["incarnation"])
                        for spec in starts_in(ack)] == [(key, 2)]
                assert daemon._agents["fake"].job == key
                # The slot holds it, so the agent's death requeues it.
                wait_for(lambda: daemon.db.job(key)["state"] == "vacated",
                         what="expiry to vacate incarnation 2")
                assert placements_of(daemon, key) == 2
            finally:
                fake.close()


def registration_storm(db_path, seconds=2.0):
    """Four agents re-register at random while two threads submit and the
    agents report exits; returns what the database says afterwards."""
    halt = threading.Event()
    drained = threading.Event()
    keys = []
    problems = []
    with CoordinatorDaemon(db_path, poll_interval=0.005,
                           agent_timeout=30.0) as daemon, \
            ServiceClient([daemon.endpoint]) as client:

        def submitter(owner):
            while not halt.is_set():
                keys.append(client.submit(INSTANT, owner=owner))

        def station(name, seed):
            rng = random.Random(seed)
            fake = FakeAgent(name, daemon.endpoint)
            job = None
            try:
                fake.register()
                while not drained.is_set():
                    if rng.random() < 0.15:
                        running = [] if job is None else [{
                            "key": job["key"],
                            "incarnation": job["incarnation"]}]
                        reply = fake.register(running=running)
                        if not reply["ok"] or reply["drop"]:
                            problems.append((name, reply))
                    if job is not None:
                        reply = fake.job_exit(job)
                        if not reply.get("accepted"):
                            problems.append((name, job, reply))
                    else:
                        reply = fake.heartbeat(park=0.02)
                    job = next(iter(starts_in(reply)), None)
            except Exception as exc:    # surfaced by the caller
                problems.append((name, repr(exc)))
            finally:
                fake.close()

        stations = [threading.Thread(target=station, args=(f"fake-{i}", i))
                    for i in range(4)]
        submitters = [threading.Thread(target=submitter, args=(owner,))
                      for owner in ("ann", "bob")]
        for thread in stations + submitters:
            thread.start()
        time.sleep(seconds)
        halt.set()
        for thread in submitters:
            thread.join()
        wait_for(lambda: daemon.db.counts().get("done", 0) == len(keys),
                 timeout=30.0, what="the drain")
        drained.set()
        for thread in stations:
            thread.join()
        return {"keys": keys, "problems": problems,
                "status": dict(daemon.db._db.execute(
                    "SELECT key, status FROM jobs")),
                "stale": daemon.db.counter("service_stale_results_rejected")}


class TestLockOrder:
    def test_re_registering_agents_and_submitters_do_not_deadlock(
            self, db_path, tmp_path):
        # Registration takes the daemon lock, then the database's; exits
        # and submits run placement cycles (the place lock, the daemon
        # lock, then a transaction).  The storm runs on a thread of its
        # own, so a deadlock fails here with every thread's stack.
        out = {}

        def storm():
            try:
                out.update(registration_storm(db_path))
            except BaseException as exc:
                out["error"] = exc

        thread = threading.Thread(target=storm, daemon=True)
        thread.start()
        thread.join(timeout=60.0)
        if thread.is_alive():
            with open(tmp_path / "stacks.txt", "w+") as stacks:
                faulthandler.dump_traceback(file=stacks)
                stacks.seek(0)
                pytest.fail("deadlocked:\n" + stacks.read())
        if "error" in out:
            raise out["error"]
        keys = out["keys"]
        assert not out["problems"]
        assert len(set(keys)) == len(keys) > 0
        assert out["status"] == {key: "completed" for key in keys}
        assert out["stale"] == 0


class TestKeptConnection:
    def test_a_shared_client_gets_every_reply_to_its_own_request(
            self, db_path):
        with CoordinatorDaemon(db_path, poll_interval=0.05) as daemon, \
                ServiceClient([daemon.endpoint]) as client:
            sent = {i: [] for i in range(4)}

            def run(i):
                for j in range(25):
                    name = f"t{i}-{j}"
                    sent[i].append((name, client.submit(
                        INSTANT, name=name, owner=f"o{i}")))
                    assert client.q(limit=1)["ok"]

            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            names = dict(daemon.db._db.execute("SELECT key, name FROM jobs"))
            assert len(names) == 100
            assert all(names[key] == name
                       for pairs in sent.values() for name, key in pairs)
            assert len(daemon._conns) == 1     # one kept connection

    def test_a_restart_between_two_verbs_costs_one_reconnect(self, db_path):
        port = free_port()
        sleeps = []
        with ServiceClient([("127.0.0.1", port)], retries=1,
                           sleep=sleeps.append) as client:
            first = CoordinatorDaemon(db_path, port=port, poll_interval=0.01)
            first.start()
            keys = [client.submit(INSTANT)]
            first.stop()
            with CoordinatorDaemon(db_path, port=port,
                                   poll_interval=0.01) as second:
                keys.append(client.submit(INSTANT))
                assert [row[0] for row in second.db.queue()] == keys
        assert keys == ["#1", "#2"]
        assert sleeps == []

    def test_a_slow_peer_is_not_sent_the_verb_again_at_once(self):
        # A peer that answers its first request and then stalls (an fsync
        # stuck, say): a kept socket that times out is not redialled, so
        # the verb goes out once on it and once per attempt of the walk.
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.1)
        received = []

        def read(conn):
            with conn:
                try:
                    while (msg := protocol.recv_frame(conn)) is not None:
                        received.append(msg["op"])
                        if len(received) == 1:
                            protocol.send_frame(conn, {"ok": True})
                except (OSError, ProtocolError):
                    pass

        def accept():
            while True:
                try:
                    conn, _addr = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    return
                threading.Thread(target=read, args=(conn,),
                                 daemon=True).start()

        threading.Thread(target=accept, daemon=True).start()
        try:
            with ServiceClient([listener.getsockname()], timeout=0.2,
                               retries=1) as client:
                client.ping()
                with pytest.raises(ServiceError):
                    client.submit(INSTANT)
        finally:
            listener.close()
        assert received == ["ping", "submit", "submit"]

    def test_a_deposed_answer_hangs_up_and_walks_on(self, db_path):
        with CoordinatorDaemon(db_path, poll_interval=0.01) as old, \
                CoordinatorDaemon(db_path, poll_interval=0.01) as new:
            wait_for(lambda: old.deposed, what="the old one to abdicate")
            with ServiceClient([old.endpoint, new.endpoint]) as client:
                keys = [client.submit(INSTANT)]
                wait_for(lambda: not old._conns,
                         what="the deposed coordinator's connection to end")
                keys.append(client.submit(INSTANT))
                assert not old._conns
                assert len(new._conns) == 1
            assert [row[0] for row in new.db.queue()] == keys
