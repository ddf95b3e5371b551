"""End-to-end service-plane tests: daemon, agents, client, recovery.

Everything here runs in-process (daemon threads + agent threads over
real localhost sockets) so the suite stays fast and debuggable; the
subprocess + real-``kill -9`` coverage lives in the live chaos suite
(``repro-condor chaos --suite service``).
"""

import contextlib
import json
import os
import random
import re
import socket
import sqlite3
import threading
import time
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.service import protocol
from repro.service.agent import StationAgent
from repro.service.client import ServiceClient
from repro.service.daemon import CoordinatorDaemon, StandbyCoordinator
from repro.service.errors import ServiceError
from repro.service.jobdb import JobDatabase
from repro.service.samples import count_steps, resolve_entry

COUNT = "repro.service.samples:count_steps"
INSTANT = "repro.service.samples:instant"
FAILS = "repro.service.samples:always_fails"
#: The ``plane`` agents' grace: seconds a job stays past its owner's return.
GRACE = 0.5


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


@contextlib.contextmanager
def running_plane(db_path, ckpt_root):
    """Daemon + two agents + client, torn down in order."""
    daemon = CoordinatorDaemon(db_path, agent_timeout=1.0,
                               poll_interval=0.01)
    daemon.start()
    agents = [StationAgent(f"s{i}", [daemon.endpoint], ckpt_root,
                           heartbeat_interval=0.02, grace_period=GRACE)
              for i in range(2)]
    for agent in agents:
        agent.start()
    client = ServiceClient([daemon.endpoint])
    try:
        yield daemon, agents, client
    finally:
        for agent in agents:
            agent.stop()
        daemon.stop()


@pytest.fixture
def plane(tmp_path, db_path):
    with running_plane(db_path, tmp_path / "ckpt") as trio:
        yield trio


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

    def register(self, running=(), exiting=None):
        msg = {"op": "register", "agent": self.name,
               "running": list(running)}
        if exiting is not None:
            msg["exiting"] = list(exiting)
        reply = self.rpc(msg)
        if reply.get("ok"):
            self.epoch = reply["epoch"]
        return reply

    def heartbeat(self, running=(), epoch=None, park=None):
        msg = {"op": "heartbeat", "agent": self.name,
               "epoch": self.epoch if epoch is None else epoch,
               "running": list(running)}
        if park is not None:
            msg["park"] = park
        return self.rpc(msg)

    def park_in_thread(self, park):
        """A parked heartbeat sent from a thread; returns ``(thread,
        out)`` where ``out`` gains ``reply`` and ``seconds`` on release."""
        out = {}

        def beat():
            start = time.monotonic()
            out["reply"] = self.heartbeat(park=park)
            out["seconds"] = time.monotonic() - start

        thread = threading.Thread(target=beat, daemon=True)
        thread.start()
        return thread, out

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


def parked_agents(client):
    return sorted(a["agent"] for a in client.q(limit=1)["agents"]
                  if a["parked"])


def placements_of(daemon, key):
    return daemon.db._db.execute(
        "SELECT placements FROM jobs WHERE key = ?", (key,)).fetchone()[0]


def ledger_row(daemon, key):
    """``(status, placements, vacates)`` of the job's ``jobs`` row."""
    return daemon.db._db.execute(
        "SELECT status, placements, vacates FROM jobs WHERE key = ?",
        (key,)).fetchone()


def exits_heard(daemon):
    """Record every exit report the daemon serves, as ``(agent,
    outcome, progress, seconds)``, ``seconds`` on the monotonic clock."""
    exits = []
    serve_exit = daemon._op_job_exit

    def heard(agent, msg):
        exits.append((agent, msg["outcome"], msg["progress"],
                      time.monotonic()))
        return serve_exit(agent, msg)

    daemon._op_job_exit = heard
    return exits


def counts_from_checkpoint(**kwargs):
    """``count_steps`` whose result names the checkpoint it resumed
    from."""
    count = count_steps(**kwargs)

    def fn(ctx, state):
        return {"resumed_from": state, "count": count(ctx, state)}

    return fn


def hosting(daemon, key):
    """The agent running ``key`` once it has checkpointed there."""
    return wait_for(lambda: daemon.db.job(key)["progress"]
                    and daemon.db.job(key)["agent"],
                    what=f"{key} to checkpoint")


def owner_flags(client):
    return {a["agent"]: a["owner_active"] for a in client.q()["agents"]}


@pytest.fixture(scope="class")
def owner_stays(tmp_path_factory):
    """One run on a fresh plane in which the owner of a checkpointing
    job's station returns and stays past the grace until the job is
    done elsewhere; yields the plane (still up) and what was seen."""
    root = tmp_path_factory.mktemp("owner_stays")
    with running_plane(str(root / "svc.sqlite"), root / "ckpt") as (
            daemon, agents, client):
        exits = exits_heard(daemon)
        key = client.submit(f"{__name__}:counts_from_checkpoint",
                            payload={"steps": 300, "step_sleep": 0.005,
                                     "checkpoint_every": 5})
        first = hosting(daemon, key)
        images = os.listdir(agents[0].store.root)
        owner = next(a for a in agents if a.name == first)
        arrived = time.monotonic()
        owner.owner_arrived()
        try:
            wait_for(lambda: daemon.db.job(key)["state"] == "done",
                     timeout=30.0, what=f"{key} done")
            flags = owner_flags(client)
        finally:
            owner.owner_departed()
        yield SimpleNamespace(daemon=daemon, agents=agents, client=client,
                              key=key, first=first, arrived=arrived,
                              exits=list(exits), images=images,
                              flags=flags)


def submit_to_done(daemon, client, entry, **kwargs):
    """Submit one job; seconds until its row reads ``done``."""
    start = time.monotonic()
    key = client.submit(entry, **kwargs)
    wait_for(lambda: daemon.db.job(key)["state"] == "done", poll=0.001,
             what=f"{key} done")
    return time.monotonic() - start


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
        store.save("#9", 1, 10)
        store.save("#9", 2, 30)
        store.save("#9", 1, 20)    # zombie writes after re-placement
        # The successor resumes from its own image, not the zombie's.
        assert store.load("#9", 2) == 30
        # A fresh incarnation 3 picks the newest at-or-below image.
        assert store.load("#9", 3) == 30


class TestOwners:
    """The owner-return rule (core/owner_reaction.py) on the agents:
    the job runs through the grace (a thread cannot be suspended), then
    vacates at its next checkpoint and resumes on another station."""

    def test_owner_leaving_within_the_grace_keeps_the_job(self, plane):
        daemon, agents, client = plane
        exits = exits_heard(daemon)
        key = client.submit(COUNT, payload={"steps": 200,
                                            "step_sleep": 0.005,
                                            "checkpoint_every": 5})
        first = hosting(daemon, key)
        owner = next(a for a in agents if a.name == first)
        owner.owner_arrived()
        time.sleep(GRACE / 10)
        owner.owner_departed()
        wait_for(lambda: daemon.db.job(key)["state"] == "done",
                 timeout=30.0, what=f"{key} done")
        assert [exit[:3] for exit in exits] == [(first, "completed", 200)]
        assert ledger_row(daemon, key) == ("completed", 1, 0)

    def test_a_job_waits_beside_an_agent_whose_owner_is_active(
            self, plane, capsys):
        daemon, agents, client = plane
        for agent in agents:
            agent.owner_arrived()
        wait_for(lambda: all(a["owner_active"]
                             for a in client.q()["agents"]),
                 what="every owner flag to reach the daemon")
        key = client.submit(INSTANT)
        time.sleep(0.2)     # ten beats of each agent
        snapshot = client.q()
        assert daemon.db.job(key)["state"] == "submitted"
        assert [(a["agent"], a["job"], a["owner_active"])
                for a in snapshot["agents"]] == [
            ("s0", None, True), ("s1", None, True)]
        host, port = daemon.endpoint
        assert main(["q", "--endpoints", f"{host}:{port}"]) == 0
        table = capsys.readouterr().out
        assert "owner" in table and table.count("active") == 2
        agents[1].owner_departed()
        wait_for(lambda: daemon.db.job(key)["state"] == "done",
                 what=f"{key} done once an owner leaves")
        assert daemon.db.job(key)["agent"] == "s1"

    def test_a_start_is_bounced_while_owned(self, tmp_path):
        # Never started: the test drives the agent's start path itself.
        agent = StationAgent("s0", [("127.0.0.1", free_port())],
                             tmp_path / "ckpt")
        agent.owner_arrived()
        agent._start_job({"key": "#1", "incarnation": 1, "entry": COUNT,
                          "payload": {"steps": 1}})
        assert not agent.busy
        assert [(m["key"], m["outcome"]) for m in agent._outbox] == [
            ("#1", "vacated")]
        agent.stop()

    def test_a_start_is_bounced_while_busy(self, tmp_path):
        agent = StationAgent("s0", [("127.0.0.1", free_port())],
                             tmp_path / "ckpt")
        spec = {"key": "#1", "incarnation": 1, "entry": COUNT,
                "payload": {"steps": 10_000, "step_sleep": 0.001}}
        agent._start_job(spec)
        assert agent.busy
        agent._start_job({**spec, "key": "#2", "payload": {"steps": 10}})
        assert [(m["key"], m["outcome"]) for m in agent._outbox] == [
            ("#2", "vacated")]
        agent.stop()
        wait_for(lambda: not agent.busy, what="the job to vacate")


class TestOwnerStays:
    """The owner of a checkpointing job's station returns and stays past
    the grace (the ``owner_stays`` run): each test asserts one
    consequence of that one run."""

    def test_vacates_at_a_checkpoint_past_the_grace(self, owner_stays):
        run = owner_stays
        agent, outcome, progress, seconds = run.exits[0]
        assert (agent, outcome) == (run.first, "vacated")
        assert seconds - run.arrived >= GRACE
        # At a checkpoint of the job, short of its end.
        assert 0 < progress < 300 and progress % 5 == 0

    def test_migrates_and_resumes_on_the_other_station(self, owner_stays):
        run = owner_stays
        assert len(run.exits) == 2
        agent, outcome, progress, _seconds = run.exits[1]
        # Never placed under its owner again.
        assert agent != run.first
        assert (outcome, progress) == ("completed", 300)
        assert ledger_row(run.daemon, run.key) == ("completed", 2, 1)

    def test_no_work_lost_on_migration(self, owner_stays):
        run = owner_stays
        # Resumed from exactly the checkpoint the vacate reported.
        vacated_at = run.exits[0][2]
        assert json.loads(run.daemon.db.job(run.key)["result"]) == {
            "resumed_from": vacated_at, "count": 300}
        assert run.daemon.db.counter("service_progress_regressions") == 0

    def test_images_live_on_disk_until_completion(self, owner_stays):
        run = owner_stays
        assert run.images
        wait_for(lambda: not os.listdir(run.agents[0].store.root),
                 what="the images to be discarded")

    def test_owner_presence_reaches_q_and_leaves_with_the_owner(
            self, owner_stays):
        run = owner_stays
        other = next(a.name for a in run.agents if a.name != run.first)
        assert run.flags == {run.first: True, other: False}
        wait_for(lambda: not any(owner_flags(run.client).values()),
                 what="the owner flag to clear")
        # Owner -> vacate -> resume elsewhere -> complete.
        assert [(e[0], e[1]) for e in run.exits] == [
            (run.first, "vacated"), (other, "completed")]


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
        # Driven through the loop's two entry points, without the loop:
        # nothing runs but what the test calls.
        daemon = CoordinatorDaemon(db_path, poll_interval=0.01)
        daemon._recover()
        try:
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
            # Both idle before the next cycle runs.
            for name in ("fake-a", "fake-b"):
                assert daemon._dispatch({"op": "register", "agent": name,
                                         "running": []})["ok"]
            daemon._tick()      # the rest of the batch...
            daemon._tick()      # ...then the third job
            assert daemon.db.counts().get("placed") == 2
            assert removed == [keys[0]]
            states = {key: daemon.db.job(key) for key in keys}
            assert states[keys[0]]["state"] == "stopped"
            assert states[keys[0]]["agent"] is None
            assert {states[k]["agent"] for k in keys[1:]} == {
                "fake-a", "fake-b"}
            assert daemon.db.queue() == []
            assert daemon.db.counts()["pending"] == 0
        finally:
            daemon.stop()

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


class TestParkedHeartbeat:
    """An idle agent's beat waits at the coordinator; a placement
    reaches it when it commits, whatever the heartbeat interval."""

    @pytest.fixture
    def slow_beat(self, tmp_path, db_path):
        """One agent beating every 2 s; the daemon stops first, which
        releases the parked beat, so teardown does not wait for it."""
        daemon = CoordinatorDaemon(db_path, poll_interval=0.01,
                                   agent_timeout=10.0)
        daemon.start()
        agent = StationAgent("s0", [daemon.endpoint], tmp_path / "ckpt",
                             heartbeat_interval=2.0)
        agent.start()
        yield daemon, ServiceClient([daemon.endpoint])
        daemon.stop()
        agent.stop()

    def test_a_submit_reaches_a_parked_agent_at_once(self, slow_beat):
        daemon, client = slow_beat
        for _ in range(5):
            wait_for(lambda: parked_agents(client) == ["s0"],
                     what="the agent to park")
            # Milliseconds, against a 2 s beat; the bound leaves room
            # for a stalled fsync on a shared disk.
            assert submit_to_done(daemon, client, INSTANT) < 1.0

    def test_a_busy_agent_does_not_park_and_parks_again_after(
            self, slow_beat):
        daemon, client = slow_beat
        wait_for(lambda: parked_agents(client) == ["s0"],
                 what="the agent to park")
        # ≈ 50 ms of work: its exit report is not behind a held beat...
        assert submit_to_done(daemon, client, COUNT, payload={
            "steps": 10, "step_sleep": 0.005}) < 1.0
        # ...and the empty-handed ack is followed by a beat, not by the
        # rest of the 2 s interval.
        wait_for(lambda: parked_agents(client) == ["s0"], timeout=0.5,
                 poll=0.005, what="the agent to park again")

    def test_the_cli_defaults_do_not_wait_for_a_beat(self, tmp_path,
                                                     db_path):
        # serve --poll 0.05 --agent-timeout 1.0, agent --heartbeat 0.25:
        # a start that waited for the next beat cost 125 ms on average.
        rng = random.Random(7)
        with CoordinatorDaemon(db_path, poll_interval=0.05,
                               agent_timeout=1.0) as daemon:
            client = ServiceClient([daemon.endpoint])
            agents = [StationAgent(f"s{i}", [daemon.endpoint],
                                   tmp_path / "ckpt",
                                   heartbeat_interval=0.25, seed=i + 1)
                      for i in range(2)]
            for agent in agents:
                agent.start()
            try:
                wait_for(lambda: len(parked_agents(client)) == 2,
                         what="both agents parked")
                waits = []
                for _ in range(12):
                    time.sleep(rng.uniform(0.05, 0.15))
                    waits.append(submit_to_done(daemon, client, INSTANT))
            finally:
                for agent in agents:
                    agent.stop()
        # The median: one stalled fsync is the disk's business.
        assert sorted(waits)[len(waits) // 2] < 0.05

    def test_only_the_agent_with_a_command_is_woken(self, db_path):
        with CoordinatorDaemon(db_path, poll_interval=0.01,
                               agent_timeout=10.0) as daemon:
            client = ServiceClient([daemon.endpoint])
            fakes = [FakeAgent(name, daemon.endpoint)
                     for name in ("fake-a", "fake-b")]
            try:
                for fake in fakes:
                    fake.register()
                beats = [fake.park_in_thread(2.0) for fake in fakes]
                wait_for(lambda: len(parked_agents(client)) == 2,
                         what="both beats parked")
                key = client.submit(INSTANT)
                durable = time.monotonic()
                wait_for(lambda: any("reply" in out for _t, out in beats),
                         poll=0.001, what="a released beat")
                # One place cycle (a commit) later, not a hold later.
                assert time.monotonic() - durable < 0.5
                (woken,) = [out for _t, out in beats if "reply" in out]
                assert [job["key"] for job in
                        starts_in(woken["reply"])] == [key]
                time.sleep(0.2)
                assert len(parked_agents(client)) == 1
                for thread, out in beats:
                    thread.join(timeout=5.0)
                    assert out["reply"]["ok"]
                (other,) = [out for _t, out in beats if out is not woken]
                assert other["reply"]["commands"] == []
                assert 1.9 < other["seconds"] < 3.0
            finally:
                for fake in fakes:
                    fake.close()

    def test_hold_is_capped_and_a_degenerate_park_is_not_a_wait(
            self, db_path):
        with CoordinatorDaemon(db_path, poll_interval=0.01,
                               agent_timeout=0.6) as daemon:
            fake = FakeAgent("fake", daemon.endpoint)
            try:
                fake.register()
                for park in (0, -3.0, float("nan")):
                    start = time.monotonic()
                    assert fake.heartbeat(park=park)["ok"]
                    assert time.monotonic() - start < 0.1
                for park in (60.0, float("inf")):
                    start = time.monotonic()
                    assert fake.heartbeat(park=park)["ok"]
                    assert 0.25 < time.monotonic() - start < 2.0
            finally:
                fake.close()

    def test_a_parked_agent_does_not_expire_or_beat_faster(
            self, tmp_path, db_path):
        with CoordinatorDaemon(db_path, poll_interval=0.01,
                               agent_timeout=0.5) as daemon:
            beats = []
            serve_beat = daemon._op_heartbeat
            daemon._op_heartbeat = lambda agent, msg: (
                beats.append(agent), serve_beat(agent, msg))[1]
            with StationAgent("s0", [daemon.endpoint], tmp_path / "ckpt",
                              heartbeat_interval=0.2):
                time.sleep(2.0)
            assert daemon.db.counter("service_agent_expiries") == 0
            assert 1 <= len(beats) <= 12

    def test_a_coordinator_that_ignores_park_is_not_spun_on(
            self, tmp_path, db_path):
        with CoordinatorDaemon(db_path, poll_interval=0.01) as daemon:
            beats = []
            serve_beat = daemon._op_heartbeat

            def older_daemon(agent, msg):
                beats.append(agent)
                return serve_beat(agent, {name: value for name, value
                                          in msg.items() if name != "park"})

            daemon._op_heartbeat = older_daemon
            start = time.monotonic()
            with StationAgent("s0", [daemon.endpoint], tmp_path / "ckpt",
                              heartbeat_interval=0.1):
                time.sleep(1.0)
            elapsed = time.monotonic() - start
            assert 1 <= len(beats) <= 1 + elapsed / 0.1

    def test_stop_releases_every_parked_beat(self, db_path):
        daemon = CoordinatorDaemon(db_path, poll_interval=0.01,
                                   agent_timeout=10.0)
        daemon.start()
        client = ServiceClient([daemon.endpoint])
        fakes = [FakeAgent(name, daemon.endpoint)
                 for name in ("fake-a", "fake-b")]
        try:
            for fake in fakes:
                fake.register()
            beats = [fake.park_in_thread(5.0) for fake in fakes]
            wait_for(lambda: len(parked_agents(client)) == 2,
                     what="both beats parked")
            start = time.monotonic()
            daemon.stop()
            assert time.monotonic() - start < 1.0
            for thread, _out in beats:
                thread.join(timeout=1.0)
                assert not thread.is_alive()
        finally:
            daemon.stop()
            for fake in fakes:
                fake.close()

    def test_the_hold_is_real_time_whatever_the_clock(self, db_path):
        with CoordinatorDaemon(db_path, poll_interval=0.01,
                               clock=lambda: 1000.0) as daemon:
            fake = FakeAgent("fake", daemon.endpoint)
            try:
                fake.register()
                start = time.monotonic()
                assert fake.heartbeat(park=0.2)["ok"]
                assert 0.15 < time.monotonic() - start < 2.0
            finally:
                fake.close()

    def test_a_reply_that_is_never_written_takes_no_command(
            self, db_path, monkeypatch):
        with CoordinatorDaemon(db_path, poll_interval=0.01,
                               agent_timeout=10.0) as daemon:
            client = ServiceClient([daemon.endpoint])
            fake = FakeAgent("fake", daemon.endpoint)
            fake.register()
            thread, out = fake.park_in_thread(5.0)
            wait_for(lambda: parked_agents(client) == ["fake"],
                     what="the beat to park")
            send_frame = protocol.send_frame

            def dead_peer(sock, obj):
                if obj.get("commands"):
                    raise ConnectionResetError("peer is gone")
                return send_frame(sock, obj)

            monkeypatch.setattr(protocol, "send_frame", dead_peer)
            key = client.submit(INSTANT)
            # The serve thread dies with its connection, nothing else.
            wait_for(lambda: not parked_agents(client),
                     what="the parked beat to be released")
            client.close()
            wait_for(lambda: len(daemon._conns) == 0,
                     what="the serve thread to exit")
            thread.join(timeout=1.0)
            assert out["reply"] is None     # hung up on, not answered
            assert starts_in({"commands": daemon._agents["fake"].commands}
                             )[0]["key"] == key
            monkeypatch.setattr(protocol, "send_frame", send_frame)
            fake.close()
            # The agent comes back without the job: re-placed, run once.
            again = FakeAgent("fake", daemon.endpoint)
            try:
                again.register()
                job = again.next_start()
                assert (job["key"], job["incarnation"]) == (key, 2)
                assert again.job_exit(job)["accepted"]
            finally:
                again.close()


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

    def test_start_lost_with_its_reply_is_replaced(self, db_path):
        with CoordinatorDaemon(db_path, poll_interval=0.01) as daemon:
            key = daemon.db.submit(INSTANT, owner="ann")
            fake = FakeAgent("fake", daemon.endpoint)
            fake.register()
            wait_for(lambda: daemon._agents["fake"].commands,
                     what="the placement's start to be queued")
            # The beat that takes the start is sent, its reply never read.
            protocol.send_frame(fake.sock, {
                "op": "heartbeat", "agent": "fake", "epoch": fake.epoch,
                "running": []})
            wait_for(lambda: not daemon._agents["fake"].commands,
                     what="the start to leave with the reply")
            fake.close()
            again = FakeAgent("fake", daemon.endpoint)
            try:
                # The agent that never heard of the job says so...
                assert again.register()["drop"] == []
                # ...and gets it again, as a new incarnation.
                job = again.next_start()
                assert (job["key"], job["incarnation"]) == (key, 2)
                assert again.job_exit(job)["accepted"]
            finally:
                again.close()
            assert daemon.db.job(key)["state"] == "done"
            assert placements_of(daemon, key) == 2

    def test_register_keeps_a_job_whose_exit_is_in_the_outbox(
            self, db_path):
        with CoordinatorDaemon(db_path, poll_interval=0.01) as daemon:
            key = daemon.db.submit(INSTANT, owner="ann")
            fake = FakeAgent("fake", daemon.endpoint)
            fake.register()
            job = fake.next_start()
            fake.close()    # ran it; the connection died before the report
            again = FakeAgent("fake", daemon.endpoint)
            try:
                assert again.register(exiting=[key])["ok"]
                assert daemon.db.job(key)["state"] == "placed"
                assert again.job_exit(job)["accepted"]
            finally:
                again.close()
            assert daemon.db.job(key)["state"] == "done"
            assert placements_of(daemon, key) == 1
            assert daemon.db.counter(
                "service_stale_results_rejected") == 0

    def test_takeover_vacates_a_disowned_row_at_registration(
            self, db_path):
        db = JobDatabase(db_path)
        lost = db.submit(INSTANT, owner="ann")
        kept = db.submit(INSTANT, owner="ann")
        other = db.submit(INSTANT, owner="ann")
        incarnation = db.place(kept, "fake", epoch=1)
        db.place(lost, "fake", epoch=1)
        db.place(other, "elsewhere", epoch=1)
        db.close()
        # The reconcile window never closes: registration must do it.
        with CoordinatorDaemon(db_path, poll_interval=0.01,
                               reconcile_timeout=1e6) as daemon:
            fake = FakeAgent("fake", daemon.endpoint)
            try:
                reply = fake.register(running=[
                    {"key": kept, "incarnation": incarnation}])
                assert reply["ok"] and reply["drop"] == []
                assert daemon.db.job(lost)["state"] == "vacated"
                assert daemon.db.queue()[0][0] == lost
                assert daemon.db.job(kept)["state"] == "placed"
                assert daemon.db.job(other)["agent"] == "elsewhere"
                assert sorted(daemon._reconcile) == [other]
            finally:
                fake.close()

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


def checkpoints_then_fails():
    """A job factory: one checkpoint, then the job's own bug."""

    def fn(ctx, state):
        ctx.checkpoint(1)
        raise RuntimeError("after one checkpoint")

    return fn


class TestCheckpointImages:
    """An image that will not restore, and images nobody will read."""

    @pytest.fixture
    def one_agent(self, tmp_path, db_path):
        daemon = CoordinatorDaemon(db_path, agent_timeout=1.0,
                                   poll_interval=0.01)
        daemon.start()
        ckpt = tmp_path / "ckpt"
        agent = StationAgent("s0", [daemon.endpoint], ckpt,
                             heartbeat_interval=0.02)
        agent.start()
        yield daemon, agent, ServiceClient([daemon.endpoint]), ckpt
        agent.stop()
        daemon.stop()

    def test_a_corrupt_image_is_quarantined_and_the_job_replaced(
            self, one_agent):
        daemon, agent, client, ckpt = one_agent
        (ckpt / "job-1.i0.ckpt").write_bytes(b"not a pickle")
        key = client.submit(COUNT, payload={"steps": 20,
                                            "checkpoint_every": 5})
        assert key == "#1"
        wait_for(lambda: daemon.db.job(key)["state"] == "done",
                 what="the job to finish past its corrupt image")
        assert placements_of(daemon, key) == 2
        assert daemon.db.job(key)["progress"] == 20
        assert (ckpt / "job-1.i0.ckpt.corrupt").exists()
        # The agent is not wedged: it takes and finishes the next job.
        second = client.submit(INSTANT)
        wait_for(lambda: daemon.db.job(second)["state"] == "done",
                 what="a second job on the same agent")
        snapshot = client.q()
        assert (snapshot["done"], snapshot["pending"],
                snapshot["inflight"]) == (2, 0, 0)
        assert not agent.busy

    def test_a_failed_job_leaves_no_images(self, one_agent):
        daemon, _agent, client, ckpt = one_agent
        key = client.submit(f"{__name__}:checkpoints_then_fails")
        wait_for(lambda: daemon.db.job(key)["state"] == "failed",
                 what="the job to fail")
        assert "after one checkpoint" in daemon.db.job(key)["error"]
        wait_for(lambda: not list(ckpt.glob("job-*.i*.ckpt")),
                 what="the failed job's images to be discarded")


class TestResolveEntry:
    def test_resolves_a_factory_with_its_payload(self):
        fn = resolve_entry(COUNT, {"steps": 3, "checkpoint_every": 100})
        assert fn(None, None) == 3

    @pytest.mark.parametrize("entry, error", [
        ("repro.service.samples", "is not 'module:factory'"),
        (":count_steps", "is not 'module:factory'"),
        ("repro.service.samples:", "is not 'module:factory'"),
        ("repro.service.samples:no_such_factory", "cannot resolve"),
        ("repro.no_such_module:count_steps", "cannot resolve"),
        ("repro.service.samples:COUNT_OF_NOTHING", "cannot resolve"),
        (f"{__name__}:not_a_job", "returned non-callable"),
    ], ids=["no-factory", "no-module", "empty-factory", "missing-factory",
            "missing-module", "missing-attribute", "non-callable"])
    def test_a_bad_entry_is_a_service_error(self, entry, error):
        with pytest.raises(ServiceError, match=re.escape(error)):
            resolve_entry(entry, {})


def not_a_job():
    """A factory whose product is not a job function."""
    return "not-callable"


class TestStopDiscipline:
    """A thread that outlives ``stop()``'s join is a zombie: ``stop``
    raises naming it instead of carrying on as if it had stopped."""

    @pytest.fixture
    def release(self):
        release = threading.Event()
        yield release
        release.set()

    def test_stop_raises_on_a_zombie_agent(self, tmp_path, release):
        class StuckAgent(StationAgent):
            stop_timeout = 0.2

            def run(self):
                release.wait(10.0)      # ignores the halt

        agent = StuckAgent("s0", [("127.0.0.1", free_port())],
                           tmp_path / "ckpt")
        agent.start()
        with pytest.raises(ServiceError, match="'agent:s0'.*zombie"):
            agent.stop()

    def test_stop_raises_on_a_zombie_loop_and_keeps_its_db(
            self, db_path, release):
        class StuckDaemon(CoordinatorDaemon):
            stop_timeout = 0.2

            def _run(self):
                release.wait(10.0)      # ignores the halt and the waker
                super()._run()

        daemon = StuckDaemon(db_path)
        daemon.start()
        with pytest.raises(ServiceError, match="'svc-loop'.*zombie"):
            daemon.stop()
        # Not closed under the loop that is still using it.
        assert daemon.db.epoch == daemon.epoch
        release.set()
        daemon.stop()
        assert daemon.db is None

    def test_stop_raises_on_a_zombie_standby(self, db_path, release):
        class StuckStandby(StandbyCoordinator):
            stop_timeout = 0.2

            def _watch(self):
                release.wait(10.0)

        standby = StuckStandby(db_path, ("127.0.0.1", free_port()))
        standby.start()
        with pytest.raises(ServiceError, match="'svc-standby'.*zombie"):
            standby.stop()


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
        ({"op": "register", "agent": "fake", "exiting": "#1"}, "exiting"),
        ({"op": "register", "agent": "fake", "exiting": [["#1"]]},
         "exiting"),
        ({"op": "heartbeat", "agent": "fake", "epoch": None,
          "park": "a while"}, "park"),
        ({"op": "heartbeat", "agent": "fake", "epoch": None,
          "park": [0.25]}, "park"),
        ({"op": "heartbeat", "agent": "fake", "epoch": None,
          "owner_active": "yes"}, "owner_active"),
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
