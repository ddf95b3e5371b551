"""One thread serves the coordinator: what its loop must not let one
peer do to the others, and the verbs that rode along with it (``rm`` of
a running job, a ``q`` reply over the frame cap).

In-process daemons and agents over localhost sockets, like
``test_service_plane``, whose helpers these tests share; the thread
count is read from a real ``serve`` process.
"""

import json
import os
import signal
import socket
import struct
import subprocess
import sys
import time

import pytest

from repro.service import protocol
from repro.service.agent import StationAgent
from repro.service.client import ServiceClient
from repro.service.daemon import CoordinatorDaemon
from repro.service.errors import ServiceError
from tests.service.test_service_plane import (
    COUNT, INSTANT, FakeAgent, free_port, parked_agents, placements_of,
    wait_for)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "svc.sqlite")


def frame(obj):
    body = json.dumps(obj).encode("utf-8")
    return struct.pack(">I", len(body)) + body


def timed(fn):
    start = time.monotonic()
    fn()
    return time.monotonic() - start


class TestNoPeerStallsAnother:
    def test_half_a_frame_does_not_delay_a_submit(self, db_path):
        with CoordinatorDaemon(db_path, poll_interval=0.01) as daemon, \
                ServiceClient([daemon.endpoint]) as client, \
                socket.create_connection(daemon.endpoint) as slow:
            slow.settimeout(5.0)
            data = frame({"op": "ping"})
            slow.sendall(data[:6])      # header and two bytes of body
            wait_for(lambda: len(daemon._conns) == 1,
                     what="the slow peer's connection")
            assert timed(lambda: client.submit(INSTANT)) < 0.5
            slow.sendall(data[6:])      # the rest, late: still answered
            assert protocol.recv_frame(slow)["ok"]

    def test_a_peer_that_never_reads_its_q_replies(self, db_path):
        with CoordinatorDaemon(db_path, poll_interval=0.01,
                               rpc_timeout=1.0) as daemon:
            with daemon.db.transaction():   # one commit for the lot
                for _ in range(1000):
                    daemon.db.submit(INSTANT, owner="ann")
            hog = socket.socket()
            hog.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            hog.connect(daemon.endpoint)
            hog.settimeout(0.5)
            request = frame({"op": "q"})
            with ServiceClient([daemon.endpoint]) as client:
                try:
                    while True:     # until the daemon stops reading it
                        hog.sendall(request)
                except socket.timeout:
                    pass
                # One reply waits in the daemon for the hog; the loop
                # serves everyone else meanwhile.
                waiting = [conn for conn in list(daemon._conns)
                           if conn.out]
                assert len(waiting) == 1
                assert timed(lambda: client.submit(INSTANT)) < 0.5
                assert timed(client.ping) < 0.5
                # No write progress for rpc_timeout: hung up on.
                wait_for(lambda: len(daemon._conns) == 1, timeout=5.0,
                         what="the stalled reader to be dropped")
                assert client.q(limit=1)["ok"]
            hog.close()

    def test_a_malformed_frame_closes_only_its_own_connection(
            self, db_path):
        with CoordinatorDaemon(db_path, poll_interval=0.01) as daemon, \
                ServiceClient([daemon.endpoint]) as client, \
                socket.create_connection(daemon.endpoint) as bad:
            client.ping()
            bad.settimeout(5.0)
            body = b"[1,2,3]"
            bad.sendall(struct.pack(">I", len(body)) + body)
            assert bad.recv(1) == b""      # hung up on, not answered
            wait_for(lambda: len(daemon._conns) == 1,
                     what="only the good connection left")
            assert client.submit(INSTANT) == "#1"


class TestOneThread:
    def test_the_daemon_runs_two_threads_whatever_its_connections(
            self, tmp_path, db_path):
        port = free_port()
        env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--db", db_path,
             "--port", str(port), "--agent-timeout", "10"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        endpoint = ("127.0.0.1", port)
        clients = [ServiceClient([endpoint], retries=40, retry_cap=0.2)
                   for _ in range(16)]
        fakes = []
        try:
            for client in clients:
                client.ping()
            fakes = [FakeAgent(f"fake-{i}", endpoint) for i in range(3)]
            for fake in fakes:
                fake.register()
            beats = [fake.park_in_thread(3.0) for fake in fakes]
            wait_for(lambda: len(parked_agents(clients[0])) == 3,
                     what="every beat held")
            with open(f"/proc/{daemon.pid}/status") as status:
                threads = next(int(line.split()[1]) for line in status
                               if line.startswith("Threads:"))
            assert threads <= 2     # the main thread and the loop
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=5.0) == 0
            for thread, _out in beats:
                thread.join(timeout=5.0)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
            for client in clients:
                client.close()
            for fake in fakes:
                fake.close()

    def test_stop_is_prompt_with_beats_held_and_no_tick_due(self, db_path):
        daemon = CoordinatorDaemon(db_path, poll_interval=60.0,
                                   agent_timeout=60.0)
        daemon.start()
        fakes = [FakeAgent(f"fake-{i}", daemon.endpoint) for i in range(3)]
        try:
            client = ServiceClient([daemon.endpoint])
            for fake in fakes:
                fake.register()
            beats = [fake.park_in_thread(20.0) for fake in fakes]
            wait_for(lambda: len(parked_agents(client)) == 3,
                     what="every beat held")
            client.close()
            assert timed(daemon.stop) < 1.0
            for thread, out in beats:
                thread.join(timeout=1.0)
                assert out["reply"]["ok"]   # released, not hung up on
        finally:
            daemon.stop()
            for fake in fakes:
                fake.close()


class TestRemoveARunningJob:
    @pytest.fixture
    def one_agent(self, tmp_path, db_path):
        with CoordinatorDaemon(db_path, poll_interval=0.01) as daemon:
            with StationAgent("s0", [daemon.endpoint], tmp_path / "ckpt",
                              heartbeat_interval=0.02) as agent:
                with ServiceClient([daemon.endpoint]) as client:
                    yield daemon, agent, client

    def running(self, daemon, client, payload):
        key = client.submit(COUNT, payload=payload)
        wait_for(lambda: daemon.db.job(key)["state"] in (
            "running", "checkpointed"), what=f"{key} running")
        return key

    def test_the_vacated_ack_is_not_a_stale_result(self, one_agent):
        daemon, agent, client = one_agent
        key = self.running(daemon, client, {
            "steps": 400, "step_sleep": 0.003, "checkpoint_every": 5})
        assert client.remove(key)
        wait_for(lambda: not agent.busy and not agent._outbox,
                 what="the agent to vacate and report it")
        wait_for(lambda: daemon._agents["s0"].job is None,
                 what="the report to free the slot")
        assert daemon.db.job(key)["state"] == "stopped"
        assert daemon.db.counter("service_stale_results_rejected") == 0

    def test_the_slot_stays_held_until_the_job_ends(self, one_agent):
        daemon, _agent, client = one_agent
        # ≈ 0.6 s and no checkpoint, so no chance to vacate: it runs on.
        key = self.running(daemon, client, {
            "steps": 150, "step_sleep": 0.004, "checkpoint_every": 10**9})
        assert client.remove(key)
        assert daemon._agents["s0"].job == key
        after = client.submit(INSTANT)
        wait_for(lambda: daemon.db.job(after)["state"] == "done",
                 what="the next job, once the slot is free")
        assert placements_of(daemon, after) == 1
        assert daemon.db.job(key)["state"] == "stopped"


def test_a_q_reply_over_the_cap_is_an_error_not_a_hangup(
        db_path, monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME", 4096)
    sleeps = []
    with CoordinatorDaemon(db_path, poll_interval=0.01) as daemon, \
            ServiceClient([daemon.endpoint], sleep=sleeps.append) as client:
        with daemon.db.transaction():
            for _ in range(100):
                daemon.db.submit(INSTANT, owner="ann")
        with pytest.raises(ServiceError, match="cap 4096.*--limit"):
            client.q()
        assert sleeps == []     # answered, so not retried
        assert len(client.q(limit=5)["jobs"]) == 5
        assert len(daemon._conns) == 1
