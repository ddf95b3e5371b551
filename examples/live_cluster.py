#!/usr/bin/env python
"""The live plane: a real checkpointable job migrating between agents.

Unlike the other examples (which simulate a cluster), this one runs the
service plane in one process: a coordinator daemon and three station
agents talking over loopback sockets, with a sqlite job database and
pickle checkpoints on disk.  The agents execute a numerical job
(estimating pi by a deterministic series); partway through, the owner of
the station running it sits down.  The job runs on through a short
grace period (the paper's is 5 minutes), then checkpoints its partial
sum, and the coordinator re-places it *on another station*, where it
resumes from exactly where it left off.

Run:  python examples/live_cluster.py
"""

import contextlib
import json
import os
import sqlite3
import tempfile
import time

from repro.service.agent import StationAgent
from repro.service.client import ServiceClient
from repro.service.daemon import CoordinatorDaemon

STATIONS = ("ws-alpha", "ws-beta", "ws-gamma")
GRACE = 0.25


def pi_series(terms, checkpoint_every=50_000):
    """Leibniz series for pi/4, checkpointing every ``checkpoint_every``
    terms.

    State is ``(next_index, partial_sum)`` — everything needed to resume.
    """

    def job(ctx, state):
        i, total = state if state is not None else (0, 0.0)
        if state is not None:
            print(f"    resumed at term {i:,} (partial sum preserved)")
        while i < terms:
            total += (-1.0 if i % 2 else 1.0) / (2 * i + 1)
            i += 1
            if i % checkpoint_every == 0:
                ctx.checkpoint((i, total))
        return 4.0 * total

    return job


def wait_for(predicate, what, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.01)
    raise SystemExit(f"timed out waiting for {what}")


def main():
    t0 = time.time()

    def report(message):
        print(f"[{time.time() - t0:5.2f}s] {message}")

    with tempfile.TemporaryDirectory(prefix="condor-live-") as root:
        db_path = os.path.join(root, "condor.sqlite")
        daemon = CoordinatorDaemon(db_path, poll_interval=0.01)
        daemon.start()
        agents = {name: StationAgent(name, [daemon.endpoint],
                                     os.path.join(root, "ckpt"),
                                     heartbeat_interval=0.02,
                                     grace_period=GRACE)
                  for name in STATIONS}
        for agent in agents.values():
            agent.start()
        client = ServiceClient([daemon.endpoint])
        try:
            wait_for(lambda: len(client.q(limit=1)["agents"]) == 3,
                     "the agents to register")
            report("submitting a 3M-term pi computation from user 'ada'")
            key = client.submit(f"{__name__}:pi_series",
                                payload={"terms": 3_000_000},
                                name="pi-series", owner="ada")

            # Once it has checkpointed, its station's owner sits down.
            first = wait_for(
                lambda: (daemon.db.job(key)["progress"]
                         and daemon.db.job(key)["agent"]),
                "the first checkpoint")
            report(f"owner returns to {first} -> the job runs on through "
                   f"a {GRACE}s grace, then vacates at its next checkpoint")
            agents[first].owner_arrived()
            wait_for(lambda: daemon.db.job(key)["state"] == "done",
                     "the job to finish")
            agents[first].owner_departed()
        finally:
            client.close()
            for agent in agents.values():
                agent.stop()
            daemon.stop()
        # The job database is the ops plane's too: read its ledger.
        with contextlib.closing(sqlite3.connect(db_path)) as db:
            last, placements, vacates, checkpoints = db.execute(
                "SELECT last_host, placements, vacates, "
                "periodic_checkpoints FROM jobs WHERE key = ?",
                (key,)).fetchone()
            (result,) = db.execute(
                "SELECT result FROM service_jobs WHERE key = ?",
                (key,)).fetchone()

    result = json.loads(result)
    report(f"pi-series finished: result = {result:.10f}")
    report(f"placements: {first} -> {last} ({placements} in all)")
    report(f"checkpoints reported: {checkpoints}, migrations: {vacates}")
    assert last != first        # never re-placed under its owner
    assert abs(result - 3.14159265) < 1e-5
    print("\nThe job changed machines mid-computation and lost at most "
          "50k terms of work —")
    print("the paper's checkpointing guarantee, with pickle standing in "
          "for 4.3BSD core images.")


if __name__ == "__main__":
    main()
