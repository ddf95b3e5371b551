"""Service-plane benchmarks: submission rate, throughput, recovery.

Measures the live coordinator daemon over real localhost sockets:

* ``submit``     — sustained ``submit`` verbs/second against a
  coordinator with no agents (pure enqueue path: one fsync'd WAL
  transaction + one TCP round trip per job);
* ``end_to_end`` — jobs/second from submission to durable completion
  with three agents running instant jobs (the full placement +
  heartbeat + exactly-once completion pipeline);
* ``recovery``   — coordinator killed mid-run, restarted on the same
  database: seconds from the successor's ``start()`` until it has
  recovered the queue and placed recovered work again;
* ``failover``   — warm-standby promotion: seconds from the primary's
  death until the standby answers as the coordinator.

Latency metrics are also exported inverted (``*_per_sec``) so the
perf-smoke gate — which asserts higher-is-better throughput floors —
covers recovery time as well.  Run through ``perf_smoke.py --suite
service``; kept stdlib-only like the other benchmarks.
"""

import os
import tempfile
import time

from repro.service.harness import free_port

INSTANT = "repro.service.samples:instant"
COUNT = "repro.service.samples:count_steps"


def _wait(predicate, timeout=60.0, poll=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    raise RuntimeError("benchmark wait timed out")


def bench_submission_rate(jobs=400):
    """Sustained submissions/second into a durable (fsync) queue."""
    from repro.service.client import ServiceClient
    from repro.service.daemon import CoordinatorDaemon

    with tempfile.TemporaryDirectory() as tmp:
        db = os.path.join(tmp, "svc.sqlite")
        with CoordinatorDaemon(db, poll_interval=0.5) as daemon, \
                ServiceClient([daemon.endpoint]) as client:
            client.submit(INSTANT)           # warm the path
            t0 = time.perf_counter()
            for i in range(jobs):
                client.submit(INSTANT, owner=f"u{i % 4}")
            wall = time.perf_counter() - t0
    return {
        "jobs": jobs,
        "wall_seconds": round(wall, 4),
        "submissions_per_sec": round(jobs / wall, 1),
    }


def bench_end_to_end(jobs=80, agents=3):
    """Jobs/second submission -> placement -> durable completion."""
    from repro.service.agent import StationAgent
    from repro.service.client import ServiceClient
    from repro.service.daemon import CoordinatorDaemon

    with tempfile.TemporaryDirectory() as tmp:
        db = os.path.join(tmp, "svc.sqlite")
        with CoordinatorDaemon(db, poll_interval=0.01,
                               placements_per_cycle=8) as daemon:
            stations = [StationAgent(f"s{i}", [daemon.endpoint],
                                     os.path.join(tmp, "ckpt"),
                                     heartbeat_interval=0.01)
                        for i in range(agents)]
            for station in stations:
                station.start()
            with ServiceClient([daemon.endpoint]) as client:
                t0 = time.perf_counter()
                for i in range(jobs):
                    client.submit(INSTANT, owner=f"u{i % 4}")
            _wait(lambda: daemon.db.counts().get("done", 0) >= jobs)
            wall = time.perf_counter() - t0
            for station in stations:
                station.stop()
    return {
        "jobs": jobs,
        "agents": agents,
        "wall_seconds": round(wall, 4),
        "jobs_per_sec": round(jobs / wall, 1),
    }


def bench_recovery(jobs=12):
    """Seconds for a restarted coordinator to recover and re-place."""
    from repro.service.agent import StationAgent
    from repro.service.client import ServiceClient
    from repro.service.daemon import CoordinatorDaemon

    with tempfile.TemporaryDirectory() as tmp:
        db = os.path.join(tmp, "svc.sqlite")
        port = free_port()
        endpoint = ("127.0.0.1", port)
        first = CoordinatorDaemon(db, port=port, poll_interval=0.01)
        first.start()
        stations = [StationAgent(f"s{i}", [endpoint],
                                 os.path.join(tmp, "ckpt"),
                                 heartbeat_interval=0.02)
                    for i in range(2)]
        for station in stations:
            station.start()
        with ServiceClient([endpoint], retries=60,
                           retry_cap=0.2) as client:
            for i in range(jobs):
                client.submit(COUNT,
                              payload={"steps": 2000, "step_sleep": 0.002,
                                       "checkpoint_every": 25},
                              owner=f"u{i % 2}")
        _wait(lambda: any(progress > 0 for _k, _a, _i, _e, progress, _o
                          in first.db.inflight()))
        first.stop()

        t0 = time.perf_counter()
        second = CoordinatorDaemon(db, port=port, poll_interval=0.01)
        second.start()
        done_before = second.db.counts().get("done", 0)
        # Recovered: agents re-registered (their in-flight jobs adopted)
        # and the recovered queue is being placed/finished again.
        _wait(lambda: (len(second.db.inflight()) > 0
                       or second.db.counts().get("done", 0) > done_before))
        recovery = time.perf_counter() - t0
        for station in stations:
            station.stop()
        second.stop()
    return {
        "jobs": jobs,
        "recovery_seconds": round(recovery, 4),
        "recoveries_per_sec": round(1.0 / recovery, 2),
    }


def bench_failover(check_interval=0.05, misses=3):
    """Seconds from primary death to the standby answering as primary."""
    from repro.service import protocol
    from repro.service.daemon import CoordinatorDaemon, StandbyCoordinator

    with tempfile.TemporaryDirectory() as tmp:
        db = os.path.join(tmp, "svc.sqlite")
        standby_port = free_port()
        primary = CoordinatorDaemon(db, poll_interval=0.01)
        primary.start()
        standby = StandbyCoordinator(
            db, primary.endpoint, port=standby_port,
            check_interval=check_interval, misses=misses,
            poll_interval=0.01)
        standby.start()
        time.sleep(4 * check_interval)       # let the watch loop settle
        t0 = time.perf_counter()
        primary.stop()

        def promoted():
            try:
                reply = protocol.request(("127.0.0.1", standby_port),
                                         {"op": "ping"}, timeout=0.2)
                return reply.get("role") == "primary"
            except Exception:
                return False

        _wait(promoted, timeout=30.0)
        failover = time.perf_counter() - t0
        standby.stop()
    return {
        "check_interval": check_interval,
        "misses": misses,
        "failover_seconds": round(failover, 4),
        "failovers_per_sec": round(1.0 / failover, 2),
    }


def measure():
    return {
        "submit": bench_submission_rate(),
        "end_to_end": bench_end_to_end(),
        "recovery": bench_recovery(),
        "failover": bench_failover(),
    }

