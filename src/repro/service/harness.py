"""The live chaos harness: real processes, real ``kill -9``.

Unlike the simulated chaos suite (:mod:`repro.analysis.chaos`), these
scenarios spawn the coordinator daemon and station agents as actual
subprocesses (``python -m repro.cli serve|agent``) and inject faults
with real signals — SIGKILL for crashes, SIGSTOP/SIGCONT for
partitions — then assert the service plane's two invariants directly
against the job database:

* **zero lost jobs** — every submitted job reaches ``done`` exactly
  once, regardless of which process died when;
* **monotone checkpoint progress** — the durable progress watermark
  never moves backward (``service_progress_regressions`` stays 0), so
  a re-placed job always resumed from at least its last reported
  image.

Scenarios (``repro-condor chaos --suite service``):

``coordinator-restart``  kill -9 the coordinator mid-placement, restart
                         it on the same database, everything recovers;
``coordinator-failover`` kill -9 the primary, the warm standby promotes
                         itself with an epoch bump and finishes the work;
``idle-agent-kill``      kill -9 an idle agent whose heartbeat is parked
                         at the coordinator, then submit: what lands on
                         the dead agent is re-placed after its expiry;
``agent-kill``           kill -9 an agent mid-job; the heartbeat expiry
                         vacates its job to the queue head and another
                         agent resumes from the last checkpoint;
``agent-partition``      SIGSTOP an agent past the heartbeat timeout,
                         SIGCONT it after its job was re-placed; the
                         zombie's reports are fenced off as stale;
``smoke-50``             the CI scenario: 50 jobs, a seeded mid-stream
                         kill -9 + failover, drain, database left on
                         disk for ``repro-condor query`` verification.
"""

import os
import random
import signal
import socket
import subprocess
import sys
import tempfile
import time

from repro.service.client import ServiceClient
from repro.service.errors import ServiceError
from repro.service.jobdb import JobDatabase

#: Entry point every scenario submits (resumable counter job).
COUNT_ENTRY = "repro.service.samples:count_steps"

_SCENARIOS = {}


def _scenario(fn):
    _SCENARIOS[fn.__name__.replace("_", "-").lstrip("-")] = fn
    return fn


def free_port():
    """An ephemeral port that was free a moment ago."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Proc:
    """One managed subprocess with a log file and real-signal controls."""

    def __init__(self, argv, log_path):
        self.argv = argv
        self.log = open(log_path, "ab")
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.popen = subprocess.Popen(
            argv, stdout=self.log, stderr=subprocess.STDOUT, env=env)

    @property
    def alive(self):
        return self.popen.poll() is None

    def kill9(self):
        """The real thing: SIGKILL, no cleanup handlers run."""
        if self.alive:
            self.popen.send_signal(signal.SIGKILL)
        self.popen.wait(timeout=10)

    def pause(self):
        self.popen.send_signal(signal.SIGSTOP)

    def resume(self):
        self.popen.send_signal(signal.SIGCONT)

    def terminate(self):
        if self.alive:
            self.popen.terminate()
            try:
                self.popen.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.kill9()
        self.log.close()


class ServiceFixture:
    """One scenario's process tree + client + database handle."""

    def __init__(self, workdir, agents=2, agent_timeout=0.6,
                 heartbeat=0.05, standby=False):
        self.workdir = workdir
        self.db_path = os.path.join(workdir, "service.sqlite")
        self.ckpt_root = os.path.join(workdir, "ckpt")
        self.agent_timeout = agent_timeout
        self.heartbeat = heartbeat
        self.primary_port = free_port()
        self.standby_port = free_port() if standby else None
        self.procs = []
        self.coordinator = None
        self.standby = None
        self.agents = {}
        endpoints = [("127.0.0.1", self.primary_port)]
        if standby:
            endpoints.append(("127.0.0.1", self.standby_port))
        self.endpoints = endpoints
        self.endpoint_arg = ",".join(f"{h}:{p}" for h, p in endpoints)
        self.client = ServiceClient(endpoints, retries=40,
                                    retry_cap=0.25)
        self.coordinator = self.spawn_coordinator(self.primary_port)
        if standby:
            self.standby = self.spawn_standby()
        for i in range(agents):
            self.spawn_agent(f"station-{i:02d}")
        self.db = JobDatabase(self.db_path)

    def _spawn(self, tag, argv):
        proc = Proc(
            [sys.executable, "-m", "repro.cli"] + argv,
            os.path.join(self.workdir, f"{tag}.log"))
        self.procs.append(proc)
        return proc

    def spawn_coordinator(self, port):
        return self._spawn(f"coordinator-{port}", [
            "serve", "--db", self.db_path,
            "--port", str(port),
            "--agent-timeout", str(self.agent_timeout),
            "--poll", "0.02",
        ])

    def spawn_standby(self):
        return self._spawn("standby", [
            "serve", "--db", self.db_path,
            "--port", str(self.standby_port),
            "--standby-for", f"127.0.0.1:{self.primary_port}",
            "--agent-timeout", str(self.agent_timeout),
            "--standby-check", "0.1", "--standby-misses", "3",
            "--poll", "0.02",
        ])

    def spawn_agent(self, name):
        proc = self._spawn(f"agent-{name}", [
            "agent", name,
            "--endpoints", self.endpoint_arg,
            "--ckpt", self.ckpt_root,
            "--heartbeat", str(self.heartbeat),
        ])
        self.agents[name] = proc
        return proc

    def submit_batch(self, count, steps=40, step_sleep=0.005,
                     checkpoint_every=4, owners=("ann", "bob")):
        keys = []
        for i in range(count):
            keys.append(self.client.submit(
                COUNT_ENTRY,
                payload={"steps": steps, "step_sleep": step_sleep,
                         "checkpoint_every": checkpoint_every},
                owner=owners[i % len(owners)], name=f"chaos-{i}"))
        return keys

    def wait(self, predicate, timeout=20.0, poll=0.02, what="condition"):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            value = predicate()
            if value:
                return value
            time.sleep(poll)
        raise ServiceError(f"timed out after {timeout}s waiting for {what}")

    def counters(self):
        return {
            "regressions": self.db.counter("service_progress_regressions"),
            "stale_results": self.db.counter(
                "service_stale_results_rejected"),
            "stale_epochs": self.db.counter(
                "service_stale_epoch_rejections"),
            "agent_expiries": self.db.counter("service_agent_expiries"),
            "promotions": self.db.counter("service_promotions"),
        }

    def assert_all_done(self, expected, timeout=30.0):
        """The zero-lost-jobs + monotone-progress gate."""

        def settled():
            counts = self.db.counts()
            return (counts.get("done", 0) >= expected
                    and counts.get("pending", 0) == 0)

        self.wait(settled, timeout=timeout,
                  what=f"{expected} jobs done ({self.db.counts()})")
        counts = self.db.counts()
        if counts.get("done", 0) != expected:
            raise ServiceError(
                f"expected exactly {expected} done, got {counts}")
        stray = {state: n for state, n in sorted(counts.items())
                 if state not in ("done", "pending") and n}
        if stray:
            raise ServiceError(f"jobs lost in non-terminal states: {stray}")
        regressions = self.db.counter("service_progress_regressions")
        if regressions:
            raise ServiceError(
                f"checkpoint progress moved backward {regressions}x")

    def close(self):
        for proc in self.procs:
            try:
                proc.resume()     # a paused process ignores SIGTERM
            except (OSError, ProcessLookupError):
                pass
            try:
                proc.terminate()
            except (OSError, ProcessLookupError):
                pass
        self.client.close()
        self.db.close()


# ----------------------------------------------------------------------
# scenarios


@_scenario
def coordinator_restart(fixture, rng):
    """kill -9 the only coordinator mid-placement; restart; recover
    (idle agents learn of it from EOF on their parked beat's socket)."""
    jobs = 8
    fixture.submit_batch(jobs)
    fixture.wait(
        lambda: fixture.db.counts().get("pending", 0) < jobs
        and fixture.db.counts().get("done", 0) < jobs,
        what="placements in flight")
    epoch_before = fixture.db.epoch
    fixture.coordinator.kill9()
    fixture.coordinator = fixture.spawn_coordinator(fixture.primary_port)
    fixture.assert_all_done(jobs)
    if fixture.db.epoch <= epoch_before:
        raise ServiceError("restart did not bump the coordinator epoch")
    return {"jobs": jobs, "kills": 1}


@_scenario
def coordinator_failover(fixture, rng):
    """kill -9 the primary; the warm standby promotes and finishes
    (parked agents see EOF, not a failed beat, and walk the endpoints)."""
    jobs = 8
    fixture.submit_batch(jobs)
    fixture.wait(
        lambda: fixture.db.counts().get("pending", 0) < jobs
        and fixture.db.counts().get("done", 0) < jobs,
        what="placements in flight")
    fixture.coordinator.kill9()
    fixture.assert_all_done(jobs)
    if fixture.db.counter("service_promotions") < 1:
        raise ServiceError("standby never recorded a promotion")
    return {"jobs": jobs, "kills": 1}


@_scenario
def agent_kill(fixture, rng):
    """kill -9 an agent mid-job; its work resumes elsewhere."""
    jobs = 6

    def victim_with_progress():
        for key, agent, _inc, _epoch, progress, _o in fixture.db.inflight():
            if agent in fixture.agents and progress > 0:
                return key, agent, progress
        return None

    fixture.submit_batch(jobs, steps=80, step_sleep=0.01)
    key, victim, progress = fixture.wait(
        victim_with_progress, what="an agent with checkpointed progress")
    fixture.agents.pop(victim).kill9()
    fixture.assert_all_done(jobs)
    if fixture.db.counter("service_agent_expiries") < 1:
        raise ServiceError("coordinator never expired the dead agent")
    record = fixture.db.job(key)
    if record["progress"] < progress:
        raise ServiceError(
            f"{key} finished below its pre-kill watermark "
            f"({record['progress']} < {progress})")
    if record["incarnation"] < 2:
        raise ServiceError(f"{key} was never re-placed: {record}")
    return {"jobs": jobs, "kills": 1}


@_scenario
def idle_agent_kill(fixture, rng):
    """kill -9 an agent parked at the coordinator, then submit."""
    jobs = 6
    victim = sorted(fixture.agents)[0]
    fixture.wait(
        lambda: [a["parked"] for a in fixture.client.q(limit=1)["agents"]]
        == [True] * len(fixture.agents), what="every agent parked")
    fixture.agents.pop(victim).kill9()
    fixture.submit_batch(jobs, steps=10)
    stranded = set()    # a row on the dead agent outlives many polls

    def expired():
        stranded.update(row[0] for row in fixture.db.inflight()
                        if row[1] == victim)
        return fixture.db.counter("service_agent_expiries") >= 1

    fixture.wait(expired, what="the dead agent to expire")
    fixture.assert_all_done(jobs)
    if not stranded or any(fixture.db.job(key)["incarnation"] < 2
                           for key in sorted(stranded)):
        raise ServiceError("placed on the dead agent and not all "
                           f"re-placed: {sorted(stranded)}")
    return {"jobs": jobs, "kills": 1}


@_scenario
def agent_partition(fixture, rng):
    """SIGSTOP an agent past the heartbeat timeout; fence its zombie."""
    jobs = 4

    def victim_hosting():
        for key, agent, _inc, _epoch, progress, _o in fixture.db.inflight():
            if agent in fixture.agents and progress > 0:
                return key, agent
        return None

    fixture.submit_batch(jobs, steps=120, step_sleep=0.01)
    key, victim = fixture.wait(victim_hosting,
                               what="an agent hosting a job")
    fixture.agents[victim].pause()
    # Wait until the partition is detected and the job re-placed...
    fixture.wait(
        lambda: (fixture.db.job(key)["agent"] != victim
                 or fixture.db.job(key)["state"] == "done"),
        what="the partitioned agent's job to move")
    # ...then heal the partition: the zombie incarnation wakes up,
    # learns it is stale, and must not corrupt anything.
    fixture.agents[victim].resume()
    fixture.assert_all_done(jobs)
    fixture.wait(
        lambda: (fixture.db.counter("service_stale_results_rejected")
                 + fixture.db.counter("service_stale_epoch_rejections")) > 0,
        what="the zombie's reports to be fenced off")
    return {"jobs": jobs, "kills": 0}


@_scenario
def smoke_50(fixture, rng):
    """The CI gate: 50 jobs, seeded mid-stream kill -9, failover, drain."""
    jobs = 50
    kill_after = rng.randint(5, 20)     # seeded kill point
    fixture.submit_batch(jobs, steps=20, step_sleep=0.002,
                         checkpoint_every=4,
                         owners=("ann", "bob", "carol"))
    fixture.wait(
        lambda: fixture.db.counts().get("done", 0) >= kill_after,
        timeout=60.0, what=f"{kill_after} completions before the kill")
    fixture.coordinator.kill9()
    fixture.assert_all_done(jobs, timeout=90.0)
    fixture.client.drain()
    snapshot = fixture.client.q()
    if snapshot["done"] != jobs or not snapshot["draining"]:
        raise ServiceError(f"bad post-drain snapshot: {snapshot}")
    return {"jobs": jobs, "kills": 1, "kill_after": kill_after}


#: Scenario -> fixture settings (all scenarios except restart use a
#: warm standby; restart proves the cold path).
_FIXTURES = {
    "coordinator-restart": {"agents": 2, "standby": False},
    "coordinator-failover": {"agents": 2, "standby": True},
    "agent-kill": {"agents": 2, "standby": False},
    "idle-agent-kill": {"agents": 2, "standby": False},
    "agent-partition": {"agents": 2, "standby": False},
    "smoke-50": {"agents": 3, "standby": True},
}

SERVICE_SUITE = ("coordinator-restart", "coordinator-failover",
                 "agent-kill", "idle-agent-kill", "agent-partition")


def run_scenario(name, seed=7, workdir=None):
    """Run one scenario; returns its stats dict (raises on violation)."""
    if name not in _SCENARIOS:
        known = ", ".join(sorted(_SCENARIOS))
        raise ServiceError(f"unknown service scenario {name!r} "
                           f"(known: {known})")
    own_tmp = None
    if workdir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix=f"svc-{name}-")
        workdir = own_tmp.name
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(seed)
    fixture = ServiceFixture(workdir, **_FIXTURES[name])
    start = time.monotonic()
    try:
        stats = _SCENARIOS[name](fixture, rng)
        stats.update(fixture.counters())
        stats["elapsed"] = time.monotonic() - start
        return stats
    finally:
        fixture.close()
        if own_tmp is not None:
            own_tmp.cleanup()


def run_service_suite(args):
    """CLI entry: ``repro-condor chaos --suite service [SCENARIO...]``."""
    from repro.metrics.report import render_table

    names = list(args.schedules or SERVICE_SUITE)
    unknown = [name for name in names if name not in _SCENARIOS]
    if unknown:
        known = ", ".join(sorted(_SCENARIOS))
        print(f"unknown service scenario(s) {unknown} (known: {known})",
              file=sys.stderr)
        return 2
    start = time.time()
    rows = []
    failures = 0
    for name in names:
        workdir = (os.path.join(args.trace_dir, f"service-{name}")
                   if args.trace_dir else None)
        try:
            stats = run_scenario(name, seed=args.seed, workdir=workdir)
        except (ServiceError, OSError) as exc:
            failures += 1
            print(f"FAIL {name}: {exc}", file=sys.stderr)
            continue
        rows.append((
            name, f"{stats['jobs']}/{stats['jobs']}", stats["kills"],
            stats["agent_expiries"], stats["stale_epochs"],
            stats["stale_results"], stats["regressions"],
            f"{stats['elapsed']:.1f}s",
        ))
    print(f"# {len(names)} live scenario(s), seed {args.seed}: "
          f"{time.time() - start:.1f} s\n")
    if rows:
        print(render_table(
            ["scenario", "completed", "kill -9", "expiries",
             "stale epochs", "stale results", "regressions", "time"],
            rows,
            title="Live service chaos: zero lost jobs, "
                  "monotone checkpoint progress",
        ))
    return 1 if failures else 0
