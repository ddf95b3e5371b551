"""The live service plane under load: real processes, sockets and disk.

``repro-condor serve`` and ``repro-condor agent`` run as subprocesses on a
fresh on-disk job database (``synchronous=FULL`` is the thing measured, so
the work dir must be a real disk; the figures are a sandbox disk's, not a
device's).  Load comes from this process through ``ServiceClient``, the
client the ``submit`` and ``q`` verbs use.  Latencies are read afterwards
from the finished database's ``jobs.submitted_t|first_placed_t|
completed_t``.
"""

import json
import os
import random
import signal
import socket
import sqlite3
import statistics
import subprocess
import sys
import threading
import time

from condorbench import workloads as wl
from condorbench.reference import Pace, speed, wait_for_calm
from condorbench.stats import calmest_share, median, percentile
from condorbench.trace import JOBDB_WRITES

_READY_TIMEOUT_S = 30.0
_DRAIN_TIMEOUT_S = 120.0
_STOP_TIMEOUT_S = 10.0
#: Reference-kernel calls on each side of a set-up (≈ 130 ms).
_SETUP_BURST = 80


def _poll(predicate, timeout, period=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(period)
    return False


class Pool:
    """One coordinator daemon plus its agents, as child processes.

    A context manager: leaving it stops every child (SIGTERM, wait, then
    SIGKILL for stragglers), whatever happened inside.
    """

    def __init__(self, workdir, traced=False):
        from repro.service.client import ServiceClient
        from repro.service.harness import free_port

        self._client_cls = ServiceClient
        self.workdir = workdir
        self.env = child_env()
        self.traced = traced
        self.db_path = os.path.join(workdir, "service.sqlite")
        self.ckpt = os.path.join(workdir, "ckpt")
        self.endpoint = ("127.0.0.1", free_port())
        self.daemon = None
        self.agents = []
        self.span_files = {}
        self.clean_stop = True
        os.makedirs(self.ckpt, exist_ok=True)

    def client(self, seed=1):
        return self._client_cls([self.endpoint], seed=seed)

    def _spawn(self, name, verb_argv):
        if self.traced:
            spans = self.span_files[name] = os.path.join(
                self.workdir, f"spans-{name}.jsonl")
            argv = [sys.executable, "-m", "condorbench.traced_entry",
                    spans, *verb_argv]
        else:
            argv = [sys.executable, "-m", "repro.cli", *verb_argv]
        with open(os.path.join(self.workdir, f"{name}.err"), "wb") as err:
            return subprocess.Popen(argv, env=self.env, cwd=self.workdir,
                                    stdout=subprocess.DEVNULL, stderr=err)

    def start(self, with_agents):
        """Spawn → ready; returns the seconds it took, at reference speed.

        Ready means the daemon answers ``ping`` and, with agents, both
        appear in ``q``.  Starting interpreters is CPU work, so like the
        simulator's timings it is rescaled by the reference kernel, run
        just before and just after.
        """
        pace = Pace()
        pace.burst(_SETUP_BURST)
        started = time.monotonic()
        self.start_daemon()
        if with_agents:
            self.start_agents()
        seconds = time.monotonic() - started
        pace.burst(_SETUP_BURST)
        return seconds * speed(pace.calls, pace.seconds)

    def start_daemon(self):
        from repro.service.errors import ServiceError

        host, port = self.endpoint
        self.daemon = self._spawn("daemon", [
            "serve", "--db", self.db_path, "--host", host,
            "--port", str(port), "--poll", str(wl.SERVE_POLL)])
        probe = self._client_cls([self.endpoint], timeout=0.5, retries=1)

        def answering():
            if self.daemon.poll() is not None:
                raise RuntimeError("coordinator daemon exited at start: "
                                   + self._stderr_tail("daemon"))
            try:
                return bool(probe.ping().get("ok"))
            except ServiceError:
                return False

        if not _poll(answering, _READY_TIMEOUT_S):
            raise RuntimeError("coordinator daemon never answered ping")

    def start_agents(self, count=wl.AGENTS):
        host, port = self.endpoint
        names = [f"agent{i}" for i in range(count)]
        for i, name in enumerate(names):
            self.agents.append(self._spawn(name, [
                "agent", name, "--endpoints", f"{host}:{port}",
                "--ckpt", self.ckpt, "--heartbeat", str(wl.AGENT_HEARTBEAT),
                "--seed", str(i + 1)]))
        client = self.client()

        def registered():
            seen = {row["agent"] for row in client.q(limit=1)["agents"]}
            return seen.issuperset(names)

        if not _poll(registered, _READY_TIMEOUT_S):
            raise RuntimeError("agents never registered")

    def _stderr_tail(self, name):
        try:
            with open(os.path.join(self.workdir, f"{name}.err"), "rb") as fh:
                return fh.read()[-2000:].decode("utf-8", "replace")
        except OSError:
            return ""

    def daemon_peak_rss_mib(self):
        """The daemon's high-water RSS, read from ``/proc`` while it lives."""
        try:
            with open(f"/proc/{self.daemon.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def stop(self):
        procs = self.agents + ([self.daemon] if self.daemon else [])
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + _STOP_TIMEOUT_S
        for proc in procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                self.clean_stop = False
                proc.kill()
                proc.wait()
        self.agents = []
        self.daemon = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()
        return False


def child_env():
    """Environment of the daemon and agent processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(wl.HERE), wl.SRC])
    return env


def time_setup(workdir, name):
    """Spawn → ready → teardown once; returns the spawn → ready seconds
    (``service_backlog`` starts without agents)."""
    os.makedirs(workdir, exist_ok=True)
    with Pool(workdir) as pool:
        return pool.start(with_agents=name == "service_steady")


class _QPoller(threading.Thread):
    """The reads-beside-writes load: ``q --limit 50`` every 100 ms."""

    def __init__(self, client):
        super().__init__(name="condorbench-q", daemon=True)
        self.client = client
        self.rtts_ms = []
        self.errors = 0
        self._halt = threading.Event()

    def run(self):
        from repro.service.errors import ServiceError

        due = time.perf_counter()
        while not self._halt.is_set():
            start = time.perf_counter()
            try:
                self.client.q(limit=wl.Q_LIMIT)
                self.rtts_ms.append((time.perf_counter() - start) * 1e3)
            except ServiceError:
                self.errors += 1
            due += wl.Q_PERIOD_S
            self._halt.wait(max(0.0, due - time.perf_counter()))

    def stop(self):
        self._halt.set()
        self.join(timeout=10.0)


class _Submitter:
    """Submits jobs and keeps what the client saw of each."""

    def __init__(self, client):
        from repro.service.errors import ServiceError

        self._error = ServiceError
        self.client = client
        self.keys = []
        self.starts = []
        self.rtts_ms = []
        self.errors = 0

    def submit(self, owner):
        start = time.perf_counter()
        try:
            key = self.client.submit(wl.JOB_ENTRY, owner=owner)
        except self._error:
            self.errors += 1
            return None
        self.starts.append(start)
        self.rtts_ms.append((time.perf_counter() - start) * 1e3)
        self.keys.append(key)
        return key


def _wait_done(client, want, timeout=_DRAIN_TIMEOUT_S):
    return _poll(lambda: client.q(limit=1)["done"] >= want, timeout,
                 period=0.02)


def _steady_load(pool, seed, seconds, probe_path):
    """Open loop: seeded exponential arrivals, timed from the due time."""
    rng = random.Random(seed)
    arrivals = []
    offset = rng.expovariate(wl.STEADY_RATE_PER_S)
    while offset < seconds:
        arrivals.append((offset, f"owner{rng.randrange(wl.OWNERS)}"))
        offset += rng.expovariate(wl.STEADY_RATE_PER_S)

    warm = _Submitter(pool.client(seed=2))
    for i in range(wl.WARMUP_JOBS):
        warm.submit(f"owner{i % wl.OWNERS}")
    _wait_done(warm.client, len(warm.keys), timeout=_READY_TIMEOUT_S)
    # It picks its calm seconds afterwards, so it probes and does not wait.
    calm = wait_for_calm(probe_path, patience_s=0.0)

    poller = _QPoller(pool.client(seed=3))
    load = _Submitter(pool.client(seed=4))
    due = {}
    late_ms = []
    poller.start()
    wall0 = time.time()
    start = time.perf_counter()
    for offset, owner in arrivals:
        delay = start + offset - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        late_ms.append((time.perf_counter() - start - offset) * 1e3)
        key = load.submit(owner)
        if key is not None:
            due[key] = offset
    last_arrival_wall = time.time()
    drained = _wait_done(load.client, len(warm.keys) + len(load.keys))
    poller.stop()
    return {
        "warm": warm, "load": [load], "poller": poller, "drained": drained,
        "due": due, "late_ms": late_ms, "wall0": wall0,
        "last_arrival_wall": last_arrival_wall, "calm": calm,
        "attempted_jobs": len(arrivals) + wl.WARMUP_JOBS,
    }


def _backlog_load(pool, seed, seconds, probe_path):
    """Closed loop: 2 submitters fill an agentless queue, then 2 agents
    drain it.  One stretch of work, so it waits for calm once, before."""
    calm = wait_for_calm(probe_path)
    rng = random.Random(seed)
    total = max(wl.BACKLOG_SUBMITTERS,
                int(seconds * wl.BACKLOG_JOBS_PER_SECOND))
    shares = [total // wl.BACKLOG_SUBMITTERS] * wl.BACKLOG_SUBMITTERS
    shares[0] += total - sum(shares)
    owners = [[f"owner{rng.randrange(wl.OWNERS)}" for _ in range(share)]
              for share in shares]
    load = [_Submitter(pool.client(seed=4 + i))
            for i in range(wl.BACKLOG_SUBMITTERS)]
    threads = [
        threading.Thread(
            target=lambda s=submitter, names=names: [
                s.submit(owner) for owner in names],
            name=f"condorbench-submit{i}", daemon=True)
        for i, (submitter, names) in enumerate(zip(load, owners))]
    poller = _QPoller(pool.client(seed=3))
    poller.start()
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    fill_s = time.perf_counter() - start
    pool.start_agents()
    submitted = sum(len(s.keys) for s in load)
    drained = _wait_done(load[0].client, submitted)
    poller.stop()
    return {
        "warm": None, "load": load, "poller": poller, "drained": drained,
        "fill_s": fill_s, "calm": calm, "attempted_jobs": total,
    }


def _read_database(db_path):
    """What the finished database says about every job."""
    db = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
    try:
        meta = dict(db.execute("SELECT key, value FROM meta"))
        jobs = {
            key: {"state": state, "status": status, "submitted_t": sub,
                  "placed_t": placed, "completed_t": done,
                  "placements": placements}
            for key, state, status, sub, placed, done, placements
            in db.execute(
                "SELECT j.key, s.state, j.status, j.submitted_t, "
                "j.first_placed_t, j.completed_t, j.placements "
                "FROM jobs j JOIN service_jobs s ON s.key = j.key")}
        registered = [row[0] for row in db.execute(
            "SELECT registered_t FROM service_agents")]
    finally:
        db.close()
    return meta, jobs, registered


def _ping_floor_us(client, count=200):
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        client.ping()
        samples.append((time.perf_counter() - start) * 1e6)
    return median(samples)


def run(name, seed, seconds, workdir, traced=False):
    """One pass of a service workload; returns measurements and checks."""
    from repro.service.errors import ServiceError

    os.makedirs(workdir, exist_ok=True)
    steady = name == "service_steady"
    out = {"checks": {}, "failed": 0}
    with Pool(workdir, traced=traced) as pool:
        out["setup_s"] = pool.start(with_agents=steady)
        load = (_steady_load if steady else _backlog_load)(
            pool, seed, seconds, os.path.join(workdir, "calm.probe"))
        out["fsync_ms"], out["cpu_speed"], out["calm_wait_s"] = load["calm"]
        try:
            out["ping_rtt_us_p50"] = _ping_floor_us(pool.client())
        except ServiceError:
            out["ping_rtt_us_p50"] = 0.0
            out["failed"] += 1
        out["peak_rss_mib"] = pool.daemon_peak_rss_mib()
    out["checks"]["children_stopped_on_sigterm"] = pool.clean_stop

    meta, jobs, registered = _read_database(pool.db_path)
    t0 = float(meta["service_t0"])
    submitters = load["load"] + ([load["warm"]] if load["warm"] else [])
    keys = [key for s in submitters for key in s.keys]
    measured = [key for s in load["load"] for key in s.keys]
    poller = load["poller"]
    verb_errors = sum(s.errors for s in submitters) + poller.errors
    unfinished = sum(
        1 for key in keys
        if key not in jobs or jobs[key]["state"] != "done"
        or jobs[key]["status"] != "completed"
        or jobs[key]["placements"] != 1)
    duplicated = len(keys) - len(set(keys))
    out["checks"].update({
        "all_done_before_deadline": bool(load["drained"]),
        "no_unknown_jobs": len(jobs) == len(set(keys)),
        "no_progress_regressions":
            int(meta.get("service_progress_regressions", 0)) == 0,
        "no_stale_results":
            int(meta.get("service_stale_results_rejected", 0)) == 0,
    })
    out["attempted"] = (load["attempted_jobs"] + len(poller.rtts_ms)
                        + poller.errors + len(out["checks"]))
    out["failed"] += (unfinished + duplicated + verb_errors
                      + sum(not ok for ok in out["checks"].values()))

    done = [key for key in measured
            if key in jobs and jobs[key]["completed_t"] is not None]
    # In time order, whichever submitter sent them.
    submit_rtts = [rtt for _start, rtt in sorted(
        pair for s in load["load"] for pair in zip(s.starts, s.rtts_ms))]
    to_placed = [(jobs[k]["placed_t"] - jobs[k]["submitted_t"]) * 1e3
                 for k in done]
    to_done = [(jobs[k]["completed_t"] - jobs[k]["placed_t"]) * 1e3
               for k in done]
    last_done_wall = t0 + max(
        (jobs[k]["completed_t"] for k in done), default=0.0)
    if steady:
        due = load["due"]
        wall0 = load["wall0"]
        e2e = [(t0 + jobs[k]["completed_t"] - wall0 - due[k]) * 1e3
               for k in done]
        # Host noise comes in episodes and only adds time: the latency
        # reported is that of the run's calmest seconds, by due time.
        latency = calmest_share([due[k] for k in done], e2e,
                                wl.STEADY_WINDOW_S, wl.STEADY_CALM_SHARE)
        wall_s = last_done_wall - wall0 - min(due.values(), default=0.0)
        tail_s = last_done_wall - load["last_arrival_wall"]
        drain_per_s = len(done) / wall_s if wall_s > 0 else 0.0
        out["late_ms_p99"] = percentile(load["late_ms"], 99)
        out["limit_met"] = int(
            percentile(e2e, 95) <= wl.STEADY_LIMIT_P95_MS
            and tail_s <= wl.STEADY_LIMIT_TAIL_S)
    else:
        e2e = [(jobs[k]["completed_t"] - jobs[k]["submitted_t"]) * 1e3
               for k in done]
        # How long a job waits in a deep queue.  The submit round trip is
        # a per-layer metric: it is one or two commits, and follows the
        # disk's mood from run to run (0.45-0.75 ms an fsync on a calm
        # day) too closely to gate on.
        latency = e2e
        drain_s = last_done_wall - (t0 + max(registered, default=0.0))
        wall_s = load["fill_s"] + drain_s
        drain_per_s = len(done) / drain_s if drain_s > 0 else 0.0
        out["late_ms_p99"] = 0.0
        out["limit_met"] = 0
    fill_s = load.get("fill_s") or wall_s
    out.update({
        "wall_s": wall_s,
        "latency_ms": latency,
        # The mean: on the steady load the median sits in the trough
        # between the jobs that caught the next heartbeat and those that
        # waited one more, and jumps; in the backlog it follows the order
        # the queue drains in.  Stalls are already out of the steady pool.
        "latency_typical_ms": statistics.fmean(latency) if latency else 0.0,
        "query_ms": poller.rtts_ms,
        "jobs": len(measured),
        "submit_per_s": len(measured) / fill_s if fill_s > 0 else 0.0,
        "drain_jobs_per_s": drain_per_s,
        "submit_rtt_ms": submit_rtts,
        "submit_to_placed_ms": to_placed,
        "placed_to_done_ms": to_done,
        "submit_to_done_ms": e2e,
    })
    if traced:
        out["spans"] = {proc: _load_spans(path)
                        for proc, path in pool.span_files.items()}
    return out


def _load_spans(path):
    spans = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                spans.append(json.loads(line))
    except OSError:
        pass
    return spans


def layer_metrics(spans_by_process, jobs):
    """Per-layer service metrics from the traced processes' spans."""
    daemon = spans_by_process.get("daemon", [])
    metrics = {}

    def durations_ms(spans, layer, name):
        return [(s["end"] - s["start"]) * 1e3 for s in spans
                if s["layer"] == layer and s["name"] == name]

    jobdb = [s for s in daemon if s["layer"] == "service.jobdb"]
    for op in ("submit", "place", "running", "checkpoint", "complete",
               "queue", "inflight", "job", "counts"):
        samples = durations_ms(jobdb, "service.jobdb", op)
        metrics[f"service.jobdb.{op}_ms_p50"] = median(samples)
        metrics[f"service.jobdb.{op}_calls"] = len(samples)
    metrics["service.jobdb.queue_ms_p99"] = percentile(
        durations_ms(jobdb, "service.jobdb", "queue"), 99)
    metrics["service.jobdb.busy_s"] = sum(
        s["end"] - s["start"] for s in jobdb)
    commits = sum(1 for s in jobdb if s["name"] in JOBDB_WRITES)
    metrics["service.jobdb.commits_per_job"] = (
        commits / jobs if jobs else 0.0)
    metrics["service.daemon.place_thread_db_s"] = sum(
        s["end"] - s["start"] for s in jobdb if s["thread"] == "svc-place")
    for verb in ("submit", "heartbeat", "job_exit", "q"):
        samples = durations_ms(daemon, "service.daemon", verb)
        metrics[f"service.daemon.{verb}_op_ms_p50"] = median(samples)
        metrics[f"service.daemon.{verb}_calls"] = len(samples)
    everyone = [s for spans in spans_by_process.values() for s in spans]
    frames = [s for s in everyone if s["layer"] == "service.protocol"]
    metrics["service.protocol.frames"] = len(frames)
    metrics["service.protocol.send_us_p50"] = median(
        [(s["end"] - s["start"]) * 1e6 for s in frames
         if s["name"] == "send_frame"])
    beats = [(s["end"] - s["start"]) * 1e3 for s in everyone
             if s["layer"] == "service.agent" and s["name"] == "heartbeat"]
    metrics["service.agent.heartbeat_rtt_ms_p50"] = median(beats)
    metrics["service.agent.heartbeats"] = len(beats)
    return metrics


def codec_roundtrip_us_p50(rounds=300):
    """A typical ``submit`` and a 50-row ``q`` reply through the frame
    codec over a socketpair: the protocol's cost with nobody to wait for."""
    from repro.service import protocol

    submit = {"op": "submit", "entry": wl.JOB_ENTRY, "payload": {},
              "name": None, "owner": "owner0", "demand_seconds": 0.0}
    reply = {"ok": True, "epoch": 1, "pending": 0, "inflight": 2,
             "done": 1000, "draining": False,
             "agents": [{"agent": f"agent{i}", "job": None,
                         "beat_age": 0.004} for i in range(wl.AGENTS)],
             "jobs": [{"key": f"#{i}", "state": "done", "agent": "agent0",
                       "progress": 0, "owner": "owner0"}
                      for i in range(wl.Q_LIMIT)]}
    left, right = socket.socketpair()
    samples = []
    try:
        for _ in range(rounds):
            start = time.perf_counter()
            protocol.send_frame(left, submit)
            protocol.recv_frame(right)
            protocol.send_frame(right, reply)
            protocol.recv_frame(left)
            samples.append((time.perf_counter() - start) * 1e6)
    finally:
        left.close()
        right.close()
    return median(samples)
