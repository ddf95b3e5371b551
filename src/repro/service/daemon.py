"""The socket-served coordinator daemon and its warm standby.

``repro-condor serve`` runs one of these.  The daemon is deliberately
amnesiac: every lifecycle transition goes through the
:class:`~repro.service.jobdb.JobDatabase` *before* it is acted on, so
the in-memory picture (agent registry, pending command queues) is a pure
cache that a ``kill -9`` discards harmlessly — the next coordinator
rebuilds from the database and re-places whatever the dead one had in
flight.

Epoch fencing (PR 4/7's placement-lease machinery on real sockets):

* a starting or promoted coordinator bumps ``meta.service_epoch`` in
  one transaction — that *is* the takeover;
* agents adopt the epoch at registration and stamp it on every
  heartbeat and exit report; a mismatch is rejected with
  ``stale_epoch`` and the agent re-registers;
* a deposed coordinator notices the database epoch has moved past its
  own — polled by the place thread, and checked again *inside* every
  placement transaction, so it cannot place in the gap between two
  polls — and abdicates (stops placing, answers agents with
  ``stale_coordinator``) instead of fighting the new one.

Placement is one function, :meth:`CoordinatorDaemon._place_cycle`, under
one lock.  The place thread runs it on every wake, as the polling
coordinator of the paper does.  A verb whose transition enables a
placement runs it too, with that transition inside the cycle's
transaction: a ``submit`` while an agent is idle, and a completed or
failed ``job_exit`` (whose ack carries the resulting ``commands``
exactly as a heartbeat reply does — a freed slot is refilled on the
exit ack instead of a heartbeat later).  A cycle asks the database only
for what it will act on (the wanting owners, the in-flight rows, and
per owner in Up-Down order the few head rows that fit the idle agents),
so its cost does not grow with the queue behind them, and commits
everything it decided — with the verb's own move — in one transaction.

Lock order: ``_place_lock`` → ``_lock`` → the database's lock.  Nothing
takes ``_lock`` inside a database transaction: a cycle reads the idle
agents before its transaction and queues its commands after the commit.

A reply is the only way to reach an agent, so an idle agent's heartbeat
is *parked*: held (:meth:`CoordinatorDaemon._park`) until a command is
queued for that agent or its hold — at most half the agent timeout —
runs out, and a placement reaches its agent when it commits.

Recovery sequence on start: bump epoch → read queue + in-flight rows →
give each in-flight job a reconcile window.  Agents that re-register
reporting the matching ``(job, incarnation)`` keep their work (adopted
in place); a row placed on a registering agent that it neither runs nor
is about to report (its ``start`` was lost with a connection) is vacated
there and then; anything unclaimed when the window closes is vacated to
the queue *head* and re-placed, resuming from its last fenced checkpoint
image.
"""

import functools
import socket
import threading
import time

from repro.core.updown import UpDownPolicy
from repro.service import jobdb as db_states
from repro.service import protocol
from repro.service.errors import ProtocolError, ServiceError, StaleEpochError
from repro.service.jobdb import JobDatabase


def _field(msg, name, kind, default=None):
    """``msg[name]`` as ``kind``, or ``default`` when absent.

    A value of the wrong type raises a :class:`ServiceError` naming the
    field, which the serve loop turns into an error reply — the
    connection and its thread survive a malformed request.
    """
    value = msg.get(name)
    if value is None:
        return default
    if kind in (int, float):
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    elif isinstance(value, kind):
        return value
    raise ServiceError(
        f"bad field {name!r}: expected {kind.__name__}, got {value!r}")


def _running_reports(msg):
    """An agent message's ``running`` list as
    ``[(key, incarnation, progress), ...]``."""
    reports = []
    for report in _field(msg, "running", list, ()):
        key = _field(report, "key", str) if isinstance(report, dict) else None
        if not key:
            raise ServiceError(
                "bad field 'running': expected a list of "
                "{key, incarnation, progress} objects")
        reports.append((key, report.get("incarnation"),
                        _field(report, "progress", int, 0)))
    return reports


class _AgentState:
    """In-memory cache of one registered agent (rebuildable)."""

    def __init__(self, name, now, lock):
        self.name = name
        self.last_beat = now
        self.job = None             # key the daemon believes it hosts
        self.incarnation = None     # ...and which placement of it
        self.commands = []          # queued for the agent's next reply
        self.parked = False         # a heartbeat is held, awaiting commands
        self.wake = threading.Condition(lock)   # notified where they queue
        self.lost = {}              # key -> incarnation it disowned


class CoordinatorDaemon:
    """The central coordinator: TCP server + placement loop."""

    def __init__(self, db_path, host="127.0.0.1", port=0,
                 poll_interval=0.05, agent_timeout=1.0,
                 reconcile_timeout=None, placements_per_cycle=4,
                 rpc_timeout=5.0, policy=None, promotion=False,
                 clock=time.monotonic):
        self.db_path = str(db_path)
        self.host = host
        self.port = port
        self.poll_interval = poll_interval
        self.agent_timeout = agent_timeout
        self.reconcile_timeout = (2.0 * agent_timeout
                                  if reconcile_timeout is None
                                  else reconcile_timeout)
        self.placements_per_cycle = placements_per_cycle
        self.rpc_timeout = rpc_timeout
        self.policy = policy or UpDownPolicy()
        self.promotion = promotion
        self.clock = clock
        self.db = None
        self.epoch = None
        self.endpoint = None
        self.deposed = False
        self._draining = False
        self._agents = {}
        self._reconcile = {}        # key -> adoption deadline
        self._owners = []           # registration order for the policy
        self._last_update = None
        self._lock = threading.RLock()
        #: Serialises placement cycles and agent expiry across the place
        #: thread and the serving threads.
        self._place_lock = threading.Lock()
        self._halt = threading.Event()
        self._wake = threading.Event()
        self._listener = None
        self._threads = []
        self._conns = set()

    # ------------------------------------------------------------------
    # lifecycle

    def start(self):
        """Recover from the job database and begin serving."""
        if self.db is not None:
            return
        self.db = JobDatabase(self.db_path)
        self.epoch = self.db.bump_epoch(promotion=self.promotion)
        self._recover()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.host, self.port))
        self._listener.listen(64)
        self._listener.settimeout(0.2)
        self.endpoint = (self.host, self._listener.getsockname()[1])
        for target, name in ((self._accept_loop, "svc-accept"),
                             (self._place_loop, "svc-place")):
            thread = threading.Thread(target=target, name=name,
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        return self.endpoint

    def _recover(self):
        """Rebuild the volatile picture from the durable one."""
        saved = self.db.load_owner_indices()
        for owner in sorted(saved):
            self.policy.restore_index(owner, saved[owner])
            self._owners.append(owner)
        deadline = self.clock() + self.reconcile_timeout
        for key, _agent, _inc, _epoch, _prog, _owner in self.db.inflight():
            self._reconcile[key] = deadline

    def stop(self):
        self._halt.set()
        self._wake.set()
        if self._listener is not None:
            self._listener.close()
        with self._lock:
            conns = list(self._conns)
            for state in self._agents.values():
                state.wake.notify_all()
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads = []
        if self.db is not None:
            self.db.close()
            self.db = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()
        return False

    def serve_forever(self):
        """``start()`` then block until stopped (the CLI's serve verb)."""
        self.start()
        try:
            while not self._halt.wait(0.5):
                pass
        finally:
            self.stop()

    # ------------------------------------------------------------------
    # server plumbing

    def _accept_loop(self):
        while not self._halt.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.settimeout(self.rpc_timeout)
            with self._lock:
                self._conns.add(conn)
            thread = threading.Thread(target=self._serve_conn,
                                      args=(conn,), daemon=True)
            thread.start()

    def _serve_conn(self, conn):
        try:
            while not self._halt.is_set():
                try:
                    msg = protocol.recv_frame(conn)
                except socket.timeout:
                    continue
                if msg is None:
                    return
                try:
                    reply = self._dispatch(msg)
                except ServiceError as exc:
                    reply = {"ok": False, "error": str(exc)}
                try:
                    protocol.send_frame(conn, reply)
                except OSError:
                    if reply.get("commands"):
                        self._untake_commands(msg["agent"],
                                              reply["commands"])
                    raise
        except (OSError, ProtocolError):
            pass
        finally:
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # dispatch

    def _dispatch(self, msg):
        op = msg.get("op")
        if op == "ping":
            return {"ok": True, "epoch": self.epoch,
                    "role": "deposed" if self.deposed else "primary"}
        if op == "submit":
            return self._op_submit(msg)
        if op == "q":
            return self._op_q(msg)
        if op == "rm":
            return self._op_rm(msg)
        if op == "drain":
            self._draining = True
            return {"ok": True, **self._progress_snapshot()}
        if op in ("register", "heartbeat", "job_exit"):
            return self._agent_dispatch(op, msg)
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _progress_snapshot(self):
        counts = self.db.counts()
        return {
            "pending": counts.get("pending", 0),
            "inflight": sum(counts.get(state, 0)
                            for state in db_states.INFLIGHT_STATES),
            "done": counts.get(db_states.DONE, 0),
            "draining": self._draining,
        }

    # -- client verbs --------------------------------------------------

    def _op_submit(self, msg):
        if self.deposed:
            return {"ok": False, "error": "stale_coordinator"}
        if self._draining:
            return {"ok": False, "error": "draining"}
        entry = _field(msg, "entry", str)
        if not entry:
            return {"ok": False, "error": "submit needs an entry"}
        submit = functools.partial(
            self.db.submit, entry, payload=_field(msg, "payload", dict, {}),
            name=_field(msg, "name", str),
            owner=_field(msg, "owner", str) or "anonymous",
            demand_seconds=_field(msg, "demand_seconds", float, 0.0))
        now = self.clock()
        with self._lock:
            idle = self._idle_agents(now)
        # With nobody idle there is nothing to place: an exit's or a
        # registration's cycle picks the job up, and the poll backs them.
        key = self._place_cycle(submit) if idle else submit()
        return {"ok": True, "key": key}

    def _op_q(self, msg):
        now = self.clock()
        with self._lock:
            agents = [
                {"agent": state.name, "job": state.job,
                 "beat_age": round(now - state.last_beat, 3),
                 "parked": state.parked}
                for _name, state in sorted(self._agents.items())
            ]
        jobs = [
            {"key": key, "state": record_state, "agent": agent,
             "progress": progress, "owner": owner}
            for key, record_state, agent, progress, owner
            in self.db.job_rows(_field(msg, "limit", int))
        ]
        return {"ok": True, "epoch": self.epoch, "agents": agents,
                "jobs": jobs, **self._progress_snapshot()}

    def _op_rm(self, msg):
        key = _field(msg, "key", str)
        record = self.db.job(key) if key else None
        if record is None:
            return {"ok": False, "error": f"unknown job {key!r}"}
        hosting = record["agent"]
        stopped = self.db.stop(key)
        if stopped and hosting:
            with self._lock:
                state = self._agents.get(hosting)
                if state is not None:
                    state.commands.append({"cmd": "vacate", "key": key})
                    state.wake.notify()
                    if state.job == key:
                        state.job = None
        self._reconcile.pop(key, None)
        return {"ok": stopped, "key": key,
                **({} if stopped else {"error": "already finished"})}

    # -- agent verbs ---------------------------------------------------

    def _agent_dispatch(self, op, msg):
        agent = _field(msg, "agent", str)
        if not agent:
            return {"ok": False, "error": "missing agent name"}
        if op == "register":
            return self._op_register(agent, msg)
        epoch = _field(msg, "epoch", int, -1)
        if epoch != self.epoch or self.deposed:
            return self._stale_epoch()
        if op == "heartbeat":
            return self._op_heartbeat(agent, msg)
        return self._op_job_exit(agent, msg)

    def _stale_epoch(self):
        self.db.count_stale_epoch()
        return {"ok": False, "error": "stale_epoch", "epoch": self.epoch}

    def _op_register(self, agent, msg):
        if self.deposed:
            self.db.count_stale_epoch()
            return {"ok": False, "error": "stale_coordinator"}
        now = self.clock()
        reports = _running_reports(msg)
        exiting = _field(msg, "exiting", list, ())
        if not all(isinstance(key, str) for key in exiting):
            raise ServiceError("bad field 'exiting': expected job keys")
        known = {key for key, _inc, _progress in reports}.union(exiting)
        self.db.register_agent(agent, self.epoch)
        drop = []
        adopted = zombie = None     # (key, incarnation)
        for key, incarnation, _progress in reports:
            record = self.db.job(key)
            if (record is not None
                    and record["state"] in db_states.INFLIGHT_STATES
                    and record["agent"] == agent
                    and record["incarnation"] == incarnation):
                adopted = (key, incarnation)
                self._reconcile.pop(key, None)
            else:
                drop.append(key)
                zombie = zombie or (key, incarnation)
                if self.db.vacate(key, reason="registration_mismatch",
                                  agent=agent):
                    self._reconcile.pop(key, None)
        with self._lock:
            # The row is truth: a job the database places here that
            # the agent neither runs nor is about to report went out in
            # a reply that never arrived (a lost reply is a lost
            # connection, and that ends here).  Read under the lock: a
            # cycle committing meanwhile is seen here and finds its key
            # in ``lost``, or delivers to the new session.
            state = _AgentState(agent, now, self._lock)
            lost = state.lost = {
                key: incarnation
                for key, hosting, incarnation, *_rest in self.db.inflight()
                if hosting == agent and key not in known}
            old = self._agents.get(agent)
            self._agents[agent] = state
            # A dropped-but-still-running zombie keeps the slot marked
            # busy; its vacated exit report (or a heartbeat expiry)
            # frees it.  Placing into the slot earlier would race the
            # zombie and bounce.
            state.job, state.incarnation = adopted or zombie or (None, None)
            if old is not None:
                old.wake.notify_all()   # a beat parked by the old session
        for key, incarnation in lost.items():
            self.db.vacate(key, reason="start_lost", agent=agent,
                           incarnation=incarnation)
            self._reconcile.pop(key, None)
        self._wake.set()
        return {"ok": True, "epoch": self.epoch, "drop": drop}

    def _op_heartbeat(self, agent, msg):
        park = _field(msg, "park", float, 0.0)
        now = self.clock()
        with self._lock:
            state = self._agents.get(agent)
        if state is None:
            # Expired (or unknown) between beats: force a re-register so
            # adoption logic runs before any new placement.
            return self._stale_epoch()
        reported = {key: (incarnation, progress)
                    for key, incarnation, progress in _running_reports(msg)}
        commands = []
        for key, (incarnation, progress) in sorted(reported.items()):
            record = self.db.job(key)
            owned = (record is not None
                     and record["state"] in db_states.INFLIGHT_STATES
                     and record["agent"] == agent
                     and record["incarnation"] == incarnation)
            if not owned:
                commands.append({"cmd": "vacate", "key": key})
                continue
            if record["state"] == db_states.PLACED:
                self.db.running(key, agent, record["incarnation"])
            if progress > record["progress"]:
                self.db.checkpoint(key, agent, record["incarnation"],
                                   progress)
        with self._lock:
            state.last_beat = now
            if not commands:
                self._park(state, min(park, self.agent_timeout / 2.0))
            if self._agents.get(agent) is state:
                return {"ok": True, "epoch": self.epoch,
                        "commands": self._take_commands(state) + commands}
        # Expired or re-registered while the beat was held.
        return self._stale_epoch()

    def _park(self, state, hold):
        """Hold an idle agent's beat (``_lock`` held) until a command is
        queued for it or ``hold`` real seconds pass, whatever ``clock=``
        says: the reply is the only channel to an agent.  The release
        counts as a beat, so a parked agent never expires and a dead
        one does a timeout after its last release."""
        if hold > 0.0:      # not zero, negative or NaN
            state.parked = True
            state.wake.wait_for(
                lambda: state.commands or self._halt.is_set()
                or self._agents.get(state.name) is not state, hold)
            state.parked = False
            state.last_beat = self.clock()

    def _take_commands(self, state):
        """Drain what is queued for an agent into the reply being built
        (heartbeat reply or exit ack: same list, same handling)."""
        with self._lock:
            commands, state.commands = state.commands, []
        return commands

    def _untake_commands(self, agent, commands):
        """A reply that was never written took nothing: its commands go
        back to the queue's front (a ``start`` only while the slot holds
        it), for expiry or the next registration to dispose of."""
        with self._lock:
            state = self._agents.get(agent)
            if state is not None:
                state.commands[:0] = [
                    command for command in commands
                    if command["cmd"] != "start"
                    or command["job"]["key"] == state.job]

    def _op_job_exit(self, agent, msg):
        key = _field(msg, "key", str)
        incarnation = _field(msg, "incarnation", int, -1)
        outcome = msg.get("outcome")
        progress = _field(msg, "progress", int, 0)
        if outcome == "completed":
            transition = functools.partial(
                self.db.complete, key, agent, incarnation,
                result=msg.get("result"), progress=progress)
        elif outcome == "failed":
            transition = functools.partial(
                self.db.fail, key, agent, incarnation,
                _field(msg, "error", str) or "unknown", progress=progress)
        elif outcome == "vacated":
            transition = None
        else:
            return {"ok": False, "error": f"unknown outcome {outcome!r}"}
        if transition is None:
            with self.db.transaction():
                if progress:
                    self.db.checkpoint(key, agent, incarnation, progress)
                accepted = self.db.vacate(key, agent=agent,
                                          incarnation=incarnation)
                if not accepted:
                    self.db.count_stale_result()
            state = self._exit_heard(agent, key, incarnation)
            # Possibly a bounce off a still-busy agent: refilling the
            # slot on this ack would spin; the place thread re-places
            # and the next heartbeat delivers, paced by the beat.
            self._wake.set()
        else:
            # The agent is done with the job whether or not its report is
            # accepted, so the slot is free for the cycle that commits it.
            state = self._exit_heard(agent, key, incarnation)
            accepted = self._place_cycle(transition)
        self._reconcile.pop(key, None)
        return {"ok": True, "accepted": bool(accepted),
                "commands": [] if state is None
                else self._take_commands(state)}

    def _exit_heard(self, agent, key, incarnation):
        """Note an exit report of ``(key, incarnation)``; returns the
        reporter's state, or None when it is not registered.

        A report is a sign of life: an agent fed job after job on its acks
        may not heartbeat for a while.  It frees the slot only if that is
        the placement the slot holds — not a newer one of the same key,
        made since the agent re-registered with this exit outstanding.
        """
        with self._lock:
            state = self._agents.get(agent)
            if state is not None:
                state.last_beat = self.clock()
                if (state.job, state.incarnation) == (key, incarnation):
                    state.job = None
        return state

    # ------------------------------------------------------------------
    # the placement loop

    def _place_loop(self):
        while not self._halt.is_set():
            self._wake.wait(self.poll_interval)
            self._wake.clear()
            if self._halt.is_set():
                return
            try:
                self._check_fencing()
                if self.deposed:
                    continue
                self._expire_agents()
                self._expire_reconcile()
                self._place_cycle()
            except ServiceError:
                continue

    def _check_fencing(self):
        """Abdicate when the database says a newer coordinator exists."""
        if not self.deposed and self.db.epoch != self.epoch:
            self.deposed = True

    def _expire_agents(self):
        now = self.clock()
        # Not while a cycle is choosing among the agents: a placement
        # onto an agent expired in between would be owned by nobody.
        with self._place_lock, self._lock:
            expired = [name for name, state in sorted(self._agents.items())
                       if now - state.last_beat > self.agent_timeout]
            states = [self._agents.pop(name) for name in expired]
        for state in states:
            self.db.count_agent_expiry()
            if state.job is not None:
                # Only if the dead agent still holds the job — it may
                # already have been re-placed (the registry entry was a
                # zombie marker), and vacating someone else's placement
                # would double-queue it.
                self.db.vacate(state.job, reason="heartbeat_expired",
                               agent=state.name)

    def _expire_reconcile(self):
        now = self.clock()
        overdue = [key for key, deadline in sorted(self._reconcile.items())
                   if now >= deadline]
        for key in overdue:
            del self._reconcile[key]
            self.db.vacate(key, reason="unreconciled_after_takeover")

    def _register_owner(self, owner):
        if owner not in self._owners:
            self.policy.register_station(owner)
            self._owners.append(owner)

    def _idle_agents(self, now):
        """The agents a placement cycle may fill, in name order (``_lock``
        held): no job, nothing queued for them, heard from within the
        timeout."""
        return [name for name, state in sorted(self._agents.items())
                if state.job is None and not state.commands
                and now - state.last_beat <= self.agent_timeout]

    def _place_cycle(self, transition=None):
        """One Up-Down accounting step plus the placements it allows,
        committed with ``transition`` — the calling verb's own move,
        whose result is returned — as one transaction.

        The idle agents are read first, and the start commands are
        queued only once the transaction is durable.  Without a
        transition a cycle opens no transaction unless it places.  When
        a newer coordinator has taken over, everything rolls back, the
        daemon abdicates, and the transition commits alone.
        """
        with self._place_lock:
            if self.deposed:
                return transition() if transition else None
            now = self.clock()
            with self._lock:
                idle = self._idle_agents(now)
            try:
                if transition is None:
                    result, starts = None, self._choose(now, idle)
                else:
                    with self.db.transaction():
                        result = transition()
                        starts = self._choose(now, idle)
            except StaleEpochError:
                self.deposed = True
                return transition() if transition else None
            with self._lock:
                for agent, job in starts:
                    # Still registered: expiry waits for the place lock.
                    live = self._agents[agent]
                    if live.lost.get(job["key"]) == job["incarnation"]:
                        continue    # re-registered since: being vacated
                    live.commands.append({"cmd": "start", "job": job})
                    live.job, live.incarnation = job["key"], job["incarnation"]
                    live.wake.notify()
            return result

    def _choose(self, now, idle):
        """The cycle's database half: read the wanting owners and the
        in-flight rows (bounded by owners and agents), update Up-Down,
        then — only when an agent is idle — read each ranked owner's
        head rows, never the queue behind them, and place them with the
        indices they were chosen under.  Returns ``[(agent, job spec),
        ...]`` for the placements made."""
        dt = 0.0 if self._last_update is None else now - self._last_update
        self._last_update = now

        wanting = self.db.wanting_owners()
        holding = {}
        for _key, _agent, _inc, _epoch, _prog, owner in self.db.inflight():
            holding[owner] = holding.get(owner, 0) + 1
        for owner in wanting:
            self._register_owner(owner)
        for owner in sorted(holding):
            self._register_owner(owner)
        self.policy.update(set(wanting), holding, dt)

        slots = min(len(idle), self.placements_per_cycle)
        if not slots or not wanting:
            return []
        # Round-robin over the owners in rank order: the owner at rank r
        # can get at most ``slots - r`` agents, so that is all of its
        # queue the cycle looks at.
        ranked = self.policy.rank_requesters(wanting)[:slots]
        heads = {owner: self.db.queue_heads(owner, slots - rank)
                 for rank, owner in enumerate(ranked)}
        assignments = []
        specs = {}
        while len(assignments) < slots and any(heads.values()):
            for owner in ranked:
                if len(assignments) == slots:
                    break
                if heads[owner]:
                    key, entry, payload = heads[owner].pop(0)
                    specs[key] = (entry, payload)
                    assignments.append((key, idle[len(assignments)]))
        placed = self.db.place_batch(
            assignments, self.epoch,
            {owner: self.policy.index(owner) for owner in self._owners})
        return [(agent, {"key": key, "entry": specs[key][0],
                         "payload": specs[key][1], "name": key,
                         "incarnation": placed[key], "epoch": self.epoch})
                for key, agent in assignments if key in placed]

    def __repr__(self):
        return (f"<CoordinatorDaemon {self.endpoint} epoch={self.epoch} "
                f"deposed={self.deposed}>")


class StandbyCoordinator:
    """A warm standby: watch the primary, take over when it dies.

    Takeover = one epoch bump in the shared job database plus a
    recovery pass — the same code path as a cold restart, so failover
    and restart stay equally trusted.  Until promotion the standby's
    port is closed; agents and clients walking their endpoint lists
    simply skip it.
    """

    def __init__(self, db_path, primary, host="127.0.0.1", port=0,
                 check_interval=0.1, misses=5, **daemon_kwargs):
        self.db_path = str(db_path)
        self.primary = primary
        self.host = host
        self.port = port
        self.check_interval = check_interval
        self.misses = misses
        self.daemon_kwargs = daemon_kwargs
        self.daemon = None
        self._halt = threading.Event()
        self._thread = None

    def start(self):
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._watch,
                                        name="svc-standby", daemon=True)
        self._thread.start()

    def _watch(self):
        consecutive = 0
        while not self._halt.is_set():
            try:
                reply = protocol.request(
                    self.primary, {"op": "ping"},
                    timeout=max(0.5, self.check_interval * 2))
                alive = bool(reply.get("ok")) and reply.get(
                    "role") == "primary"
            except (OSError, ProtocolError):
                alive = False
            consecutive = 0 if alive else consecutive + 1
            if consecutive >= self.misses:
                self.promote()
                return
            self._halt.wait(self.check_interval)

    def promote(self):
        """Become the coordinator (idempotent)."""
        if self.daemon is None and not self._halt.is_set():
            self.daemon = CoordinatorDaemon(
                self.db_path, host=self.host, port=self.port,
                promotion=True, **self.daemon_kwargs)
            self.daemon.start()
        return self.daemon

    def stop(self):
        self._halt.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self.daemon is not None:
            self.daemon.stop()

    def serve_forever(self):
        self.start()
        try:
            while not self._halt.wait(0.5):
                pass
        finally:
            self.stop()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()
        return False
