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
  own — polled by every tick, and checked again *inside* every
  placement transaction, so it cannot place in the gap between two
  polls — and abdicates (stops placing, answers agents with
  ``stale_coordinator``) instead of fighting the new one.

One thread serves the coordinator, as the paper's coordinator is one
process running one loop over its stations.  A ``selectors`` loop
accepts, reads frames into per-connection buffers, hands each frame to
:meth:`CoordinatorDaemon._dispatch` — which returns a reply, or a
:class:`Hold` — writes replies, releases held ones, and runs
:meth:`CoordinatorDaemon._tick` every ``poll_interval`` or at once when
a registration or a ``vacated`` report wakes it.  Decisions are plain
functions of (message, database, now): none blocks, takes a lock or
starts a thread, so none can race another.

Placement is one function, :meth:`CoordinatorDaemon._place_cycle`.  The
tick runs it, as the polling coordinator of the paper does.  A verb
whose transition enables a placement runs it too, with that transition
inside the cycle's transaction: a ``submit`` while an agent is idle, and
a completed or failed ``job_exit`` (whose ack carries the resulting
``commands`` exactly as a heartbeat reply does — a freed slot is
refilled on the exit ack instead of a heartbeat later).  A cycle asks
the database only for what it will act on (the wanting owners, the
in-flight rows, and per owner in Up-Down order the few head rows that
fit the idle agents), so its cost does not grow with the queue behind
them, and commits everything it decided — with the verb's own move — in
one transaction.

A reply is the only way to reach an agent, so an idle agent's heartbeat
is *held*: its reply is deferred until a command is queued for that
agent or its hold — at most half the agent timeout — runs out, and a
placement reaches its agent when it commits.

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
import heapq
import itertools
import selectors
import socket
import threading
import time

from repro.core.updown import UpDownPolicy, grant_order
from repro.service import jobdb as db_states
from repro.service import protocol
from repro.service.errors import (
    ProtocolError,
    ServiceError,
    StaleEpochError,
    join_thread,
)
from repro.service.jobdb import JobDatabase

#: Bytes asked of a readable socket at once.
_READ_CHUNK = 65536


def _field(msg, name, kind, default=None):
    """``msg[name]`` as ``kind``, or ``default`` when absent.

    A value of the wrong type raises a :class:`ServiceError` naming the
    field, which the loop turns into an error reply — the connection
    survives a malformed request.
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


def _print_exc():
    import traceback

    traceback.print_exc()


class _AgentState:
    """In-memory cache of one registered agent (rebuildable)."""

    def __init__(self, name, now):
        self.name = name
        self.last_beat = now
        self.job = None             # key the daemon believes it hosts
        self.incarnation = None     # ...and which placement of it
        self.commands = []          # queued for the agent's next reply
        self.hold = None            # its held heartbeat, if any
        self.owner_active = False   # per its last frame; place nothing then


class Hold:
    """A deferred reply: an idle agent's heartbeat, answered when a
    command is queued for the agent, at ``deadline`` (``time.monotonic``
    seconds, whatever ``clock=`` says), when the agent re-registers or
    expires, or at ``stop()``.  The release counts as a beat."""

    __slots__ = ("state", "deadline", "conn")

    def __init__(self, state, deadline):
        self.state = state
        self.deadline = deadline
        self.conn = None


class _Conn:
    """One open connection: its socket, the bytes read but not yet
    served, the reply bytes the kernel has not yet taken, and the beat
    held on it."""

    __slots__ = ("sock", "frames", "out", "hold", "events")

    def __init__(self, sock):
        self.sock = sock
        self.frames = protocol.FrameDecoder()
        self.out = bytearray()
        self.hold = None
        self.events = selectors.EVENT_READ

    def sendall(self, data):
        """What :func:`protocol.send_frame` writes through: as much as
        the kernel takes now; the rest waits for ``EVENT_WRITE``."""
        if not self.out:
            try:
                data = data[self.sock.send(data):]
            except BlockingIOError:
                pass
        self.out += data


class CoordinatorDaemon:
    """The central coordinator: one loop serving TCP and placing jobs."""

    #: Seconds :meth:`stop` waits for the loop thread.
    stop_timeout = 5.0

    def __init__(self, db_path, host="127.0.0.1", port=0,
                 poll_interval=0.05, agent_timeout=1.0,
                 reconcile_timeout=None, placements_per_cycle=4,
                 rpc_timeout=5.0, promotion=False,
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
        self.policy = UpDownPolicy()
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
        self._halt = threading.Event()
        self._woken = False         # tick at once, not at the next poll
        self._next_tick = 0.0
        self._ready = []            # holds with a reason to be released
        self._deadlines = []        # heap of (deadline, seq, hold)
        self._seq = itertools.count()
        self._writing = {}          # conn -> when its write last progressed
        self._selector = None
        self._listener = None
        self._waker = None          # (loop's end, stop()'s end)
        self._thread = None
        self._conns = set()

    # ------------------------------------------------------------------
    # lifecycle

    def start(self):
        """Recover from the job database and begin serving."""
        if self.db is not None:
            return
        self._recover()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.host, self.port))
        self._listener.listen(64)
        self._listener.setblocking(False)
        self.endpoint = (self.host, self._listener.getsockname()[1])
        self._waker = socket.socketpair()
        for sock in self._waker:
            sock.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ,
                                self._accept)
        self._selector.register(self._waker[0], selectors.EVENT_READ,
                                self._drain_waker)
        self._thread = threading.Thread(target=self._run, name="svc-loop",
                                        daemon=True)
        self._thread.start()
        return self.endpoint

    def _recover(self):
        """Claim the database and rebuild the volatile picture from the
        durable one (``start()`` without the serving)."""
        self.db = JobDatabase(self.db_path)
        self.epoch = self.db.bump_epoch(promotion=self.promotion)
        saved = self.db.load_owner_indices()
        for owner in sorted(saved):
            self.policy.restore_index(owner, saved[owner])
            self._owners.append(owner)
        deadline = self.clock() + self.reconcile_timeout
        for key, _agent, _inc, _epoch, _prog, _owner in self.db.inflight():
            self._reconcile[key] = deadline

    def stop(self):
        """Stop the loop, then close the database.  A loop that outlives
        ``stop_timeout`` raises :class:`ServiceError` and leaves open the
        database it still uses; a later ``stop()`` joins it again."""
        self._halt.set()
        if self._thread is not None:
            try:
                self._waker[1].send(b"\0")
            except OSError:
                pass
            join_thread(self._thread, self.stop_timeout)
            self._thread = None
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
    # the loop

    def _run(self):
        try:
            while not self._halt.is_set():
                now = time.monotonic()
                for key, events in self._selector.select(
                        self._timeout(now)):
                    if isinstance(key.data, _Conn):
                        self._on_event(key.data, events)
                    else:
                        key.data()
                now = time.monotonic()
                if self._woken or now >= self._next_tick:
                    self._woken = False
                    self._next_tick = now + self.poll_interval
                    self._tick()
                self._release_due(now)
                for conn, since in list(self._writing.items()):
                    # A peer that stopped reading: hung up on, as a
                    # blocking write would have timed out.
                    if now - since > self.rpc_timeout:
                        self._close(conn)
        finally:
            # Refuse new connections first: one accepted now would only
            # be hung up on.
            self._selector.unregister(self._listener)
            self._listener.close()
            for conn in list(self._conns):
                if conn.hold is not None:
                    self._release(conn.hold)
            for conn in list(self._conns):
                self._close(conn)
            self._selector.close()
            for sock in self._waker:
                sock.close()

    def _timeout(self, now):
        """Seconds ``select`` may sleep: until the next tick, hold
        deadline or write timeout, whichever is first."""
        if self._woken:
            return 0.0
        due = self._next_tick
        if self._deadlines:
            due = min(due, self._deadlines[0][0])
        if self._writing:
            due = min(due, min(self._writing.values()) + self.rpc_timeout)
        return max(0.0, due - now)

    def _drain_waker(self):
        try:
            self._waker[0].recv(_READ_CHUNK)
        except OSError:
            pass

    def _accept(self):
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:     # BlockingIOError: none left to accept
                return
            sock.setblocking(False)
            conn = _Conn(sock)
            self._conns.add(conn)
            self._selector.register(sock, conn.events, conn)

    def _on_event(self, conn, events):
        if events & selectors.EVENT_WRITE:
            self._flush(conn)
        elif events & selectors.EVENT_READ:
            try:
                data = conn.sock.recv(_READ_CHUNK)
            except BlockingIOError:
                return
            except OSError:
                data = b""
            # Nothing is served while a beat is held: a peer that sends
            # more than a frame meanwhile is not an agent.
            if not data or (conn.hold is not None
                            and len(conn.frames) > protocol.MAX_FRAME):
                self._close(conn)
                return
            conn.frames.feed(data)
            self._serve(conn)

    def _serve(self, conn):
        """Answer the frames ``conn`` has buffered, in order, until one
        is held or a reply waits for the kernel (no more is read from a
        peer that is not reading its replies)."""
        while conn.hold is None and not conn.out and conn in self._conns:
            try:
                msg = conn.frames.next_frame()
            except ProtocolError:
                self._close(conn)      # the stream cannot be resynchronized
                return
            if msg is None:
                break
            try:
                reply = self._dispatch(msg)
            except ServiceError as exc:
                reply = {"ok": False, "error": str(exc)}
            except Exception:
                _print_exc()
                self._close(conn)
                return
            if isinstance(reply, Hold):
                self._hold(conn, reply)
            else:
                self._reply(conn, reply, msg.get("agent"))
        self._interest(conn)

    def _reply(self, conn, reply, agent):
        """Write one reply through :func:`protocol.send_frame`.  One over
        the frame cap becomes an error reply; one that cannot be written
        closes the connection.  Either way a reply that never left took
        nothing: its commands go back to the agent's queue."""
        try:
            protocol.send_frame(conn, reply)
        except ProtocolError as exc:
            self._untake_commands(agent, reply.get("commands"))
            self._reply(conn, {"ok": False, "error": (
                f"reply too large ({exc}); ask for less, e.g. q --limit")},
                agent)
        except OSError:
            self._untake_commands(agent, reply.get("commands"))
            self._close(conn)
        else:
            if conn.out:
                self._writing[conn] = time.monotonic()

    def _flush(self, conn):
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)
            return
        del conn.out[:sent]
        if conn.out:
            self._writing[conn] = time.monotonic()
        else:
            del self._writing[conn]
            self._serve(conn)

    def _interest(self, conn):
        """Read from ``conn`` unless a reply to it is waiting to be
        written; then wait for it to drain instead."""
        events = selectors.EVENT_WRITE if conn.out else selectors.EVENT_READ
        if events != conn.events and conn in self._conns:
            conn.events = events
            self._selector.modify(conn.sock, events, conn)

    def _close(self, conn):
        if conn not in self._conns:
            return
        self._conns.discard(conn)
        self._writing.pop(conn, None)
        if conn.hold is not None:
            if conn.hold.state.hold is conn.hold:
                conn.hold.state.hold = None
            conn.hold = None
        self._selector.unregister(conn.sock)
        try:
            conn.sock.close()
        except OSError:
            pass

    # -- held heartbeats -----------------------------------------------

    def _hold(self, conn, hold):
        hold.conn = conn
        conn.hold = hold.state.hold = hold
        heapq.heappush(self._deadlines,
                       (hold.deadline, next(self._seq), hold))

    def _wake_hold(self, state):
        """Release ``state``'s held beat, if any, once this event is
        handled (a command was queued for it, or it left the registry)."""
        if state.hold is not None:
            self._ready.append(state.hold)

    def _release_due(self, now):
        while self._ready:
            self._release(self._ready.pop())
        while self._deadlines and self._deadlines[0][0] <= now:
            self._release(heapq.heappop(self._deadlines)[2])

    def _release(self, hold):
        """Answer a held beat (once; a released or dropped hold is
        skipped), then serve what its connection sent meanwhile."""
        conn, state = hold.conn, hold.state
        if conn.hold is not hold:
            return
        conn.hold = None
        if state.hold is hold:
            state.hold = None
        if self._agents.get(state.name) is state:
            state.last_beat = self.clock()
            reply = {"ok": True, "epoch": self.epoch,
                     "commands": self._take_commands(state)}
        else:
            # Expired or re-registered while the beat was held.
            reply = self._stale_epoch()
        self._reply(conn, reply, state.name)
        self._serve(conn)

    # ------------------------------------------------------------------
    # dispatch

    def _dispatch(self, msg):
        """One request's reply, or a :class:`Hold` to answer it later."""
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
        # With nobody idle there is nothing to place: an exit's or a
        # registration's cycle picks the job up, and the poll backs them.
        if self._idle_agents(self.clock()):
            key = self._place_cycle(submit)
        else:
            key = submit()
        return {"ok": True, "key": key}

    def _op_q(self, msg):
        now = self.clock()
        agents = [
            {"agent": state.name, "job": state.job,
             "beat_age": round(now - state.last_beat, 3),
             "parked": state.hold is not None,
             "owner_active": state.owner_active}
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
        state = self._agents.get(hosting) if stopped and hosting else None
        if state is not None:
            # The slot stays held until the agent's exit report frees
            # it: the job runs until it reaches a checkpoint.
            self._command(state, {"cmd": "vacate", "key": key})
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
        owner_active = _field(msg, "owner_active", bool, False)
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
        # The row is truth: a job the database places here that the
        # agent neither runs nor is about to report went out in a reply
        # that never arrived (a lost reply is a lost connection, and
        # that ends here).
        for key, hosting, incarnation, *_rest in self.db.inflight():
            if hosting == agent and key not in known:
                self.db.vacate(key, reason="start_lost", agent=agent,
                               incarnation=incarnation)
                self._reconcile.pop(key, None)
        state = _AgentState(agent, now)
        state.owner_active = owner_active
        # A dropped-but-still-running zombie keeps the slot marked busy;
        # its vacated exit report (or a heartbeat expiry) frees it.
        # Placing into the slot earlier would race the zombie and bounce.
        state.job, state.incarnation = adopted or zombie or (None, None)
        old = self._agents.get(agent)
        self._agents[agent] = state
        if old is not None:
            self._wake_hold(old)    # a beat held for the old session
        self._woken = True
        return {"ok": True, "epoch": self.epoch, "drop": drop}

    def _op_heartbeat(self, agent, msg):
        park = _field(msg, "park", float, 0.0)
        now = self.clock()
        state = self._agents.get(agent)
        if state is None:
            # Expired (or unknown) between beats: force a re-register so
            # adoption logic runs before any new placement.
            return self._stale_epoch()
        owner_active = _field(msg, "owner_active", bool, False)
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
        state.last_beat = now
        state.owner_active = owner_active
        # Held until there is something to say, for at most half the
        # timeout of real time; a park of zero, below or NaN is no wait.
        hold = min(park, self.agent_timeout / 2.0)
        if not commands and not state.commands and hold > 0.0:
            return Hold(state, time.monotonic() + hold)
        return {"ok": True, "epoch": self.epoch,
                "commands": self._take_commands(state) + commands}

    def _command(self, state, command):
        """Queue ``command`` for the agent's next reply; a held beat of
        its carries it at once."""
        state.commands.append(command)
        self._wake_hold(state)

    def _take_commands(self, state):
        """Drain what is queued for an agent into the reply being built
        (heartbeat reply or exit ack: same list, same handling)."""
        commands, state.commands = state.commands, []
        return commands

    def _untake_commands(self, agent, commands):
        """A reply that was never written took nothing: its commands go
        back to the queue's front (a ``start`` only while the slot holds
        it), for expiry or the next registration to dispose of."""
        state = self._agents.get(agent) if commands else None
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
        owner_active = _field(msg, "owner_active", bool, False)
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
                if not accepted and not self._stopped_here(
                        key, agent, incarnation):
                    self.db.count_stale_result()
            state = self._exit_heard(agent, key, incarnation, owner_active)
            # Possibly a bounce off a still-busy agent: refilling the
            # slot on this ack would spin; the tick re-places and the
            # next heartbeat delivers, paced by the beat.
            self._woken = True
        else:
            # The agent is done with the job whether or not its report is
            # accepted, so the slot is free for the cycle that commits it.
            state = self._exit_heard(agent, key, incarnation, owner_active)
            accepted = self._place_cycle(transition)
        self._reconcile.pop(key, None)
        return {"ok": True, "accepted": bool(accepted),
                "commands": [] if state is None
                else self._take_commands(state)}

    def _stopped_here(self, key, agent, incarnation):
        """Whether ``rm`` stopped ``key`` while ``(agent, incarnation)``
        held it: that placement's ``vacated`` report is the agent's
        acknowledgement of the ``vacate``, not a stale result."""
        record = self.db.job(key)
        return (record is not None
                and record["state"] == db_states.STOPPED
                and (record["agent"], record["incarnation"])
                == (agent, incarnation))

    def _exit_heard(self, agent, key, incarnation, owner_active):
        """Note an exit report of ``(key, incarnation)`` and the owner
        flag it carries; returns the reporter's state, or None when it
        is not registered.

        A report is a sign of life: an agent fed job after job on its acks
        may not heartbeat for a while.  It frees the slot only if that is
        the placement the slot holds — not a newer one of the same key,
        made since the agent re-registered with this exit outstanding.
        """
        state = self._agents.get(agent)
        if state is not None:
            state.last_beat = self.clock()
            state.owner_active = owner_active
            if (state.job, state.incarnation) == (key, incarnation):
                state.job = None
        return state

    # ------------------------------------------------------------------
    # the tick

    def _tick(self):
        """What the paper's coordinator does every poll: notice a newer
        coordinator, expire silent agents and unclaimed placements, and
        run a placement cycle."""
        try:
            self._check_fencing()
            if self.deposed:
                return
            self._expire_agents()
            self._expire_reconcile()
            self._place_cycle()
        except ServiceError:
            pass
        except Exception:
            _print_exc()

    def _check_fencing(self):
        """Abdicate when the database says a newer coordinator exists."""
        if not self.deposed and self.db.epoch != self.epoch:
            self.deposed = True

    def _expire_agents(self):
        now = self.clock()
        expired = [name for name, state in sorted(self._agents.items())
                   if now - state.last_beat > self.agent_timeout]
        for name in expired:
            state = self._agents.pop(name)
            self._wake_hold(state)
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
        """The agents a placement cycle may fill, in name order: no job,
        nothing queued for them, no owner at the console, heard from
        within the timeout."""
        return [name for name, state in sorted(self._agents.items())
                if state.job is None and not state.commands
                and not state.owner_active
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
        if self.deposed:
            return transition() if transition else None
        now = self.clock()
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
        for agent, job in starts:
            state = self._agents[agent]
            self._command(state, {"cmd": "start", "job": job})
            state.job, state.incarnation = job["key"], job["incarnation"]
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
        # The owner at rank r can get at most ``slots - r`` agents, so
        # that is all of its queue the cycle looks at.
        ranked = self.policy.rank_requesters(wanting)[:slots]
        heads = {owner: self.db.queue_heads(owner, slots - rank)
                 for rank, owner in enumerate(ranked)}
        order = grant_order(ranked, slots,
                            {owner: len(heads[owner]) for owner in ranked})
        assignments = []
        specs = {}
        for agent, owner in zip(idle, order):
            key, entry, payload = heads[owner].pop(0)
            specs[key] = (entry, payload)
            assignments.append((key, agent))
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

    #: Seconds :meth:`stop` waits for the watch thread.
    stop_timeout = 5.0

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
            join_thread(self._thread, self.stop_timeout)
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
