"""The per-station agent: registers, heartbeats, runs checkpointed jobs.

One agent is the paper's per-workstation daemon pair (schedd/startd)
collapsed into a single process: it keeps a persistent socket to the
coordinator, heartbeats on a short interval, accepts at most one foreign
job, runs it under the cooperative-checkpoint contract of
:mod:`repro.service.samples`, and reports exits at-least-once (an exit
report stays in the outbox until the coordinator acknowledges it).  The
acknowledgement carries a ``commands`` list just as a heartbeat reply
does — usually the ``start`` of the job that takes the freed slot — and
both go through :meth:`StationAgent._apply_commands`, so a busy agent
moves from job to job on its acks and heartbeats only when it has
nothing to report.  An idle agent's beat carries ``park``: the
coordinator may hold the reply for that long and answers the moment it
has a command, so the interval bounds the silence between the two, not
the wait for a job.

The agent honours its station's owner through
:mod:`repro.core.owner_reaction`'s table: the owner's return arms the
grace, and a job still there when it runs out is vacated at its next
checkpoint.  Every frame carries ``owner_active``, so the coordinator
places nothing here meanwhile.

Failure discipline — :class:`~repro.net.reliable.ReliableSender` ported
to real sockets:

* reconnects walk the endpoint list (primary, standby) round-robin with
  jittered exponential backoff, so agents find a promoted standby
  without configuration changes and a thundering herd decorrelates;
* every message after registration carries the agent's adopted epoch;
  a ``stale_epoch`` rejection triggers re-registration, never a retry
  of the stale message — the fencing that makes a deposed coordinator's
  world-view harmless;
* checkpoint images are **incarnation-fenced**: incarnation *i* writes
  ``job-<n>.i<i>.ckpt`` and resume reads the highest incarnation at or
  below its own, so a zombie incarnation left behind by a partition can
  never clobber the image its successor resumes from;
* an image that will not restore is quarantined as ``<name>.corrupt``
  and the job reported ``vacated``, so its next placement resumes from
  an older image or from scratch instead of wedging this agent; images
  go once the coordinator accepts a final (completed or failed) exit.
"""

import contextlib
import os
import pickle
import random
import socket
import tempfile
import threading
import time

from repro.core.owner_reaction import RUNNING, SUSPENDED, OwnerReaction
from repro.service import protocol
from repro.service.errors import (
    CheckpointUnreadable,
    ProtocolError,
    ServiceError,
    VacateRequested,
    join_thread,
)
from repro.service.samples import resolve_entry

#: A job asked to leave: neither running nor suspended to the table.
_VACATING = "vacating"


class FencedCheckpointStore:
    """Incarnation-fenced durable pickle checkpoints on a shared directory.

    Incarnation *i* of job ``#n`` saves ``job-<n>.i<i>.ckpt``; a load
    takes the newest incarnation at or below the caller's, which is
    where a re-placed job finds its predecessor's last image.
    """

    def __init__(self, root):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.Lock()

    @staticmethod
    def _prefix(key):
        return f"job-{key.lstrip('#')}.i"

    def save(self, key, incarnation, state):
        """Atomically persist ``state`` as the incarnation's restart point.

        The tmp file is flushed and fsync'd before the rename, and the
        directory entry is fsync'd after it (POSIX), so the atomicity
        holds across power loss — not just process crash.  A write that
        fails partway (torn pickle, full disk) leaves the previous good
        checkpoint untouched.
        """
        name = f"{self._prefix(key)}{incarnation}"
        path = os.path.join(self.root, f"{name}.ckpt")
        with self._lock:
            fd, tmp = tempfile.mkstemp(dir=self.root, prefix=f"{name}.")
            try:
                with os.fdopen(fd, "wb") as f:
                    pickle.dump(state, f)
                    f.flush()
                    os.fsync(f.fileno())
                os.replace(tmp, path)
                self._fsync_dir()
            except Exception:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise

    def _fsync_dir(self):
        """Flush the directory entry so the rename itself is durable."""
        if not hasattr(os, "O_DIRECTORY"):   # non-POSIX: best effort
            return
        dfd = os.open(self.root, os.O_RDONLY | os.O_DIRECTORY)
        try:
            os.fsync(dfd)
        finally:
            os.close(dfd)

    def _images(self, key):
        """``[(incarnation, filename), ...]`` for one job, sorted."""
        prefix = self._prefix(key)
        found = []
        for fname in os.listdir(self.root):
            if not (fname.startswith(prefix) and fname.endswith(".ckpt")):
                continue
            try:
                found.append((int(fname[len(prefix):-5]), fname))
            except ValueError:
                continue
        return sorted(found)

    def load(self, key, incarnation):
        """Newest image at or below ``incarnation``, or ``None``.

        An image that does not unpickle is renamed ``<name>.corrupt`` —
        kept as evidence, skipped by every later load — and reported as
        :class:`CheckpointUnreadable`.
        """
        best = None
        for found, fname in self._images(key):
            if found <= incarnation:
                best = fname
        if best is None:
            return None
        path = os.path.join(self.root, best)
        with open(path, "rb") as f:
            try:
                return pickle.load(f)
            except Exception as exc:
                # Another agent restoring the same image may have
                # quarantined it first.
                with contextlib.suppress(FileNotFoundError):
                    os.replace(path, path + ".corrupt")
                raise CheckpointUnreadable(
                    f"{best}: {type(exc).__name__}: {exc}") from exc

    def discard(self, key):
        """Remove every incarnation's image (after an acked final exit)."""
        for _incarnation, fname in self._images(key):
            path = os.path.join(self.root, fname)
            if os.path.exists(path):
                os.unlink(path)


class _Job:
    """The job an agent hosts, and the ``ctx`` its function receives.

    The function calls :meth:`checkpoint` at safe points (see
    :mod:`repro.service.samples` for the contract).
    """

    def __init__(self, agent, key, incarnation):
        self._agent = agent
        self.key = key
        self.incarnation = incarnation
        #: The job's state as :class:`OwnerReaction` reads it; once it
        #: is ``_VACATING`` (a vacate, or the agent stopping), the next
        #: checkpoint unwinds the job.
        self.state = RUNNING
        #: Saves so far: the progress of a job whose state is no int.
        self.checkpoints = 0

    def checkpoint(self, state):
        """Durably save ``state`` as the job's restart point.

        If the hosting agent has asked the job to leave, the state is
        saved and :class:`VacateRequested` is raised — do not catch it.
        """
        self._agent._save_checkpoint(self, state)
        if self.state == _VACATING:
            raise VacateRequested(self.key)


class StationAgent:
    """One station's daemon: connect, register, heartbeat, execute.

    ``grace_period`` is the seconds a foreign job may stay after the
    station's owner returns (the paper's 5 minutes).
    """

    #: Seconds :meth:`stop` waits for the agent thread.
    stop_timeout = 5.0
    #: Reconnect backoff: seconds before the first retry, doubling per
    #: attempt up to the cap, each wait stretched by up to the jitter
    #: fraction at random.
    RECONNECT_BASE = 0.05
    RECONNECT_CAP = 2.0
    JITTER_FRAC = 0.5

    def __init__(self, name, endpoints, ckpt_root,
                 heartbeat_interval=0.1, rpc_timeout=5.0,
                 seed=1, grace_period=300.0):
        if not endpoints:
            raise ServiceError("agent needs at least one endpoint")
        self.name = name
        self.endpoints = list(endpoints)
        self.store = FencedCheckpointStore(ckpt_root)
        self.heartbeat_interval = heartbeat_interval
        self.rpc_timeout = rpc_timeout
        self._rng = random.Random(seed)
        self.reaction = OwnerReaction(grace_period, False)
        self._owner_active = False
        self._grace_until = None        # the armed grace's deadline
        self._epoch = 0
        self._lock = threading.Lock()
        self._current = None            # the hosted _Job
        self._progress = {}             # key -> watermark this agent saw
        self._outbox = []               # unacked job_exit frames
        self._halt = threading.Event()
        self._wake = threading.Event()
        self._thread = None
        #: Diagnostics: reconnects and stale-epoch re-registrations.
        self.reconnects = 0
        self.reregistrations = 0

    # ------------------------------------------------------------------
    # lifecycle

    def start(self):
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self.run,
                                        name=f"agent:{self.name}",
                                        daemon=True)
        self._thread.start()

    def stop(self):
        self._halt.set()
        self._wake.set()
        with self._lock:
            if self._current is not None:
                self._current.state = _VACATING
        if self._thread is not None:
            join_thread(self._thread, self.stop_timeout)
            self._thread = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()
        return False

    @property
    def busy(self):
        with self._lock:
            return self._current is not None

    # ------------------------------------------------------------------
    # the station's owner

    def owner_arrived(self):
        """The owner is back: the hosted job is suspended and the grace
        armed.  Safe from any thread."""
        self._owner(True)

    def owner_departed(self):
        """The owner left: a job still in its grace resumes.  Safe from
        any thread."""
        self._owner(False)

    def _owner(self, active):
        with self._lock:
            self._owner_active = active
            if self._current is not None:
                self._react(self.reaction.on_owner(
                    self._current.state, active, time.monotonic()))
        self._wake.set()

    def _grace_due(self):
        """Fire the grace timer once its deadline has passed."""
        if self._grace_until is None:
            return
        with self._lock:
            if (self._grace_until is None
                    or time.monotonic() < self._grace_until):
                return
            self._grace_until = None
            if self._current is not None:
                self._react(self.reaction.on_timer(self._current.state))

    def _react(self, actions):
        """Carry out the table's actions on the hosted job (lock held).

        A thread cannot be stopped, so ``suspend`` and ``resume`` only
        change the job's state: it runs on through the grace.
        """
        job = self._current
        for action in actions:
            kind = action[0]
            if kind == "suspend":
                job.state = SUSPENDED
            elif kind == "resume":
                job.state = RUNNING
            elif kind == "arm":
                self._grace_until = action[1]
            elif kind == "cancel":
                self._grace_until = None
            elif kind == "vacate":
                job.state = _VACATING

    # ------------------------------------------------------------------
    # connection management (ReliableSender discipline on real sockets)

    def _backoff(self, attempt):
        base = min(self.RECONNECT_CAP,
                   self.RECONNECT_BASE * 2.0 ** max(0, attempt - 1))
        return base * (1.0 + self.JITTER_FRAC * self._rng.random())

    def _connect(self):
        """Socket to the first answering endpoint; ``None`` on halt."""
        attempt = 0
        while not self._halt.is_set():
            for endpoint in self.endpoints:
                try:
                    sock = socket.create_connection(
                        endpoint, timeout=self.rpc_timeout)
                    sock.settimeout(self.rpc_timeout)
                    if attempt:
                        self.reconnects += 1
                    return sock
                except OSError:
                    continue
            attempt += 1
            if self._halt.wait(self._backoff(attempt)):
                break
        return None

    def _rpc(self, sock, msg):
        protocol.send_frame(sock, msg)
        reply = protocol.recv_frame(sock)
        if reply is None:
            raise ProtocolError("coordinator hung up")
        return reply

    def _running_report(self):
        with self._lock:
            job = self._current
            if job is None:
                return []
            progress = self._progress.get(job.key, 0)
        return [{"key": job.key, "incarnation": job.incarnation,
                 "progress": progress}]

    def _register(self, sock):
        # Running first: a job that finishes in between is listed twice,
        # never under neither (``_report_exit`` moves it atomically).
        running = self._running_report()
        with self._lock:
            exiting = [msg["key"] for msg in self._outbox]
        reply = self._rpc(sock, {
            "op": "register", "agent": self.name,
            "running": running, "exiting": exiting,
            "owner_active": self._owner_active,
        })
        if not reply.get("ok"):
            raise ProtocolError(f"registration rejected: {reply}")
        self._epoch = int(reply["epoch"])
        for key in reply.get("drop", ()):
            self._request_vacate(key)
        return reply

    # ------------------------------------------------------------------
    # the main loop

    def run(self):
        """Blocking agent loop (``start()`` runs this on a thread)."""
        while not self._halt.is_set():
            sock = self._connect()
            if sock is None:
                break
            try:
                self._register(sock)
                self._session(sock)
            except (OSError, ProtocolError):
                pass
            finally:
                sock.close()

    def _session(self, sock):
        next_beat = 0.0
        while not self._halt.is_set():
            self._grace_due()
            # An exit report wakes the loop to be flushed at once.  An
            # ack that brought the next job leaves the heartbeat to its
            # schedule; one that left the slot empty is followed by a
            # beat now, so the coordinator can reach this agent again.
            if self._flush_outbox(sock) and not self.busy:
                next_beat = 0.0
            if time.monotonic() >= next_beat:
                sent = time.monotonic()
                running = self._running_report()
                msg = {"op": "heartbeat", "agent": self.name,
                       "epoch": self._epoch, "running": running,
                       "owner_active": self._owner_active}
                with self._lock:
                    # Only with nothing to report: a held reply would
                    # keep a busy agent's exit report waiting behind it.
                    if not running and not self._outbox:
                        msg["park"] = min(self.heartbeat_interval,
                                          self.rpc_timeout / 2.0)
                reply = self._rpc(sock, msg)
                if not reply.get("ok"):
                    if reply.get("error") == "stale_epoch":
                        self.reregistrations += 1
                        self._register(sock)
                        continue
                    raise ProtocolError(f"heartbeat rejected: {reply}")
                self._apply_commands(reply)
                # From the send: a coordinator that answers at once is
                # beaten once an interval, one that parks, back to back.
                next_beat = sent + self.heartbeat_interval
            grace = self._grace_until
            wake_at = next_beat if grace is None else min(next_beat, grace)
            self._wake.wait(max(0.0, wake_at - time.monotonic()))
            self._wake.clear()

    def _flush_outbox(self, sock):
        """Send every unacked exit report; true if any was acked."""
        flushed = False
        while True:
            with self._lock:
                if not self._outbox:
                    return flushed
                msg = dict(self._outbox[0])
            msg["epoch"] = self._epoch
            msg["owner_active"] = self._owner_active
            reply = self._rpc(sock, msg)
            if not reply.get("ok"):
                if reply.get("error") == "stale_epoch":
                    self.reregistrations += 1
                    self._register(sock)
                    continue
                raise ProtocolError(f"exit report rejected: {reply}")
            with self._lock:
                self._outbox.pop(0)
            flushed = True
            # A final exit the coordinator accepted needs no image; a
            # rejected one may belong to a zombie whose successor does.
            if (msg["outcome"] in ("completed", "failed")
                    and reply.get("accepted")):
                self.store.discard(msg["key"])
            self._apply_commands(reply)

    def _apply_commands(self, reply):
        """Act on the ``commands`` of a heartbeat reply or an exit ack."""
        for command in reply.get("commands", ()):
            kind = command.get("cmd")
            if kind == "start":
                self._start_job(command["job"])
            elif kind == "vacate":
                self._request_vacate(command["key"])

    # ------------------------------------------------------------------
    # execution

    def _start_job(self, spec):
        key = spec["key"]
        try:
            fn = resolve_entry(spec["entry"], spec.get("payload") or {})
        except ServiceError as exc:
            self._report_exit(key, spec["incarnation"], "failed",
                              error=str(exc))
            return
        job = _Job(self, key, spec["incarnation"])
        with self._lock:
            refused = self._current is not None or self._owner_active
            if not refused:
                self._current = job
        if refused:
            # A placement raced a still-running (likely zombie) job or
            # the owner's return.  Bounce it explicitly — a vacated exit
            # sends it back to the queue head — rather than dropping it
            # on the floor, which would wedge the placement until a
            # human noticed.
            self._report_exit(key, job.incarnation, "vacated")
            return
        threading.Thread(target=self._run_job, args=(job, fn),
                         name=f"{self.name}:{key}", daemon=True).start()

    def _note_progress(self, key, progress):
        with self._lock:
            self._progress[key] = max(self._progress.get(key, 0), progress)

    def _save_checkpoint(self, job, state):
        self.store.save(job.key, job.incarnation, state)  # durable first
        job.checkpoints += 1
        self._note_progress(job.key, int(state) if isinstance(state, int)
                            else job.checkpoints)
        # The vacate lands at the first checkpoint past the grace,
        # however late the session loop wakes.
        self._grace_due()

    def _run_job(self, job, fn):
        result = error = None
        try:
            state = self.store.load(job.key, job.incarnation)
            if isinstance(state, int):
                self._note_progress(job.key, int(state))
            result = fn(job, state)
            outcome = "completed"
        except (VacateRequested, CheckpointUnreadable):
            # A quarantined image is not the job's fault: the next
            # placement resumes from an older image or from scratch.
            outcome = "vacated"
        except Exception as exc:    # the job's own bug
            outcome, error = "failed", f"{type(exc).__name__}: {exc}"
        self._report_exit(job.key, job.incarnation, outcome, result=result,
                          error=error, frees_slot=True)

    def _report_exit(self, key, incarnation, outcome, result=None,
                     error=None, frees_slot=False):
        msg = {"op": "job_exit", "agent": self.name, "key": key,
               "incarnation": incarnation, "outcome": outcome,
               "progress": 0}
        if result is not None:
            msg["result"] = result
        if error is not None:
            msg["error"] = error
        with self._lock:
            if frees_slot:
                # One acquisition: a registration between the two would
                # list the job under neither ``running`` nor ``exiting``.
                self._current = None
                self._grace_until = None
                msg["progress"] = self._progress.get(key, 0)
            self._outbox.append(msg)
        self._wake.set()

    def _request_vacate(self, key):
        """The coordinator's vacate: at the next checkpoint, skipping
        any grace."""
        with self._lock:
            if self._current is not None and self._current.key == key:
                self._react(self.reaction.on_preempt(self._current.state))

    def __repr__(self):
        return (f"<StationAgent {self.name} epoch={self._epoch} "
                f"busy={self.busy}>")
