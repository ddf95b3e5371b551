"""Client-side verbs: submit / q / rm / drain / ping over the wire.

One :class:`ServiceClient` wraps the endpoint list (primary first,
standbys after) and retries each verb across endpoints with jittered
backoff — the same ReliableSender discipline the agents use, so a
client submitted against a freshly promoted standby just works.

Like an agent, a client keeps its connection: one socket, to the
endpoint that last answered, reused by every verb until it fails.  A
verb then costs one round trip instead of a connect and an accept.  A
lock makes one client safe to share across threads; ``close()`` (or
leaving a ``with`` block) hangs up.
"""

import random
import socket
import threading
import time

from repro.service import protocol
from repro.service.errors import ProtocolError, ServiceError

#: Replies from a coordinator that is no longer the coordinator.
_DEPOSED = ("stale_coordinator", "stale_epoch")


class _Deposed(ProtocolError):
    """The endpoint answered, but no longer as the coordinator."""


class ServiceClient:
    """Issue client verbs against whichever coordinator is answering."""

    def __init__(self, endpoints, timeout=5.0, retries=8,
                 retry_base=0.05, retry_cap=1.0, jitter_frac=0.5,
                 seed=1, sleep=time.sleep):
        if not endpoints:
            raise ServiceError("client needs at least one endpoint")
        self.endpoints = list(endpoints)
        self.timeout = timeout
        self.retries = retries
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        self.jitter_frac = jitter_frac
        self._rng = random.Random(seed)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._sock = None
        self._endpoint = None       # where ``_sock`` leads

    def close(self):
        """Hang up the kept connection (the next verb reconnects)."""
        with self._lock:
            self._hang_up()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def _hang_up(self):
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _exchange(self, endpoint, msg):
        """One request/reply with ``endpoint`` over the kept connection,
        dialled first if it leads elsewhere or nowhere.  A failure — or
        a deposed coordinator's answer — hangs up and raises."""
        try:
            if self._sock is None or self._endpoint != endpoint:
                self._hang_up()
                self._sock = socket.create_connection(endpoint,
                                                      timeout=self.timeout)
                self._sock.settimeout(self.timeout)
                self._endpoint = endpoint
            protocol.send_frame(self._sock, msg)
            reply = protocol.recv_frame(self._sock)
            if reply is None:
                raise ProtocolError("closed the connection before replying")
            if reply.get("error") in _DEPOSED:
                raise _Deposed("deposed")
        except (OSError, ProtocolError):
            self._hang_up()
            raise
        return reply

    def _call(self, msg):
        """Walk the endpoint list with backoff until someone answers.

        ``stale_coordinator`` answers (a deposed primary still holding
        its socket open) count as unreachable — keep walking, the
        promoted standby is further down the list.  The kept connection
        goes first; if it fails, the peer may just have hung up since the
        last verb (a restart, say), so it is redialled once at once — no
        sleep, no attempt spent — unless the answer was ``deposed`` or the
        peer timed out: a slow peer is alive, and resending to it at once
        would only pile up duplicates.
        """
        last_error = None
        with self._lock:
            if self._sock is not None:
                endpoint = self._endpoint
                for _dial in range(2):      # reused, then redialled
                    try:
                        return self._exchange(endpoint, msg)
                    except (OSError, ProtocolError) as exc:
                        last_error = f"{endpoint[0]}:{endpoint[1]}: {exc}"
                        if isinstance(exc, (_Deposed, socket.timeout)):
                            break
            for attempt in range(1, self.retries + 1):
                for endpoint in self.endpoints:
                    try:
                        return self._exchange(endpoint, msg)
                    except (OSError, ProtocolError) as exc:
                        last_error = f"{endpoint[0]}:{endpoint[1]}: {exc}"
                if attempt < self.retries:
                    base = min(self.retry_cap,
                               self.retry_base * 2.0 ** (attempt - 1))
                    self._sleep(base * (1.0 + self.jitter_frac
                                        * self._rng.random()))
        raise ServiceError(
            f"no coordinator reachable after {self.retries} attempts "
            f"(last: {last_error})")

    def _checked(self, msg):
        reply = self._call(msg)
        if not reply.get("ok"):
            raise ServiceError(
                f"{msg.get('op')} rejected: {reply.get('error')}")
        return reply

    # -- verbs ---------------------------------------------------------

    def ping(self):
        return self._checked({"op": "ping"})

    def submit(self, entry, payload=None, name=None, owner="anonymous",
               demand_seconds=0.0):
        """Submit one job; returns its key (``#<id>``)."""
        reply = self._checked({
            "op": "submit", "entry": entry, "payload": payload or {},
            "name": name, "owner": owner,
            "demand_seconds": demand_seconds,
        })
        return reply["key"]

    def q(self, limit=None):
        """Queue/agents/counters snapshot (the ``q`` verb)."""
        msg = {"op": "q"}
        if limit:
            msg["limit"] = int(limit)
        return self._checked(msg)

    def remove(self, key):
        """Stop a job (``rm``).  Returns True if it was still live."""
        reply = self._call({"op": "rm", "key": key})
        if not reply.get("ok") and reply.get("error") not in (
                "already finished",):
            raise ServiceError(f"rm {key} rejected: {reply.get('error')}")
        return bool(reply.get("ok"))

    def drain(self):
        """Refuse new submissions; returns the progress snapshot."""
        return self._checked({"op": "drain"})

    def wait_idle(self, timeout=30.0, poll=0.05, require_done=None):
        """Block until nothing is pending or in flight (post-drain).

        Returns the final ``q`` snapshot; raises on timeout so tests
        and the chaos harness fail loudly instead of hanging.
        """
        deadline = time.monotonic() + timeout
        snapshot = None
        while time.monotonic() < deadline:
            snapshot = self.q()
            settled = (snapshot["pending"] == 0
                       and snapshot["inflight"] == 0)
            if settled and (require_done is None
                            or snapshot["done"] >= require_done):
                return snapshot
            self._sleep(poll)
        raise ServiceError(
            f"jobs still unsettled after {timeout}s: {snapshot}")
