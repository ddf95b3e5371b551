"""At-least-once delivery with jittered exponential backoff.

The base :class:`~repro.net.network.Network` gives daemons exactly the
1988 substrate: fire-and-forget messages and RPCs that time out.  On a
healthy LAN that is enough — the delta protocol's pushed ``state_update``
messages and the host→home job notices all arrive.  Under the chaos
suite's partitions and loss bursts they do not, and a lost ``host_lost``
or ``job_vacated`` notice strands a job forever.

:class:`ReliableSender` wraps an operation in an acknowledged RPC and
retries it on timeout with exponential backoff plus seeded jitter (so
retry storms from many stations decorrelate, and so runs replay
byte-identically from the same seed).  Callers choose:

* a **retry cap** for best-effort traffic where a newer message or the
  anti-entropy poll supersedes the lost one (pushed deltas), versus
  unlimited attempts for must-deliver notices (``host_lost``, job
  completion/vacate notices) — the paper's "guarantee job completion"
  hinges on these;
* an **abort predicate**, polled before every (re)send, so a retry loop
  dies with its sender (a crashed station must not keep transmitting)
  or when the message became moot (a newer delta was pushed).

Every retry and give-up is telemetered (``message_retry`` /
``message_give_up``) on the telemetry hub so chaos traces expose the
recovery machinery, not just its outcome.

On a healthy network the first attempt is acknowledged and **no RNG is
drawn** — jitter is sampled only when a retry actually happens — so
fault-free runs remain byte-identical with the pre-retry build, and the
sender's draw-on-demand stream never builds its generator.  Each
:meth:`ReliableSender.send` is one slotted :class:`_Delivery` record
whose bound methods are the retry loop — no closures, so nothing here
needs the cycle collector (the rule is in :mod:`repro.net.network`).
"""

from repro.sim.errors import SimulationError
from repro.sim.randomness import RandomStream
from repro.telemetry import kinds


class ReliableSender:
    """Retrying message channel for one sending daemon.

    One instance per daemon, with the daemon's own jitter stream —
    ``RandomStream(0, "retry.<src>")`` unless ``stream`` is given — so
    retry timing is deterministic per sender and independent of every
    other random process in the simulation.  The defaults are the
    simulator's policy: first retry after 2 s, doubling to a 120 s cap,
    each delay stretched by up to half of itself, and a 10 s ack timeout.
    """

    def __init__(self, net, src, stream=None, hub=None,
                 backoff_base=2.0, backoff_cap=120.0, jitter_frac=0.5,
                 ack_timeout=10.0):
        if backoff_base <= 0 or backoff_cap < backoff_base:
            raise SimulationError(
                f"bad backoff (base={backoff_base}, cap={backoff_cap})"
            )
        if not 0 <= jitter_frac <= 1:
            raise SimulationError(f"jitter_frac {jitter_frac} not in [0,1]")
        self.net = net
        self.src = src
        self.stream = (stream if stream is not None
                       else RandomStream(0, f"retry.{src}"))
        self.hub = hub
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.jitter_frac = float(jitter_frac)
        self.ack_timeout = float(ack_timeout)

    def backoff(self, attempt):
        """Delay before re-attempt number ``attempt`` (2, 3, ...).

        Public so callers retrying non-message work (bulk transfers) can
        share the same seeded backoff/jitter policy.
        """
        base = min(self.backoff_cap,
                   self.backoff_base * 2.0 ** (attempt - 2))
        if self.jitter_frac:
            return base * (1.0 + self.jitter_frac * self.stream.random())
        return base

    def send(self, dst, op, payload=None, max_attempts=None, abort=None,
             on_delivered=None, on_give_up=None, station=None):
        """Deliver ``op`` to ``dst`` at least once, retrying on timeout.

        ``max_attempts=None`` retries forever (bounded in practice by the
        abort predicate); ``abort()`` is consulted before every attempt
        and before acting on every ack.  ``on_delivered(response)`` fires
        when the destination acknowledged; ``on_give_up()`` when the cap
        is exhausted.  ``station`` labels the telemetry events (defaults
        to the sender's address).

        The destination's handler runs once per *delivered* attempt —
        at-least-once semantics — so handlers must be idempotent.
        """
        if max_attempts is not None and max_attempts < 1:
            raise SimulationError(f"max_attempts {max_attempts} < 1")
        source = station if station is not None else self.src
        _Delivery(self, dst, op, payload, max_attempts, abort,
                  on_delivered, on_give_up, source).attempt()

    def _publish(self, kind, station, dst, op, attempt):
        if self.hub is not None:
            self.hub.emit(kind, station=station, dst=dst, op=op,
                          attempt=attempt)


class _Delivery:
    """One :meth:`ReliableSender.send` in flight: :meth:`attempt` runs
    now and after each backoff, :meth:`settled` takes each RPC outcome.
    Nothing the record references points back at it."""

    __slots__ = ("sender", "dst", "op", "payload", "max_attempts", "abort",
                 "on_delivered", "on_give_up", "station", "attempts")

    def __init__(self, sender, dst, op, payload, max_attempts, abort,
                 on_delivered, on_give_up, station):
        self.sender = sender
        self.dst = dst
        self.op = op
        self.payload = payload
        self.max_attempts = max_attempts
        self.abort = abort
        self.on_delivered = on_delivered
        self.on_give_up = on_give_up
        self.station = station
        self.attempts = 0

    def aborted(self):
        return self.abort is not None and self.abort()

    def attempt(self):
        if self.aborted():
            return
        sender = self.sender
        self.attempts += 1
        if self.attempts > 1:
            sender._publish(kinds.MESSAGE_RETRY, self.station, self.dst,
                            self.op, self.attempts)
        sender.net.rpc(self.dst, self.op, self.payload,
                       timeout=sender.ack_timeout, callback=self.settled,
                       src=sender.src)

    def settled(self, outcome):
        status, response = outcome
        if status == "ok":
            if self.on_delivered is not None and not self.aborted():
                self.on_delivered(response)
            return
        if self.aborted():
            return
        sender = self.sender
        if (self.max_attempts is not None
                and self.attempts >= self.max_attempts):
            sender._publish(kinds.MESSAGE_GIVE_UP, self.station, self.dst,
                            self.op, self.attempts)
            if self.on_give_up is not None:
                self.on_give_up()
            return
        sender.net.sim.schedule(sender.backoff(self.attempts + 1),
                                self.attempt)
