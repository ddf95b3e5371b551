"""LAN model connecting the Condor daemons.

The paper's cluster hangs off one departmental Ethernet.  Three traffic
classes matter to the reproduction:

* small control messages (coordinator polls, pushed ``state_update``
  deltas, allocation grants) — latency only;
* request/response RPCs with timeouts — the coordinator must survive a
  station that went down (§2.1: "local schedulers are not affected if a
  remote site discontinues service");
* bulk checkpoint/placement transfers — serialized per endpoint, because
  the implementation deliberately places "a single job remotely every two
  minutes" to avoid saturating a machine (§4).

Nodes register named handlers; the network routes by node name so tests
can swap real daemons for probes.

Failure model (exercised by the chaos suite in :mod:`repro.faults`):

* a **crashed** node neither receives messages nor answers RPCs, and
  every in-flight bulk transfer touching it aborts, calling its caller
  back with a failure outcome and releasing both endpoints' NIC
  reservations (:meth:`Network.endpoint_crashed`);
* a **partition** (:meth:`Network.partition`) silently drops control
  traffic across the cut, turns RPCs into timeouts, and aborts crossing
  transfers; :meth:`Network.heal` removes it;
* the **loss process** applies to control messages, RPC requests and
  replies, and (once per transfer) to bulk transfers — a lost transfer
  is discovered by the sender when the copy should have completed.

Message path: **one record per exchange, no closures** (DESIGN §4).  A
control message schedules the static ``Network._deliver``; an RPC is one
slotted :class:`RpcTicket`, a fan-out one slotted :class:`BatchTicket`
and a bulk copy one slotted :class:`BulkTransfer`, whose bound methods
are the callbacks the kernel runs; each reports to its caller's
callback.  Closures that reference each other are a cycle only the
collector can free — per message, that was 2 M dead objects and a fifth
of a 5 000-station day.  A record is referenced by the agenda alone and
dies by reference count; nothing it references may point back at it
(``tests/test_footprint.py`` holds a whole run to zero garbage).
"""

from repro.sim.errors import SimulationError

#: One-way latency for a small control message on the departmental LAN.
DEFAULT_LATENCY = 0.005
#: Effective bulk-transfer bandwidth (MB/s).  10 Mbit Ethernet minus
#: protocol overhead; the paper's 5 s/MB checkpoint figure includes the
#: CPU cost, which is charged separately by the RU facility model.
DEFAULT_BANDWIDTH_MB_S = 1.0


class Node:
    """A network endpoint with named message handlers.

    Daemons (local schedulers, the coordinator) subclass or embed a Node.
    A crashed node neither receives messages nor answers RPCs.
    """

    def __init__(self, name):
        self.name = name
        self.crashed = False
        self._handlers = {}

    def register_handler(self, op, handler):
        """Register ``handler(payload) -> response`` for operation ``op``."""
        if op in self._handlers:
            raise SimulationError(f"node {self.name}: handler for {op!r} exists")
        self._handlers[op] = handler

    def handle(self, op, payload):
        """Dispatch an incoming message (called by the network)."""
        handler = self._handlers.get(op)
        if handler is None:
            raise SimulationError(f"node {self.name}: no handler for {op!r}")
        return handler(payload)

    def __repr__(self):
        state = "crashed" if self.crashed else "up"
        return f"<Node {self.name} {state}>"


class RpcTicket:
    """One request/response exchange in flight — and the caller's handle.

    :meth:`Network.rpc` creates one per call: it holds what the exchange
    needs, and its bound methods are the kernel callbacks —
    :meth:`deliver_request` at the destination, then :meth:`settle` with
    the outcome, or :meth:`settle_late` when no ack is coming.

    A deadline-less call — ``rpc(timeout=None, callback=...)`` —
    schedules no timeout event, so a lost reply would otherwise vanish
    without a trace: the callback just never fires.  Such a ticket is
    returned to the caller and stays in the network's outstanding set
    until the reply settles, and a caller running its own deadline (the
    coordinator's batch poller) calls :meth:`abandon` on the unanswered
    ones when the deadline passes.
    """

    __slots__ = ("net", "dst", "op", "sent_at", "settled", "abandoned",
                 "node", "payload", "src", "callback", "deadline",
                 "request_lost")

    def __init__(self, net, node, op, payload, src, callback, deadline,
                 request_lost):
        self.net = net
        self.dst = node.name
        self.op = op
        self.sent_at = net.sim.now
        self.settled = False
        self.abandoned = False
        self.node = node
        self.payload = payload
        self.src = src
        self.callback = callback
        self.deadline = deadline
        self.request_lost = request_lost

    def deliver_request(self):
        """The request reaches the destination (one latency after send)."""
        net = self.net
        node = self.node
        if node.crashed or self.request_lost:
            self.settle_late()
            return
        response = node.handle(self.op, self.payload)
        net.messages_sent += 1
        if not net._reachable(self.dst, self.src) or net._lost():
            net.messages_dropped += 1
            self.settle_late()
            return
        delay = net._delay()
        if self.deadline is not None and net.sim.now + delay >= self.deadline:
            # The reply would land past the deadline; the timer wins
            # (ties included — the eager timer's earlier seq won).
            self.settle_late()
            return
        net.sim.schedule(delay, self.settle, ("ok", response))

    def settle_late(self):
        """No ack is coming: surface the timeout at the exact instant an
        eager deadline timer would have fired.  Scheduling it only on the
        failure branches keeps the overwhelmingly common healthy exchange
        at two agenda events instead of three.  Without a deadline the
        ticket just stays outstanding."""
        if self.deadline is not None:
            sim = self.net.sim
            sim.schedule(max(0.0, self.deadline - sim.now), self.settle,
                         ("timeout", None))

    def settle(self, outcome):
        """Hand ``outcome`` to the caller, once."""
        if not self.settled:
            self.settled = True
            if self.deadline is None:
                self.net._outstanding.pop(self, None)
            self.callback(outcome)

    def abandon(self):
        """Give up on the reply (the caller's own deadline passed).

        Removes the ticket from the outstanding set and counts it in
        :attr:`Network.rpcs_abandoned`.  A reply that arrives later still
        invokes the callback (late replies always did); no-op if the RPC
        already settled or was abandoned.
        """
        if self.settled or self.abandoned:
            return
        self.abandoned = True
        self.net._outstanding.pop(self, None)
        self.net.rpcs_abandoned += 1

    def __repr__(self):
        state = ("settled" if self.settled
                 else "abandoned" if self.abandoned else "outstanding")
        return f"<RpcTicket {self.op}->{self.dst} {state}>"


class BatchTicket:
    """One deadline-less fan-out in flight — and the caller's handle.

    :meth:`Network.rpc_batch` creates one per call, the batch form of an
    :class:`RpcTicket`: it holds the targets and which requests were
    lost, and its bound methods are the round's two kernel callbacks —
    :meth:`deliver_requests` at ``+latency``, :meth:`deliver_replies` at
    ``+2*latency``.  It sits in the network's outstanding set until every
    reply settled, and :meth:`abandon` closes out whichever targets never
    answered, counting each in :attr:`Network.rpcs_abandoned`.
    """

    __slots__ = ("net", "targets", "op", "payload", "src", "callback",
                 "lost", "unsettled", "abandoned")

    def __init__(self, net, targets, op, payload, src, callback, lost):
        self.net = net
        self.targets = targets
        self.op = op
        self.payload = payload
        self.src = src
        self.callback = callback
        #: Per-target request-lost flags, or ``None`` when the network
        #: was healthy at send time and no request was lost.
        self.lost = lost
        self.unsettled = len(targets)
        self.abandoned = False
        if targets:
            net._outstanding[self] = True

    def deliver_requests(self):
        """Every request reaches its destination (one latency after send).

        On a healthy network — no partition, no loss — only a crashed
        destination loses an exchange, so the per-target reachability
        and loss checks are skipped.  The condition is read here, not at
        send time: a partition or loss burst that landed mid-round takes
        the per-target path (a handler never changes it, so one read
        serves the whole loop).
        """
        net = self.net
        nodes = net._nodes
        src = self.src
        op = self.op
        payload = self.payload
        lost = self.lost
        checked = net._island is not None or net.loss_probability > 0.0
        replies = []
        for i, name in enumerate(self.targets):
            if lost is not None and lost[i]:
                continue
            dst = nodes[name]
            if dst.crashed:
                continue
            response = dst.handle(op, payload)
            net.messages_sent += 1
            if checked and (not net._reachable(name, src) or net._lost()):
                net.messages_dropped += 1
                continue
            replies.append((name, response))
        if replies:
            net.sim.schedule(net.latency, self.deliver_replies, replies)

    def deliver_replies(self, replies):
        """The replies land; each settles its target with the caller."""
        callback = self.callback
        for name, response in replies:
            if not self.abandoned:
                self.unsettled -= 1
                if not self.unsettled:
                    self.net._outstanding.pop(self, None)
            callback(name, ("ok", response))

    def abandon(self):
        """Give up on the targets still awaiting replies (no-op when all
        settled); late replies still invoke the callback, as for single
        RPCs."""
        if self.abandoned:
            return
        self.abandoned = True
        self.net.rpcs_abandoned += self.unsettled
        self.unsettled = 0
        self.net._outstanding.pop(self, None)

    def __repr__(self):
        state = "abandoned" if self.abandoned else (
            "settled" if not self.unsettled
            else f"{self.unsettled} outstanding")
        return f"<BatchTicket {self.op} {state}>"


class BulkTransfer:
    """One bulk transfer (placement image, checkpoint file) — and the
    caller's handle.

    :meth:`Network.transfer` creates one per call.  :meth:`settle` is
    the kernel callback that hands the outcome to ``callback``, exactly
    once: settling a settled record is a network-model bug and raises.
    """

    __slots__ = ("src", "dst", "size_mb", "start", "finish", "callback",
                 "settled", "_handle")

    def __init__(self, src, dst, size_mb, start, finish, callback):
        self.src = src
        self.dst = dst
        self.size_mb = size_mb
        self.start = start
        self.finish = finish
        self.callback = callback
        self.settled = False
        self._handle = None

    def settle(self, outcome):
        """Hand ``outcome`` to the caller; a second call raises."""
        if self.settled:
            raise SimulationError(f"{self!r} is already settled")
        self.settled = True
        self.callback(outcome)

    def __repr__(self):
        return (
            f"<BulkTransfer {self.src}->{self.dst} {self.size_mb:.2f}MB "
            f"finish={self.finish:.3f}{' settled' if self.settled else ''}>"
        )


class Network:
    """Departmental LAN: routing, latency, loss, partitions, bulk transfers."""

    def __init__(self, sim, latency=DEFAULT_LATENCY,
                 bandwidth_mb_s=DEFAULT_BANDWIDTH_MB_S,
                 loss_probability=0.0, loss_stream=None,
                 latency_jitter=0.0, jitter_stream=None):
        if latency < 0 or bandwidth_mb_s <= 0:
            raise SimulationError(
                f"bad Network(latency={latency}, bandwidth={bandwidth_mb_s})"
            )
        if loss_probability and loss_stream is None:
            raise SimulationError("loss_probability needs a loss_stream")
        if latency_jitter < 0:
            raise SimulationError(f"negative jitter {latency_jitter}")
        if latency_jitter and jitter_stream is None:
            raise SimulationError("latency_jitter needs a jitter_stream")
        self.sim = sim
        self.latency = float(latency)
        self.latency_jitter = float(latency_jitter)
        self.jitter_stream = jitter_stream
        self.bandwidth_mb_s = float(bandwidth_mb_s)
        self.loss_probability = float(loss_probability)
        self.loss_stream = loss_stream
        self._nodes = {}
        # Per-endpoint serialization point for bulk transfers.
        self._nic_free_at = {}
        #: endpoint name -> list of live BulkTransfer records touching it.
        self._transfers_at = {}
        #: Callbacks invoked with each BulkTransfer record at issue time
        #: (the chaos injector's crash-mid-transfer trigger hooks here).
        self._transfer_observers = []
        #: Island of names cut off from the rest, or ``None`` (healthy).
        self._island = None
        #: Outstanding deadline-less callback RPCs (see RpcTicket).
        self._outstanding = {}
        #: Counters for traffic reports.
        self.messages_sent = 0
        self.messages_dropped = 0
        self.bytes_transferred_mb = 0.0
        self.transfers_failed = 0
        self.rpcs_abandoned = 0

    def attach(self, node):
        """Register a node; its name becomes its address."""
        if node.name in self._nodes:
            raise SimulationError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node

    def node(self, name):
        """Look up an attached node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise SimulationError(f"unknown node {name!r}") from None

    def knows(self, name):
        """Whether a node with this name is attached.

        Lets an optional peer be addressed safely — a local scheduler
        only pushes ``state_update`` deltas when a coordinator actually
        exists on this network (standalone schedulers stay silent).
        """
        return name in self._nodes

    # ------------------------------------------------------------------
    # failure processes

    def _lost(self):
        return (
            self.loss_probability > 0.0
            and self.loss_stream.random() < self.loss_probability
        )

    def set_loss(self, probability):
        """Change the message-loss probability mid-run (chaos bursts).

        Requires the network to have been built with a ``loss_stream``
        whenever the probability is non-zero, so burst draws stay on the
        seeded stream.
        """
        if probability < 0.0 or probability > 1.0:
            raise SimulationError(f"bad loss probability {probability}")
        if probability and self.loss_stream is None:
            raise SimulationError("loss_probability needs a loss_stream")
        self.loss_probability = float(probability)

    def partition(self, island):
        """Cut the named endpoints off from the rest of the network.

        Control traffic across the cut is dropped, RPCs across it time
        out, and in-flight bulk transfers crossing it abort with a
        ``"partitioned"`` failure.  Traffic *within* the island (and
        within the remainder) still flows.  A second call replaces the
        previous cut; :meth:`heal` removes it.
        """
        self._island = frozenset(island)
        crossing = []
        seen = set()
        for records in self._transfers_at.values():
            for record in records:
                if id(record) not in seen and not self._reachable(
                        record.src, record.dst):
                    seen.add(id(record))
                    crossing.append(record)
        for record in crossing:
            self._abort_transfer(record, "partitioned")

    def heal(self):
        """Remove the partition; all endpoints can reach each other again."""
        self._island = None

    def _reachable(self, a, b):
        """Whether ``a`` can currently talk to ``b``.

        ``None`` stands for an unnamed sender (direct test calls) and is
        always considered reachable — partitions only apply to traffic
        between named endpoints.
        """
        island = self._island
        if island is None or a is None or b is None:
            return True
        return (a in island) == (b in island)

    def _endpoint_crashed(self, name):
        node = self._nodes.get(name)
        return node is not None and node.crashed

    def endpoint_crashed(self, name):
        """The named machine went down: abort its in-flight transfers.

        Every live bulk transfer touching the endpoint calls back with
        ``("failed", "endpoint_crashed")`` and both endpoints' NIC
        reservations are recomputed — a machine that crashes mid-transfer
        and reboots must not keep "waiting" for the dead transfer to
        drain before its first post-recovery placement.

        Called by the daemons' ``crash()`` methods; idempotent.
        """
        # A station's copy to itself is listed under its name twice.
        for record in dict.fromkeys(self._transfers_at.get(name, ())):
            self._abort_transfer(record, "endpoint_crashed")

    def _delay(self):
        """One-way message delay: base latency plus optional jitter.

        Jitter makes delivery order between a pair of nodes
        non-deterministic — the condition the daemons' protocols must
        tolerate (chaos tests exercise this).
        """
        if self.latency_jitter:
            return self.latency + self.jitter_stream.uniform(
                0.0, self.latency_jitter)
        return self.latency

    # ------------------------------------------------------------------
    # control messages

    def message(self, dst_name, op, payload=None, src=None):
        """Fire-and-forget control message; delivered after one latency.

        Silently dropped if the destination is crashed, a partition
        separates ``src`` from it, or the (optional) loss process eats
        it — exactly the failure the poll timeout covers.  An unknown
        destination raises *before* any traffic counter moves, so tests
        probing error paths do not skew the counters, and no loss draw
        is consumed for a message that could never have been sent.
        """
        dst = self.node(dst_name)
        if not self._reachable(src, dst_name):
            self.messages_sent += 1
            self.messages_dropped += 1
            return
        self.messages_sent += 1
        if self._lost():
            self.messages_dropped += 1
            return
        self.sim.schedule(self._delay(), self._deliver, dst, op, payload)

    @staticmethod
    def _deliver(dst, op, payload):
        if not dst.crashed:
            dst.handle(op, payload)

    def rpc(self, dst_name, op, payload=None, timeout=1.0, callback=None,
            src=None):
        """Request/response with timeout.

        ``callback(outcome)`` gets ``("ok", response)`` or ``("timeout",
        None)``.  A crashed destination, a partition, or a lost request
        or reply surfaces as a timeout — callers never hang.  The
        callback is required; without one the call raises here, before
        any traffic counter moves or loss draw is consumed.

        ``timeout=None`` schedules no timeout event at all — the caller
        must run its own deadline (a batch poller amortises one deadline
        timer over a whole fan-out); because the callback may then never
        fire, such calls return an :class:`RpcTicket` that stays
        outstanding until the reply settles or the caller abandons it,
        so a lost reply is detectable instead of a silent no-show.
        """
        if callback is None:
            raise SimulationError(f"rpc {op!r} needs a callback")
        dst = self.node(dst_name)
        self.messages_sent += 1
        request_lost = not self._reachable(src, dst_name) or self._lost()
        if request_lost:
            self.messages_dropped += 1
        deadline = None if timeout is None else self.sim.now + timeout
        ticket = RpcTicket(self, dst, op, payload, src, callback, deadline,
                           request_lost)
        self.sim.schedule(self._delay(), ticket.deliver_request)
        if timeout is None:
            self._outstanding[ticket] = True
            return ticket
        return None

    def rpc_batch(self, targets, op, payload=None, callback=None, src=None):
        """Deadline-less request/response fan-out to many destinations.

        Semantically equivalent to one ``rpc(timeout=None, callback=...)``
        per target — same per-target loss draws (in target order), same
        crash/partition checks at the same instants, same reply timing —
        but the whole round is one :class:`BatchTicket` riding on two
        agenda events (all requests delivered at ``+latency``, all
        replies at ``+2*latency``) instead of two per target, which is
        what keeps a 5000-station anti-entropy sweep from dominating the
        agenda.  On a healthy network (no partition, no loss) the
        per-target reachability and loss checks are skipped; they draw
        nothing there, so no loss draw moves.  ``callback(name,
        outcome)`` fires per settled reply; unsettled targets are
        abandoned through the returned ticket when the caller's own
        deadline passes.  Requires a callback and jitter-free latency
        (with jitter, per-target delays differ and the fan-out falls back
        to individual RPCs).
        """
        if callback is None:
            raise SimulationError("rpc_batch needs a callback")
        if self.latency_jitter:
            raise SimulationError("rpc_batch needs jitter-free latency")
        nodes = self._nodes
        for name in targets:
            if name not in nodes:
                self.node(name)   # unknown destination raises before counters
        targets = tuple(targets)
        self.messages_sent += len(targets)
        lost = None
        if self._island is not None or self.loss_probability > 0.0:
            lost = []
            for name in targets:
                dropped = not self._reachable(src, name) or self._lost()
                if dropped:
                    self.messages_dropped += 1
                lost.append(dropped)
        ticket = BatchTicket(self, targets, op, payload, src, callback, lost)
        self.sim.schedule(self.latency, ticket.deliver_requests)
        return ticket

    def outstanding_rpcs(self):
        """Deadline-less callback RPCs still awaiting a reply, in send
        order (for deadline bookkeeping, tests and diagnostics)."""
        return list(self._outstanding)

    # ------------------------------------------------------------------
    # bulk transfers

    def transfer(self, src_name, dst_name, size_mb, callback):
        """Bulk transfer (placement image, checkpoint file).

        Calls ``callback(outcome)`` exactly once: with ``("ok",
        finish_time)`` on success or ``("failed", reason)`` when the
        transfer cannot complete.  Returns the :class:`BulkTransfer`.
        The transfer starts once both endpoints' NICs are free and holds
        them for ``size_mb / bandwidth`` seconds — modelling why
        simultaneous placements degrade a machine (§4).

        Failure modes: an endpoint crashed at start (or unreachable
        behind a partition) fails after one latency — the sender's
        connect attempt errors; an endpoint that crashes (or a partition
        that lands) mid-transfer aborts it immediately and frees both
        NICs; the loss process, drawn once per transfer, corrupts the
        copy — the sender discovers it when the transfer should have
        completed.
        """
        if size_mb < 0:
            raise SimulationError(f"negative transfer size {size_mb}")
        now = self.sim.now
        reason = None
        if (self._endpoint_crashed(src_name)
                or self._endpoint_crashed(dst_name)):
            reason = "endpoint_crashed"
        elif not self._reachable(src_name, dst_name):
            reason = "partitioned"
        if reason is not None:
            self.transfers_failed += 1
            record = BulkTransfer(src_name, dst_name, size_mb, now, now,
                                  callback)
            self.sim.schedule(self.latency, record.settle, ("failed", reason))
            return record
        start = max(
            now,
            self._nic_free_at.get(src_name, 0.0),
            self._nic_free_at.get(dst_name, 0.0),
        )
        duration = self.latency + size_mb / self.bandwidth_mb_s
        finish = start + duration
        self._nic_free_at[src_name] = finish
        self._nic_free_at[dst_name] = finish
        self.bytes_transferred_mb += size_mb
        record = BulkTransfer(src_name, dst_name, size_mb, start, finish,
                              callback)
        self._transfers_at.setdefault(src_name, []).append(record)
        self._transfers_at.setdefault(dst_name, []).append(record)
        if self._lost():
            record._handle = self.sim.schedule_at(
                finish, self._transfer_lost, record)
        else:
            record._handle = self.sim.schedule_at(
                finish, self._transfer_done, record)
        for observer in self._transfer_observers:
            observer(record)
        return record

    def add_transfer_observer(self, callback):
        """Call ``callback(record)`` for every bulk transfer issued."""
        self._transfer_observers.append(callback)

    def remove_transfer_observer(self, callback):
        """Deregister a transfer observer (no-op if absent)."""
        try:
            self._transfer_observers.remove(callback)
        except ValueError:
            pass

    def _transfer_done(self, record):
        self._unregister_transfer(record, release_nics=False)
        record.settle(("ok", record.finish))

    def _transfer_lost(self, record):
        self._unregister_transfer(record, release_nics=False)
        self.transfers_failed += 1
        record.settle(("failed", "lost"))

    def _abort_transfer(self, record, reason):
        # Only a live record is found through _transfers_at: the finish
        # event unregisters it, and so does the first abort.
        record._handle.cancel()
        self._unregister_transfer(record, release_nics=True)
        self.transfers_failed += 1
        # Delivered as its own event so the failure interleaves with the
        # agenda like any other network notification.
        self.sim.schedule(0.0, record.settle, ("failed", reason))

    def _unregister_transfer(self, record, release_nics):
        for name in (record.src, record.dst):
            records = self._transfers_at.get(name)
            if records is not None:
                try:
                    records.remove(record)
                except ValueError:
                    pass
                if not records:
                    del self._transfers_at[name]
            if release_nics:
                remaining = self._transfers_at.get(name)
                if remaining:
                    self._nic_free_at[name] = max(
                        r.finish for r in remaining)
                else:
                    self._nic_free_at.pop(name, None)

    def nic_busy_until(self, name):
        """When the named endpoint's NIC frees up (for tests/diagnostics)."""
        return max(self._nic_free_at.get(name, 0.0), self.sim.now)

    def __repr__(self):
        return (
            f"<Network nodes={len(self._nodes)} sent={self.messages_sent} "
            f"dropped={self.messages_dropped}>"
        )
