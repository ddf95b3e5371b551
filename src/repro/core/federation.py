"""Federated coordination ("flocking"): pools of coordinators plus a
thin matchmaker trading surplus capacity between them.

One delta-state coordinator tops out in the tens of thousands of
stations: every push, probe and allocation decision funnels through a
single daemon.  ``coordinator_mode="federated"`` partitions the cluster
into K *pools* — station i of N belongs to pool ``i*K//N`` — and runs
one :class:`PoolCoordinator` per pool.  Each pool coordinator IS the
existing delta-state coordinator (same
:class:`~repro.core.cluster_view.ClusterView`, same Up-Down policy, same
anti-entropy sweep) over its own stations; with one pool and no
matchmaker the federated build is *byte-identical* to the delta build.

Capacity flows between pools through a lease protocol, every message
riding the :class:`~repro.net.ReliableSender` machinery:

* ``pool_advert`` (pool → matchmaker): ``(surplus, need, pressure)``,
  sent only when the tuple changed.  *Surplus* is idle capacity beyond
  the pool's own backlog, *need* the backlog its own idle machines (and
  already-borrowed ones) cannot cover, *pressure* the pool's aggregate
  Up-Down deprivation (:meth:`~repro.core.updown.UpDownPolicy.
  aggregate_pressure`).
* ``lease_request`` (matchmaker → lender): the matchmaker pairs the
  most-pressured deficit pool with the largest surplus pool and asks the
  lender to ship up to ``federation_max_lease`` stations.
* ``lease_grant`` (lender → borrower): the lender *retires* the chosen
  stations from its view (their registration slots survive as
  tombstones) and ships their last-known states.  The borrower admits
  them as host-only members — they are filtered out of its ``wanting``
  set and never registered in its policy — and re-points each station's
  push stream at itself with a ``rehome`` message.
* ``lease_return`` (borrower → lender): on lease expiry, owner return,
  or the borrowed machine developing demand of its own, the borrower
  evicts any foreign job through the **normal vacate path** (a
  ``preempt`` order, so the job checkpoints back home) and returns the
  station; the lender re-admits it and rehomes it back.  Returns retry
  forever — a station must never be lost to a dropped message.

Fairness composes across pools because holdings are charged to the
*requester's* index no matter which pool the host machine came from: a
borrowed machine hosting for station S raises S's Up-Down index exactly
as a local one does, so a pool cannot borrow its way past fair share.

Crash safety reuses the PR-4 epoch/lease machinery end to end.  A
borrowed host that dies is caught by the borrower's probes and the job's
home receives ``host_lost``; a *borrower coordinator* that crashes
forgets its loans on recovery and sends each lender a state-less
``lease_return`` (the lender re-probes the station from scratch); a
*lender* keeps its loan book across a crash, and every lease is
backstopped by a reclaim timer at ``expiry + federation_reclaim_grace``
that takes unreturned stations back unilaterally and publishes
``cross_pool_lease_expired``.
"""

from repro.core.cluster_view import observable_idle, observable_wanting
from repro.core.coordinator import Coordinator
from repro.net import Node, ReliableSender
from repro.sim.errors import SimulationError
from repro.sim.randomness import RandomStream
from repro.telemetry import kinds as ev


def pool_name(index, n_pools):
    """Node name of pool ``index``'s coordinator.

    With one pool the name is exactly ``"coordinator"`` — the delta-mode
    name — which is what makes the K=1 federated trace byte-identical to
    the single-coordinator trace.
    """
    if n_pools == 1:
        return "coordinator"
    return f"coordinator.{index}"


def federation_pools(names, n_pools):
    """Partition stations into pools: station i of N joins ``i*K//N``.

    Returns a list of per-pool name lists (registration order preserved
    inside each pool).
    """
    if n_pools < 1:
        raise SimulationError("federation_pools must be >= 1")
    if n_pools > len(names):
        raise SimulationError(
            f"{n_pools} pools for {len(names)} stations")
    total = len(names)
    pools = [[] for _ in range(n_pools)]
    for i, name in enumerate(names):
        pools[(i * n_pools) // total].append(name)
    return pools


class PoolCoordinator(Coordinator):
    """One pool's delta-state coordinator plus the lease edges.

    Everything the base :class:`~repro.core.coordinator.Coordinator`
    does is unchanged; this subclass adds the per-cycle federation
    upkeep (:meth:`_post_cycle`) and the three lease message handlers.
    """

    def __init__(self, sim, net, station_names, policy, hub, config,
                 pool_index=0, host_station=None, name="coordinator",
                 matchmaker_name=None):
        super().__init__(sim, net, station_names, policy, hub, config,
                         host_station=host_station, reservations=None,
                         name=name)
        self.pool_index = pool_index
        #: ``None`` when the federation has a single pool — in that case
        #: every federation hook is a no-op and this daemon behaves
        #: byte-for-byte like the delta-mode coordinator.
        self.matchmaker_name = matchmaker_name
        #: Borrowed station -> lease bookkeeping (insertion = grant order).
        self._borrowed = {}
        #: lease_id -> {"borrower", "stations", "expires_at"} for leases
        #: where this pool is the lender.  Survives a crash: the loan is
        #: real even if the lender restarts.
        self._on_loan = {}
        #: Lease ids already processed (idempotency under at-least-once
        #: delivery of ``lease_request`` / ``lease_grant``).
        self._leases_seen = set()
        self._advert_seq = 0
        self._last_advert = None
        self.register_handler("lease_request", self._handle_lease_request)
        self.register_handler("lease_grant", self._handle_lease_grant)
        self.register_handler("lease_return", self._handle_lease_return)

    # ------------------------------------------------------------------
    # per-cycle upkeep

    def _post_cycle(self):
        if self.matchmaker_name is None:
            return
        self._maintain_borrowed()
        self._send_advert()

    def _snapshot_from_view(self):
        snapshot = super()._snapshot_from_view()
        if self._borrowed:
            borrowed = self._borrowed
            # Borrowed machines are host-only members: their own demand
            # is served by their home pool (and triggers early return),
            # never by this pool's allocation pass.
            snapshot.wanting = {  # set-order-ok (membership filter)
                n for n in snapshot.wanting if n not in borrowed}
            now = self.sim.now
            expired = {n for n, info in borrowed.items()
                       if now >= info["expires_at"]}
            if expired:
                # An expired lease must drain: once its job is vacated
                # the station goes back to the lender, so re-granting it
                # here would trap it in a preempt/re-place loop (and let
                # the lender's reclaim timer snatch it mid-job).
                snapshot.exclude_idle(expired)
        return snapshot

    def _local_wanting(self):
        """This pool's own requesters, in deterministic (sorted) order."""
        borrowed = self._borrowed
        return sorted(n for n in self.view.wanting  # set-order-ok (sorted)
                      if n not in borrowed)

    def _send_advert(self):
        """Advertise ``(surplus, need, pressure)`` when it changed."""
        if not self.net.knows(self.matchmaker_name):
            return
        view = self.view
        requesters = self._local_wanting()
        backlog = sum(view.states[n]["pending"] for n in requesters)
        idle = view.idle_count
        # Idle *borrowed* machines are not ours to lend on.
        for name in self._borrowed:
            state = view.states.get(name)
            if (state is not None and name not in view.quarantined
                    and observable_idle(state)):
                idle -= 1
        surplus = max(0, idle - backlog)
        need = max(0, backlog - idle - len(self._borrowed))
        pressure = self.policy.aggregate_pressure(requesters)
        advert = {"pool": self.pool_index, "surplus": surplus,
                  "need": need, "pressure": pressure}
        if advert == self._last_advert:
            return
        self._last_advert = dict(advert)
        self._advert_seq += 1
        seq = self._advert_seq
        self.hub.emit(ev.POOL_ADVERT, station=self.name,
                      time=self.sim.now, **advert)
        # Best-effort with a small cap: a newer advert supersedes this
        # one, and the matchmaker's seq gate drops reordered stragglers.
        self._retry.send(
            self.matchmaker_name, "pool_advert", {**advert, "seq": seq},
            max_attempts=2,
            abort=lambda: self.crashed or self._advert_seq != seq,
        )

    def _maintain_borrowed(self):
        """Expire, evict, and return borrowed stations as needed."""
        if not self._borrowed:
            return
        now = self.sim.now
        view = self.view
        for name in list(self._borrowed):
            info = self._borrowed[name]
            state = view.states.get(name)
            owner_back = state is not None and not state["idle"]
            own_demand = state is not None and observable_wanting(state)
            expired = now >= info["expires_at"]
            if not (expired or owner_back or own_demand):
                continue
            hosting = (name in view.hosting or name in self._hosting_map)
            if hosting:
                # Checkpoint the foreign job back through the normal
                # vacate path; the return happens once the station's
                # pushed state shows the slot empty.  (An owner return
                # triggers the station's own suspend/vacate — no preempt
                # order needed on top.)
                if expired and not owner_back and not info["preempt_sent"]:
                    info["preempt_sent"] = True
                    self.net.message(name, "preempt", {
                        "for_station": None, "lease_expired": True,
                    }, src=self.name)
                continue
            if expired:
                reason = "lease_expired"
            elif owner_back:
                reason = "owner_return"
            else:
                reason = "local_demand"
            self._return_station(name, reason)

    # ------------------------------------------------------------------
    # membership plumbing

    def _admit_member(self, name, state):
        """Add a station to this pool's view and probe bookkeeping."""
        self.view.add_station(name, state)
        self.station_names.append(name)
        if state is not None:
            self._last_heard_cycle[name] = self._cycle_index
            self._boot_epochs[name] = state["boot_epoch"]
            if state["hosting_home"] is not None:
                self._hosting_map[name] = state["hosting_home"]

    def _drop_member(self, name):
        """Retire a station from this pool; returns its last state."""
        state = self.view.remove_station(name)
        self.station_names.remove(name)
        self._last_heard_cycle.pop(name, None)
        self._boot_epochs.pop(name, None)
        self._hosting_map.pop(name, None)
        return state

    def _send_rehome(self, station):
        """Re-point ``station``'s push stream at this coordinator.

        Sent by the side *taking* ownership (borrower on grant, lender
        on return/reclaim), after it admitted the station, so the first
        redirected push always finds a view that knows the station.
        Retries forever — the station may be crashed right now — and the
        receiver's timestamp gate discards stragglers that lost the race
        to a newer assignment.
        """
        self._retry.send(station, "rehome",
                         {"coordinator": self.name, "at": self.sim.now},
                         abort=lambda: self.crashed)

    # ------------------------------------------------------------------
    # lender side

    def _handle_lease_request(self, payload):
        """Matchmaker asks this pool to lend stations to a borrower."""
        if self.crashed:
            return False
        lease_id = payload["lease_id"]
        if lease_id in self._leases_seen:
            return True
        self._leases_seen.add(lease_id)
        borrower = payload["borrower"]
        stations = self._pick_lendable(payload["count"])
        if not stations:
            return True
        expires_at = self.sim.now + self.config.federation_lease_duration
        entries = []
        for name in stations:
            entries.append({"station": name, "state": self._drop_member(name)})
        self._on_loan[lease_id] = {
            "borrower": borrower,
            "stations": list(stations),
            "expires_at": expires_at,
        }
        self.hub.emit(ev.CROSS_POOL_LEASE_GRANTED, station=self.name,
                      time=self.sim.now, lease_id=lease_id,
                      borrower=borrower, stations=list(stations),
                      expires_at=expires_at)
        self.hub.metrics.counter("federation.stations_lent").inc(
            len(stations))
        # Capped: if the borrower never hears about the lease the
        # stations idle in limbo until the reclaim timer takes them back.
        self._retry.send(
            borrower, "lease_grant",
            {"lender": self.name, "lease_id": lease_id,
             "expires_at": expires_at, "stations": entries},
            max_attempts=self.config.placement_rpc_retries,
            abort=lambda: self.crashed,
        )
        self.sim.schedule(
            expires_at + self.config.federation_reclaim_grace - self.sim.now,
            self._reclaim, lease_id,
        )
        return True

    def _pick_lendable(self, count):
        """Idle stations with no demand of their own, registration order.

        Never the coordinator's own host machine, never a machine this
        pool is itself borrowing.
        """
        wanting = self.view.wanting
        host_name = (self.host_station.name
                     if self.host_station is not None else None)
        picked = []
        for name in self.view.idle_hosts():
            if len(picked) == count:
                break
            if name in wanting or name in self._borrowed:
                continue
            if name == host_name:
                continue
            picked.append(name)
        return picked

    def _reclaim(self, lease_id):
        """Expiry+grace passed: take back whatever was never returned."""
        lease = self._on_loan.get(lease_id)
        if lease is None:
            return
        if self.crashed:
            # A dead lender cannot act; check again after another grace.
            self.sim.schedule(self.config.federation_reclaim_grace,
                              self._reclaim, lease_id)
            return
        del self._on_loan[lease_id]
        for name in lease["stations"]:
            self.hub.emit(ev.CROSS_POOL_LEASE_EXPIRED, station=name,
                          time=self.sim.now, lease_id=lease_id,
                          borrower=lease["borrower"])
            self._admit_member(name, None)   # re-probed from scratch
            self._send_rehome(name)

    def _handle_lease_return(self, payload):
        """The borrower (or its recovered successor) returns a station."""
        if self.crashed:
            return False
        lease_id = payload["lease_id"]
        name = payload["station"]
        lease = self._on_loan.get(lease_id)
        if lease is None or name not in lease["stations"]:
            return True   # duplicate delivery, or already reclaimed
        lease["stations"].remove(name)
        if not lease["stations"]:
            del self._on_loan[lease_id]
        self._admit_member(name, payload.get("state"))
        self._send_rehome(name)
        return True

    # ------------------------------------------------------------------
    # borrower side

    def _handle_lease_grant(self, payload):
        """A lender shipped us stations under a matchmaker lease."""
        if self.crashed:
            return False
        lease_id = payload["lease_id"]
        if lease_id in self._leases_seen:
            return True
        self._leases_seen.add(lease_id)
        lender = payload["lender"]
        for entry in payload["stations"]:
            name = entry["station"]
            if name in self._borrowed or self.view.member(name):
                continue
            self._borrowed[name] = {
                "lender": lender,
                "lease_id": lease_id,
                "expires_at": payload["expires_at"],
                "preempt_sent": False,
            }
            self._admit_member(name, entry["state"])
            self._send_rehome(name)
        self.hub.metrics.counter("federation.stations_borrowed").inc(
            len(payload["stations"]))
        return True

    def _return_station(self, name, reason):
        """Hand one idle borrowed station back to its lender."""
        info = self._borrowed.pop(name)
        state = self._drop_member(name)
        self.hub.emit(ev.CROSS_POOL_LEASE_RETURNED, station=name,
                      time=self.sim.now, lease_id=info["lease_id"],
                      pool=self.pool_index, reason=reason)
        # Must deliver: a return lost forever would strand the station
        # (until the lender's reclaim timer — but that is a backstop,
        # not the protocol).
        self._retry.send(
            info["lender"], "lease_return",
            {"station": name, "state": state,
             "lease_id": info["lease_id"], "reason": reason},
            abort=lambda: self.crashed,
        )

    # ------------------------------------------------------------------
    # failure / recovery

    def recover_at(self, station):
        """Recover like the base coordinator, but forget every loan we
        were *borrowing*: the dead incarnation's view is gone, so the
        safe move is to return the stations state-less and let each
        lender probe them back into its own view."""
        borrowed = self._borrowed
        self._borrowed = {}
        for name in borrowed:
            self._drop_member(name)
        super().recover_at(station)
        for name, info in borrowed.items():
            self.hub.emit(ev.CROSS_POOL_LEASE_RETURNED, station=name,
                          time=self.sim.now, lease_id=info["lease_id"],
                          pool=self.pool_index,
                          reason="borrower_recovered")
            self._retry.send(
                info["lender"], "lease_return",
                {"station": name, "state": None,
                 "lease_id": info["lease_id"],
                 "reason": "borrower_recovered"},
                abort=lambda: self.crashed,
            )

    def __repr__(self):
        return (
            f"<PoolCoordinator {self.name} pool={self.pool_index} "
            f"stations={len(self.station_names)} "
            f"borrowed={len(self._borrowed)} on_loan={len(self._on_loan)}>"
        )


class Matchmaker(Node):
    """The thin federation layer: pairs deficit pools with surplus pools.

    Keeps nothing but the latest advert per pool (seq-gated against
    reordered redelivery) and a monotonic lease counter; every
    ``federation_interval`` it walks deficits in most-pressured-first
    order and asks the largest-surplus pools to lend.  Stored adverts
    are decremented as leases are brokered so one surplus is never
    promised to two borrowers between advert refreshes.

    Deliberately stateless about lease *outcomes*: lenders own the loan
    book and the reclaim timers, so a matchmaker restart loses nothing
    but unprocessed adverts (the next changed advert repopulates it).
    """

    def __init__(self, sim, net, hub, config, pool_names):
        super().__init__("matchmaker")
        self.sim = sim
        self.net = net
        self.hub = hub
        self.config = config
        #: pool index -> coordinator node name.
        self.pool_names = list(pool_names)
        self._adverts = {}
        self._advert_seqs = {}
        self._lease_seq = 0
        self.leases_brokered = 0
        self._process = None
        self._retry = ReliableSender(
            net, self.name,
            RandomStream(config.retry_seed, "retry.matchmaker"),
            hub=hub,
            backoff_base=config.retry_backoff_base,
            backoff_cap=config.retry_backoff_cap,
            jitter_frac=config.retry_jitter_frac,
            ack_timeout=config.rpc_timeout,
        )
        self.register_handler("pool_advert", self._handle_advert)
        net.attach(self)

    def start(self):
        """Begin the periodic matching loop.  Idempotent."""
        if self._process is None:
            self._process = self.sim.spawn(self._run(), name="matchmaker")

    def _run(self):
        interval = (self.config.federation_interval
                    if self.config.federation_interval is not None
                    else self.config.poll_interval)
        while True:
            yield interval
            if self.crashed:
                continue
            self._match()

    def _handle_advert(self, payload):
        pool = payload["pool"]
        seq = payload["seq"]
        if seq <= self._advert_seqs.get(pool, 0):
            return True   # reordered straggler
        self._advert_seqs[pool] = seq
        self._adverts[pool] = dict(payload)
        return True

    def _match(self):
        """One matching round over the latest adverts."""
        adverts = [a for _pool, a in sorted(self._adverts.items())]
        deficits = [a for a in adverts if a["need"] > 0]
        deficits.sort(key=lambda a: (-a["pressure"], a["pool"]))
        surpluses = [a for a in adverts if a["surplus"] > 0]
        surpluses.sort(key=lambda a: (-a["surplus"], a["pool"]))
        max_lease = self.config.federation_max_lease
        for deficit in deficits:
            for surplus in surpluses:
                if deficit["need"] <= 0:
                    break
                if surplus["pool"] == deficit["pool"]:
                    continue
                take = min(deficit["need"], surplus["surplus"], max_lease)
                if take <= 0:
                    continue
                surplus["surplus"] -= take
                deficit["need"] -= take
                self._lease_seq += 1
                self.leases_brokered += 1
                lease_id = f"lease-{self._lease_seq}"
                self._retry.send(
                    self.pool_names[surplus["pool"]], "lease_request",
                    {"borrower": self.pool_names[deficit["pool"]],
                     "count": take, "lease_id": lease_id},
                    max_attempts=3,
                    abort=lambda: self.crashed,
                )
                self.hub.metrics.counter("federation.leases_brokered").inc()

    def __repr__(self):
        return (
            f"<Matchmaker pools={len(self.pool_names)} "
            f"leases={self.leases_brokered}>"
        )
