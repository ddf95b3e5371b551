"""The central coordinator daemon.

Every two minutes (§2.1) the coordinator allocates idle-station capacity
to requesting stations — at most one placement per cycle system-wide
(§4) — and, when no station is idle but a deprived station wants cycles,
orders a priority preemption of a running job whose home hoards capacity
(§2.4, the Up-Down algorithm).

A cycle observes the cluster, then allocates — in
:func:`~repro.core.updown.grant_order`, as the service daemon does.
:class:`Coordinator` observes through the delta
protocol: local schedulers push ``state_update`` messages only when
their observable state changes into a materialized
:class:`~repro.core.cluster_view.ClusterView`.  Each cycle it probes
only the stations it *must* hear from — hosts running foreign jobs
(prompt lost-host detection), stations never heard from, and quarantined
stations — plus a rotating anti-entropy sweep that repairs any drift
from lost pushes and catches silent crash+reboots.  A quiet cycle costs
O(active placements), not O(N).

A cycle is a chain of kernel callbacks on one slotted record: a tick
picks the stations to probe, one :class:`ProbeRound` carries the
fan-out and its shared deadline, and the finished round hands its
replies back to be absorbed and allocated from, which arms the next
tick (DESIGN §4, "one record per exchange").

:class:`PollingCoordinator` (the ``"poll"`` mode) is the 1988 behaviour,
kept as the reference the delta protocol is checked against: a full RPC
fan-out to every station every cycle, O(N) messages even when nothing
changed, which caps the cluster size the paper itself noted ("a
coordinator can manage as many as 100 workstations", §3.1).

Deliberately thin, per the paper's design philosophy: it keeps *no* job
state, only allocation bookkeeping, so its failure stops new allocations
but affects nothing already running, and it can be restarted anywhere.
"""

import time as _wallclock
from functools import partial

from repro.core.cluster_view import ClusterView
from repro.core.updown import grant_order
from repro.machine.accounting import COORDINATOR
from repro.net import Node, ReliableSender
from repro.sim.errors import SimulationError
from repro.telemetry import kinds as ev

#: Cycle CPU cost charged to the host station (<1 %, §3.1): a base plus
#: one unit per station polled (``per_station``) or per update absorbed
#: or probe sent (``per_update``).
CYCLE_BASE_COST = 0.05
CYCLE_UNIT_COST = 0.01


class ProbeRound:
    """One cycle's probe round in flight: the fan-out, its shared
    deadline, and what the replies said.

    The round is the fan-out's callback target and its bound methods are
    the kernel callbacks: :meth:`settle` per reply, :meth:`expire` when
    the deadline passes or the last target answers, and :meth:`finish`
    one zero-delay bounce later, which closes out the unanswered tickets
    and hands the round back to its coordinator.  The tickets reference
    the round through their callbacks; :meth:`finish` drops the round's
    reference to them, so a finished round is freed by reference count.
    """

    __slots__ = ("coordinator", "targets", "replies", "unreachable",
                 "pending", "fired", "tickets", "deadline")

    def __init__(self, coordinator, targets):
        self.coordinator = coordinator
        self.targets = targets
        self.replies = {}               # name -> poll reply, settle order
        self.unreachable = None         # names that never answered
        self.pending = len(targets)
        self.fired = False
        net = coordinator.net
        src = coordinator.name
        if net.latency_jitter:
            # Per-target RPCs: jitter makes settle order latency-dependent.
            rpc = net.rpc
            settle = self.settle
            self.tickets = [
                rpc(name, "poll", None, timeout=None,
                    callback=partial(settle, name), src=src)
                for name in targets
            ]
        else:
            self.tickets = [net.rpc_batch(targets, "poll", None,
                                          callback=self.settle, src=src)]
        # A station silent for one RPC timeout (the reliable sender's
        # ack timeout) is considered down.  The timer is armed eagerly
        # and cancelled by :meth:`finish` when every target answered.
        self.deadline = coordinator.sim.schedule(
            coordinator._retry.ack_timeout, self.expire)

    def settle(self, name, outcome):
        """One target's reply landed; after :meth:`finish` nothing reads
        what a late one records."""
        status, payload = outcome
        if status == "ok":
            self.replies[name] = payload
        self.pending -= 1
        if self.pending == 0 and not self.fired:
            self.expire()

    def expire(self):
        """Every target answered or the deadline passed: finish after
        whatever is already due at this instant."""
        self.fired = True
        self.coordinator.sim.schedule(0.0, self.finish)

    def finish(self):
        """Close the round out and hand it to the coordinator."""
        self.deadline.cancel()
        # The still-unsettled tickets are lost replies — close them out
        # so they do not linger as outstanding forever.
        for ticket in self.tickets:
            ticket.abandon()
        self.tickets = None
        replies = self.replies
        self.unreachable = {name for name in self.targets
                            if name not in replies}
        self.coordinator._round_done(self)


class CycleSnapshot:
    """What one cycle's allocation pass knows about the cluster.

    ``states`` maps station name to its observed state dict, ``holders``
    lists ``(host, home)`` for every machine reporting a foreign job.
    ``idle_hosts`` is a zero-arg callable returning the grantable
    stations in the deterministic order allocation relies on: a quiet
    cycle that issues nothing and has no trace subscriber never builds
    the list at all — the per-cycle rebuild was the dominant allocation
    cost at N=50000.
    """

    __slots__ = ("states", "wanting", "held_counts", "_idle_source",
                 "_idle_hosts", "_idle_count", "holders", "unreachable")

    def __init__(self, states, wanting, held_counts, idle_hosts, idle_count,
                 holders, unreachable):
        self.states = states
        self.wanting = wanting
        self.held_counts = held_counts
        self._idle_source = idle_hosts
        self._idle_hosts = None
        self._idle_count = idle_count
        self.holders = holders
        self.unreachable = unreachable

    @property
    def idle_hosts(self):
        """Grantable stations in deterministic order (built on demand)."""
        if self._idle_hosts is None:
            self._idle_hosts = self._idle_source()
        return self._idle_hosts

    def exclude_idle(self, names):
        """Drop ``names`` from the grantable set (order preserved).

        Used by federation to keep expired-lease borrowed stations out
        of the allocation pass while they drain back to their lender.
        """
        source = self._idle_source
        self._idle_source = lambda: [h for h in source() if h not in names]
        self._idle_hosts = None
        self._idle_count = None

    @property
    def idle_count(self):
        """``len(idle_hosts)`` without forcing the list to exist."""
        if self._idle_count is None:
            self._idle_count = len(self.idle_hosts)
        return self._idle_count

    def current_idle(self, name, now):
        """How long ``name`` has been idle, as of this cycle."""
        state = self.states[name]
        if not state["idle"]:
            return 0.0
        return now - state["idle_since"]


class Coordinator(Node):
    """Capacity allocator for the whole cluster (delta protocol)."""

    #: What ``coordinator_overhead_model="auto"`` charges a cycle for:
    #: the work it actually did (updates absorbed plus probes sent).
    auto_overhead_model = "per_update"

    def __init__(self, sim, net, station_names, policy, hub, config,
                 host_station=None, reservations=None, name="coordinator"):
        super().__init__(name)
        if not station_names:
            raise SimulationError("coordinator needs at least one station")
        self.sim = sim
        self.net = net
        self.station_names = list(station_names)
        self.policy = policy
        self.hub = hub
        self.config = config
        #: Station whose CPU pays the coordinator's overhead (may be None
        #: in unit tests).
        self.host_station = host_station
        #: Optional :class:`~repro.core.reservations.ReservationBook`
        #: (future work §5(3)); beneficiaries of an active window are
        #: served ahead of normal allocation.
        self.reservations = reservations
        for name in self.station_names:
            policy.register_station(name)
        #: host -> home this coordinator believes is placed there; poll
        #: replies/pushed states plus provisional entries for grants
        #: issued this cycle, used to detect jobs stranded by a host that
        #: stopped answering.
        self._hosting_map = {}
        #: host -> boot epoch last observed; a changed epoch means the
        #: host crashed and rebooted between observations, silently
        #: killing whatever it hosted.
        self._boot_epochs = {}
        #: Materialized cluster state for the delta protocol.
        self.view = ClusterView(self.station_names)
        self._cycle_index = 0
        #: Rotating anti-entropy position: each delta cycle sweeps the
        #: next ``ceil(N / anti_entropy_interval)`` stations, so every
        #: station is still probed once per interval but the cost is
        #: spread evenly instead of one O(N) burst every Nth cycle.
        self._ae_cursor = 0
        #: name -> cycle index of the last applied observation.  A
        #: station heard from within the current interval is provably in
        #: sync (seq-gated), so its anti-entropy probe is skipped.
        self._last_heard_cycle = {}
        #: Work units (updates absorbed + probes sent) since the last
        #: overhead charge — what a delta-mode cycle actually cost.
        self._work_units = 0
        self._last_update_at = None
        self._started = False
        #: Cycle counters for reports.
        self.cycles = 0
        self.grants_issued = 0
        self.preemptions_ordered = 0
        #: Instruments resolved once — ``_absorb`` runs for every push
        #: and probe reply (millions per simulated day at 50k stations)
        #: and a cycle runs every two simulated minutes, so the locked
        #: registry lookup is hoisted out of both.
        metrics = hub.metrics
        self._ctr_applied = metrics.counter("coordinator.updates_applied")
        self._ctr_stale = metrics.counter("coordinator.updates_stale")
        self._ctr_probes = metrics.counter("coordinator.probes_sent")
        self._ctr_cycles = metrics.counter("coordinator.cycles")
        self._ctr_grants = metrics.counter("coordinator.grants")
        self._ctr_preemptions = metrics.counter("coordinator.preemptions")
        self._gauge_idle = metrics.gauge("coordinator.idle_stations")
        self._gauge_wanting = metrics.gauge("coordinator.wanting_stations")
        self._hist_cycle = metrics.histogram("coordinator.cycle_seconds")
        #: At-least-once delivery for host_lost notices: a home that
        #: never learns its host died would strand the job forever.
        self._retry = ReliableSender(net, self.name, hub=hub)
        self.register_handler("state_update", self._handle_state_update)
        net.attach(self)

    def _send_host_lost(self, home, host):
        """Tell ``home`` its hosting machine is gone — must deliver.

        Retried until acknowledged; abandoned only if this coordinator
        itself crashes (its replacement re-detects the loss from its own
        probes).  The home-side handler is idempotent, so re-delivery
        after a lost ack is harmless.
        """
        self._retry.send(home, "host_lost", {"host": host},
                         abort=lambda: self.crashed)

    def start(self):
        """Begin the observe/allocate cycle.  Idempotent.

        The first tick is one poll interval after a zero-delay start
        event, so the cycle keeps the agenda slots it had as a process.
        """
        if not self._started:
            self._started = True
            self.sim.schedule(0.0, self._arm)

    # ------------------------------------------------------------------
    # the cycle: tick -> observe -> (quiet: two latency hops | probe: one
    # fan-out plus its deadline) -> one zero-delay bounce -> absorb ->
    # allocate -> arm the next tick, each step a kernel callback

    def _arm(self):
        self.sim.schedule(self.config.poll_interval, self._tick)

    def _tick(self):
        if self.crashed:
            self._arm()
            return
        targets = self._observe()
        if targets:
            ProbeRound(self, targets)
        else:
            # No probes needed; still wait the two message hops a poll
            # round takes, so state changes already in flight settle and
            # allocation sees exactly what polling mode would have.
            self.sim.schedule(self.net.latency, self._quiet_hop, False)

    def _quiet_hop(self, last):
        if not last:
            self.sim.schedule(self.net.latency, self._quiet_hop, True)
            return
        self._end_cycle(None if self.crashed else self._snapshot_from_view())

    def _round_done(self, probe_round):
        # Don't absorb observations made by a daemon that went down while
        # waiting on the replies.
        self._end_cycle(None if self.crashed
                        else self._absorb_round(probe_round))

    def _end_cycle(self, snapshot):
        if snapshot is not None:
            self._allocate(snapshot)
            self._charge_overhead()
            self._post_cycle()
        self._arm()

    def _post_cycle(self):
        """Hook after each allocation cycle (federation lease upkeep)."""

    # ------------------------------------------------------------------
    # delta protocol

    def _observe(self):
        """The cycle's observation step: the stations to probe this
        cycle, in registration order (empty for a quiet cycle).

        Quiet cycles cost two latency hops (so allocation happens at the
        same instant a full poll's would) and zero messages.  Cycles with
        active placements probe just those hosts; never-heard-from and
        quarantined stations are probed until they answer.  Anti-entropy
        is a *rotating* sweep: each cycle probes the next
        ``ceil(N / anti_entropy_interval)`` stations in registration
        order, so every station is still checked once per interval but
        the cost is even per cycle instead of an O(N) burst — the burst
        is what made the N=5000 run superlinear.  A sweep slot whose
        station was heard from (applied push or reply) within the
        current interval is skipped: the seq gate already proves that
        station in sync, so the probe could repair nothing.
        """
        self._cycle_index += 1
        interval = self.config.anti_entropy_interval
        order = self.view.order
        must_probe = set(self._hosting_map)
        must_probe.update(self.view.quarantined)
        must_probe.update(self.view.unknown_stations())
        targets = sorted(must_probe, key=order.__getitem__)
        names = self.station_names
        chunk = -(-len(names) // interval)
        cursor = self._ae_cursor
        last_heard = self._last_heard_cycle
        fresh_after = self._cycle_index - interval
        for i in range(cursor, cursor + chunk):
            name = names[i % len(names)]
            if name in must_probe:
                continue
            if last_heard.get(name, -interval) > fresh_after:
                continue
            targets.append(name)
        self._ae_cursor = (cursor + chunk) % len(names)
        if self._ae_cursor < cursor:
            self.hub.metrics.counter("coordinator.anti_entropy_polls").inc()
        if targets:
            self._work_units += len(targets)
            self._ctr_probes.inc(len(targets))
        return targets

    def _absorb_round(self, probe_round):
        """Fold a finished round's replies into the view, quarantine the
        silent, and snapshot the view for allocation."""
        view = self.view
        seqs = view.seqs
        quarantined = view.quarantined
        epochs = self._boot_epochs
        stale = 0
        for name, reply in probe_round.replies.items():
            state = reply["state"]
            seq = reply["seq"]
            prev = seqs.get(name)
            if (seq is not None and prev is not None and seq <= prev
                    and name not in quarantined
                    and state["boot_epoch"] == epochs.get(name)):
                # _absorb's quiet-station fast path, counted once below.
                stale += 1
                continue
            self._absorb(name, state, seq, from_reply=True)
        if stale:
            self._ctr_stale.inc(stale)
        # Registration order, not set order: _note_unreachable sends
        # host_lost notices, and their send order assigns loss draws —
        # set iteration would make that hash-seed dependent.
        for name in sorted(probe_round.unreachable,
                           key=view.order.__getitem__):
            self._note_unreachable(name)
        return self._snapshot_from_view()

    def _handle_state_update(self, payload):
        """A local scheduler pushed its new observable state."""
        name = payload["station"]
        if self.view.member(name):
            self._absorb(name, payload["state"], payload["seq"],
                         from_reply=False)

    def _absorb(self, name, state, seq, from_reply):
        """Fold one state observation into the view and bookkeeping."""
        view = self.view
        prev = view.seqs.get(name)
        if (seq is not None and prev is not None and seq <= prev
                and name not in view.quarantined
                and state["boot_epoch"] == self._boot_epochs.get(name)):
            # Quiet-station probe reply (or a reordered duplicate): same
            # incarnation, nothing newer than the seq gate has already
            # applied — the full path below would do exactly nothing,
            # and most anti-entropy replies in a large pool land here.
            self._ctr_stale.inc()
            return
        # Reboot signature first (mirrors the poll oracle's
        # PollingCoordinator._detect_lost_hosts): the host we
        # believed was running a foreign job reports a fresh boot with an
        # empty slot — the job died with the old incarnation.
        home = self._hosting_map.get(name)
        if (home is not None
                and state["boot_epoch"] != self._boot_epochs.get(name)
                and state["hosting_home"] is None):
            del self._hosting_map[name]
            self._send_host_lost(home, name)
        prev_seq = self.view.seqs.get(name)
        applied = self.view.apply(name, state, seq=seq,
                                  from_reply=from_reply)
        if not applied:
            self._ctr_stale.inc()
            return
        self._work_units += 1
        self._ctr_applied.inc()
        self._last_heard_cycle[name] = self._cycle_index
        self._boot_epochs[name] = state["boot_epoch"]
        if state["hosting_home"] is not None:
            self._hosting_map[name] = state["hosting_home"]
        else:
            # Mirrors the full-poll rebuild: a host answering with an
            # empty slot clears any provisional grant entry for it.
            self._hosting_map.pop(name, None)
        if (from_reply and prev_seq is not None
                and seq is not None and seq > prev_seq):
            # A pushed update never arrived; the anti-entropy poll (or a
            # probe) repaired the drift.  Absent on a healthy network.
            self.hub.emit(ev.COORDINATOR_VIEW_REPAIR, station=name,
                          time=self.sim.now, seq_from=prev_seq,
                          seq_to=seq)
            self.hub.metrics.counter("coordinator.view_repairs").inc()

    def _note_unreachable(self, name):
        """A probed station failed to answer: quarantine it and notify
        the home of any job it was hosting (once per outage)."""
        home = self._hosting_map.pop(name, None)
        if home is not None:
            self._send_host_lost(home, name)
        self.view.quarantine(name)

    def _snapshot_from_view(self):
        view = self.view
        holders = [(host, view.hosting[host])
                   for host in sorted(view.hosting, key=view.order.__getitem__)]
        return CycleSnapshot(view.states, view.wanting, view.held_counts,
                             view.idle_hosts, view.idle_count, holders,
                             view.quarantined)

    # ------------------------------------------------------------------
    # allocation

    def _allocate(self, snapshot):
        cycle_started = _wallclock.perf_counter()
        self.cycles += 1
        now = self.sim.now
        dt = (now - self._last_update_at if self._last_update_at is not None
              else self.config.poll_interval)
        self._last_update_at = now

        wanting = snapshot.wanting
        allocated_counts = snapshot.held_counts
        self.policy.update(wanting, allocated_counts, dt)

        ranked = self.policy.rank_requesters(wanting)

        # ``removed`` tracks idle hosts consumed ahead of ordinary grants
        # (reservations, gang launches).  The cycle's effective idle list
        # is ``snapshot.idle_hosts`` minus it — but that list is only
        # materialized by the stages that genuinely need the names; a
        # quiet cycle works entirely from the O(1) count.
        removed = set()
        reserved_grants, reserved_preemptions = (
            self._serve_reservations(snapshot, wanting, allocated_counts,
                                     removed)
        )
        gang_grants = self._serve_gangs(snapshot, ranked, removed)
        grants = reserved_grants + self._issue_grants(
            snapshot, ranked, removed, allocated_counts)
        # Record grants provisionally so a host that crashes right after
        # taking a fresh placement is covered by next cycle's detection
        # (if the placement never started, the home ignores the notice).
        for requester, host in grants:
            self._hosting_map[host] = requester
        preemptions = reserved_preemptions + self._order_preemptions(
            snapshot, ranked, grants, removed, allocated_counts)
        idle_count = snapshot.idle_count - len(removed)
        if self.hub.wants(ev.COORDINATOR_CYCLE):
            idle_hosts = snapshot.idle_hosts
            if removed:
                idle_hosts = [h for h in idle_hosts if h not in removed]
            self.hub.emit(
                ev.COORDINATOR_CYCLE,
                time=now, wanting=sorted(wanting), idle=sorted(idle_hosts),
                grants=grants, preemptions=preemptions,
                gang_grants=gang_grants,
                unreachable=sorted(snapshot.unreachable),
            )
        self._ctr_cycles.inc()
        self._ctr_grants.inc(len(grants))
        self._ctr_preemptions.inc(len(preemptions))
        self._gauge_idle.set(idle_count)
        self._gauge_wanting.set(len(wanting))
        # Wall-clock cost of one allocation pass; lives in the registry,
        # never in the (deterministic) trace stream.
        self._hist_cycle.observe(_wallclock.perf_counter() - cycle_started)

    def _serve_gangs(self, snapshot, ranked, removed):
        """Co-allocate machines for pending parallel programs (§5(2)).

        A gang launches only when its full width of machines is idle in
        one cycle; the burst of simultaneous placements deliberately
        bypasses the one-per-cycle throttle (the scheduling tension the
        paper predicted).  One gang per station per cycle.  Hosts handed
        out are added to the caller's ``removed`` set; the idle list is
        materialized only if some requester actually has a gang pending.
        """
        grants = []
        states = snapshot.states
        idle_hosts = None
        taken = set()   # idle hosts already handed to earlier gangs
        for requester in ranked:
            state = states.get(requester)
            if not state or not state.get("pending_gangs"):
                continue
            if idle_hosts is None:
                idle_hosts = snapshot.idle_hosts
                if removed:
                    idle_hosts = [h for h in idle_hosts if h not in removed]
            width = state["pending_gangs"][0]
            pool = [h for h in idle_hosts if h not in taken]
            if len(pool) < width:
                continue
            chosen = pool[:width]
            taken.update(chosen)
            hosts_payload = [
                (h, states[h]["free_mb"], states[h]["arch"])
                for h in chosen
            ]
            self.net.message(requester, "gang_grant",
                             {"hosts": hosts_payload}, src=self.name)
            for host in chosen:
                self._hosting_map[host] = requester
            self.grants_issued += width
            grants.append((requester, tuple(chosen)))
        removed.update(taken)
        return grants

    def _serve_reservations(self, snapshot, wanting, allocated_counts,
                            removed):
        """Grant (or free by preemption) machines owed to active
        reservations.  Bypasses the placement throttle and per-station
        caps — that is what a reservation buys — but never touches a
        machine hosting another reservation beneficiary, and owners keep
        absolute priority on their own machines regardless.  Idle hosts
        consumed are added to the caller's ``removed`` set."""
        if self.reservations is None:
            return [], []
        counts = self.reservations.reserved_counts(self.sim.now)
        if not counts:
            return [], []
        grants = []
        preemptions = []
        used = set()
        states = snapshot.states
        # Idle hosts are consumed front to back and never returned, so a
        # single shared iterator replaces the old O(N) rescan per grant.
        idle_iter = iter(snapshot.idle_hosts)
        for station in sorted(counts):
            if station not in wanting:
                continue
            state = states.get(station)
            if state is None:
                continue
            deficit = counts[station] - allocated_counts.get(station, 0)
            deficit = min(deficit, state["pending"])
            while deficit > 0:
                host = next(idle_iter, None)
                if host is not None:
                    used.add(host)
                    removed.add(host)
                    grants.append((station, host))
                    self.grants_issued += 1
                    self.net.message(station, "grant", {
                        "host": host,
                        "free_mb": states[host]["free_mb"],
                        "arch": states[host]["arch"],
                    }, src=self.name)
                    self._hosting_map[host] = station
                else:
                    victim = self._reservation_victim(snapshot, counts, used,
                                                      station)
                    if victim is None:
                        break
                    used.add(victim)
                    preemptions.append((station, victim))
                    self.preemptions_ordered += 1
                    self.net.message(victim, "preempt", {
                        "for_station": station, "reservation": True,
                    }, src=self.name)
                deficit -= 1
        return grants, preemptions

    def _reservation_victim(self, snapshot, reserved_counts, used, requester):
        """A host to evict for a reservation: hosting for a station that
        is neither the requester nor itself a reservation beneficiary,
        richest (highest policy index) first."""
        candidates = [
            (host, home)
            for host, home in snapshot.holders
            if host not in used and home != requester
            and home not in reserved_counts
        ]
        if not candidates:
            return None
        index = self.policy.index
        return max(candidates, key=lambda pair: (index(pair[1]), pair[0]))[0]

    def _issue_grants(self, snapshot, ranked, removed, allocated_counts):
        """Hand idle machines to requesters in Up-Down order.

        A requester may take ``grants_per_station_per_cycle`` machines,
        fewer if that would lift it past ``max_machines_per_station``.
        The idle set is built only when some requester gets a machine —
        on most cycles every ranked requester is already at its cap.
        Host selection is order-free because every mode totals-orders
        candidates by a key ending in the station name.
        """
        slots = min(self.config.placements_per_cycle,
                    snapshot.idle_count - len(removed))
        if slots <= 0:
            return []
        per_station = self.config.grants_per_station_per_cycle
        cap = self.config.max_machines_per_station
        allowance = {
            requester: (per_station if cap is None else
                        min(per_station,
                            cap - allocated_counts.get(requester, 0)))
            for requester in ranked
        }
        order = grant_order(ranked, slots, allowance)
        if not order:
            return []
        available = {h for h in snapshot.idle_hosts if h not in removed}
        states = snapshot.states
        grants = []
        for requester in order:
            host = self._select_host(snapshot, available)
            available.discard(host)
            grants.append((requester, host))
            self.grants_issued += 1
            self.net.message(requester, "grant", {
                "host": host, "free_mb": states[host]["free_mb"],
                "arch": states[host]["arch"],
            }, src=self.name)
        return grants

    def _select_host(self, snapshot, candidates):
        """Choose which idle machine to hand out next.

        ``arbitrary`` — deterministic by name (the deployed behaviour);
        ``longest_history`` — richest mean idle interval so far (the
        paper's future-work idea §5(1): stations with long past idle
        intervals tend to stay idle, so jobs placed there move less);
        ``current_idle`` — idle the longest right now.
        """
        mode = self.config.host_selection
        if mode == "arbitrary":
            return min(candidates)
        if mode == "longest_history":
            states = snapshot.states

            def history(name):
                mean = states[name]["mean_idle"]
                return mean if mean is not None else float("inf")
            return max(candidates, key=lambda n: (history(n), n))
        now = self.sim.now
        return max(candidates,
                   key=lambda n: (snapshot.current_idle(n, now), n))

    def _order_preemptions(self, snapshot, ranked, grants, removed,
                           allocated_counts):
        """When the pool is exhausted, evict for one deprived requester
        (the paper's one preemption per cycle)."""
        cap = self.config.max_machines_per_station
        granted = {requester for requester, _host in grants}
        used_hosts = {host for _requester, host in grants}
        holders = [
            (host, home) for host, home in snapshot.holders
            if host not in used_hosts
        ]
        # Grant hosts not already in ``removed`` came out of the filtered
        # idle list, so free idle capacity is a pure count — no set
        # difference over all idle hosts needed.
        free_idle_count = (
            snapshot.idle_count - len(removed)
            - sum(1 for h in used_hosts  # set-order-ok (pure count)
                  if h not in removed))
        if free_idle_count > 0:
            # Machines are still idle (the placement throttle held them
            # back this cycle); evicting anyone would be gratuitous.
            return []
        # Machines working for an active reservation are immune to
        # ordinary preemption for the duration of the window.
        reserved = (self.reservations.reserved_counts()
                    if self.reservations is not None else {})
        holders = [(host, home) for host, home in holders
                   if home not in reserved]
        states = snapshot.states
        for requester in ranked:
            if requester in granted:
                continue
            if states[requester]["pending"] == 0:
                # Only a gang is waiting: a single preempted machine
                # cannot launch it, so evicting anyone would be waste.
                continue
            if cap is not None and allocated_counts.get(requester, 0) >= cap:
                continue
            victim_host = self.policy.choose_preemption_victim(
                requester, holders
            )
            if victim_host is None:
                continue
            self.preemptions_ordered += 1
            self.net.message(victim_host, "preempt", {
                "for_station": requester,
            }, src=self.name)
            return [(requester, victim_host)]
        return []

    def _charge_overhead(self):
        work = self._work_units
        self._work_units = 0
        if self.host_station is None:
            return
        model = self.config.coordinator_overhead_model
        if model == "auto":
            model = self.auto_overhead_model
        if model == "per_station":
            work = len(self.station_names)
        self.host_station.ledger.charge(
            COORDINATOR, CYCLE_BASE_COST + CYCLE_UNIT_COST * work)

    # ------------------------------------------------------------------
    # failure / recovery (§2.1: the coordinator is cheap to move)

    def crash(self):
        """The coordinator stops: no new allocations, running jobs safe."""
        self.crashed = True

    def recover_at(self, station):
        """Restart the coordinator on another machine.

        Only the schedule indexes' history is lost if the caller swaps in
        a fresh policy; allocation state is rebuilt from the next
        observations.  The view is wiped — pushes sent while the
        coordinator was down are gone for good, so every station is
        treated as unknown and probed back into the view.
        """
        self.host_station = station
        self.crashed = False
        self.view.reset()
        self._ae_cursor = 0
        self._last_heard_cycle.clear()

    def __repr__(self):
        return (
            f"<Coordinator stations={len(self.station_names)} "
            f"cycles={self.cycles} grants={self.grants_issued} "
            f"preemptions={self.preemptions_ordered}>"
        )


class PollingCoordinator(Coordinator):
    """The 1988 coordinator: every cycle polls every station.

    :class:`~repro.core.condor.CondorSystem` builds it for the
    ``"poll"`` mode.  It is the reference the delta protocol is checked
    against: each cycle's snapshot and lost hosts are derived from
    scratch out of one full poll's replies, and the stations' pushes are
    acknowledged and dropped, so nothing the view machinery does can
    reach its decisions.
    """

    #: The 1988 model: every registered station costs a unit per cycle.
    auto_overhead_model = "per_station"

    def _observe(self):
        """Every station, every cycle."""
        return self.station_names

    def _absorb_round(self, probe_round):
        self._detect_lost_hosts(probe_round)
        self._work_units += len(probe_round.replies)
        return self._snapshot_from_poll(probe_round)

    def _handle_state_update(self, payload):
        """Ignore pushes: a full poll alone informs this coordinator."""

    def _detect_lost_hosts(self, poll):
        """Find hosts whose foreign job died with them since last cycle.

        Two signatures: the host stopped answering polls, or it answers
        with a *newer boot epoch* (it crashed and rebooted entirely
        between two polls — too fast for a timeout to show).  Either way
        the job it was hosting is gone; its home is told to restart it
        from the last checkpoint.
        """
        for host, home in list(self._hosting_map.items()):
            reply = poll.replies.get(host)
            if host in poll.unreachable:
                self._send_host_lost(home, host)
            elif (reply is not None
                  and reply["state"]["boot_epoch"]
                  != self._boot_epochs.get(host)
                  and reply["state"]["hosting_home"] is None):
                self._send_host_lost(home, host)
        self._hosting_map = {
            name: reply["state"]["hosting_home"]
            for name, reply in poll.replies.items()
            if reply["state"]["hosting_home"] is not None
        }
        self._boot_epochs = {
            name: reply["state"]["boot_epoch"]
            for name, reply in poll.replies.items()
        }

    def _snapshot_from_poll(self, poll):
        states = {name: reply["state"]
                  for name, reply in poll.replies.items()}
        wanting = {name for name, state in states.items()
                   if state["pending"] > 0 or state["pending_gangs"]}
        held_counts = {}
        holders = []
        for name, state in states.items():
            home = state["hosting_home"]
            if home is not None:
                held_counts[home] = held_counts.get(home, 0) + 1
                holders.append((name, home))
        idle_hosts = [
            name for name, state in states.items()
            if state["idle"] and state["hosting_home"] is None
            and state["free_mb"] > 0
        ]
        return CycleSnapshot(states, wanting, held_counts,
                             lambda: idle_hosts, len(idle_hosts), holders,
                             poll.unreachable)
