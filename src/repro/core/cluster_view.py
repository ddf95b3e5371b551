"""The coordinator's materialized view of the cluster (delta protocol).

The delta-protocol coordinator does not poll every station every cycle
(the reference ``PollingCoordinator`` does, and never reads this view).
Each local scheduler pushes a compact ``state_update`` message whenever
its observable state changes (idle transition, pending count, hosting
assignment, disk headroom, boot epoch); this module keeps the last-known
state per station *plus* the derived structures the allocation pass
needs — the wanting set, the held-machine counts, the hosting map, and
the idle list in station order — maintained incrementally so a cycle
over a quiet 5000-station cluster does O(changed) work, not O(N).

Staleness is handled with a per-sender monotonic sequence number: an
update (or an anti-entropy poll reply) is applied only if its ``seq`` is
newer than the last applied one, so reordered or delayed messages can
never roll the view backward.  A station that fails a probe is
*quarantined*: it drops out of every derived structure and its late
in-flight updates are rejected until either a poll reply proves it
reachable again or an update arrives with a newer boot epoch (the
machine demonstrably rebooted).
"""

from bisect import bisect_left, insort

from repro.sim.errors import SimulationError


def observable_idle(state):
    """Whether a station's state makes it grantable as a host."""
    return (state["idle"] and state["hosting_home"] is None
            and state["free_mb"] > 0)


def observable_wanting(state):
    """Whether a station's state says it wants capacity."""
    return state["pending"] > 0 or bool(state["pending_gangs"])


class ClusterView:
    """Last-known station states plus incrementally derived allocation sets."""

    __slots__ = ("names", "order", "states", "seqs", "quarantined",
                 "wanting", "held_counts", "hosting", "_idle", "_unknown",
                 "_retired")

    def __init__(self, station_names):
        if not station_names:
            raise SimulationError("ClusterView needs at least one station")
        self.names = list(station_names)
        self.order = {name: i for i, name in enumerate(self.names)}
        #: Stations never heard from, maintained incrementally so the
        #: per-cycle probe pass never scans all N names.
        self._unknown = set(self.names)
        #: name -> last applied state dict (absent until first heard from).
        self.states = {}
        #: name -> seq of the last applied update/reply.
        self.seqs = {}
        #: Stations believed unreachable (failed a probe; see module doc).
        self.quarantined = set()
        #: Stations whose effective state wants capacity.
        self.wanting = set()
        #: home -> number of machines hosting for it (effective states).
        self.held_counts = {}
        #: host -> home for every machine reporting a foreign job.
        self.hosting = {}
        #: Station *indices* currently grantable, kept sorted so the
        #: cycle's idle list comes out in station-registration order —
        #: the same order a full poll's replies settle in.
        self._idle = []
        #: Former members (stations lent to another pool).  Their slot in
        #: ``names``/``order`` survives as a tombstone so registration
        #: indices stay stable if the station comes back.
        self._retired = set()

    # ------------------------------------------------------------------
    # dynamic membership (federation leases)

    def member(self, name):
        """Whether ``name`` currently belongs to this view."""
        return name in self.order and name not in self._retired

    def add_station(self, name, state=None):
        """Admit a station (a borrowed machine, or a returning loan).

        With ``state`` the view starts from that observation; without it
        the station joins as unknown and is probed into the view.
        """
        if name in self.order:
            if name not in self._retired:
                raise SimulationError(f"station {name!r} already in view")
            self._retired.discard(name)
        else:
            self.order[name] = len(self.names)
            self.names.append(name)
        if state is not None:
            self.apply(name, state, from_reply=True)
        else:
            self._unknown.add(name)

    def remove_station(self, name):
        """Retire a member (lent out); returns its last state or ``None``.

        Both the state *and* the applied-seq record are dropped: the
        station's scheduler keeps counting its push sequence while away,
        and a re-admission must not read the borrower-era numbers as
        drift (a spurious view-repair event).
        """
        if not self.member(name):
            raise SimulationError(f"station {name!r} not in view")
        old = self._effective(name)
        self._retired.add(name)
        self._refresh(name, old, None)
        self.seqs.pop(name, None)
        self.quarantined.discard(name)
        self._unknown.discard(name)
        return self.states.pop(name, None)

    # ------------------------------------------------------------------
    # queries

    def known(self, name):
        return name in self.states

    def unknown_stations(self):
        """Stations never heard from (probed every cycle until they are)."""
        return sorted(self._unknown, key=self.order.__getitem__)

    def idle_hosts(self):
        """Grantable stations, in station-registration order."""
        names = self.names
        return [names[i] for i in self._idle]

    @property
    def idle_count(self):
        """How many stations are grantable, without building the list."""
        return len(self._idle)

    # ------------------------------------------------------------------
    # mutation

    def apply(self, name, state, seq=None, from_reply=False):
        """Absorb one state observation; returns ``True`` if applied.

        ``seq`` is the sender's push sequence number, carried in the
        message envelope next to the (shared, never-mutated) state dict
        so the hot paths never copy the state just to tag it.

        ``from_reply=True`` marks a direct poll/probe reply: receiving
        one proves the station reachable, so it always lifts quarantine —
        but the *content* is still sequence-gated (the reply may race a
        newer push).  A pushed update cannot lift quarantine unless its
        boot epoch is newer than the last known one: a message from
        before the crash must not resurrect a dead host, while a genuine
        reboot announces itself with a bumped epoch.
        """
        if name not in self.order or name in self._retired:
            raise SimulationError(f"unknown station {name!r} in view")
        lifted = False
        if name in self.quarantined:
            if from_reply:
                self.quarantined.discard(name)
                lifted = True
            else:
                known = self.states.get(name)
                if known is not None and not (
                        state["boot_epoch"] > known["boot_epoch"]):
                    return False
                self.quarantined.discard(name)
                lifted = True
        prev_seq = self.seqs.get(name)
        if seq is not None and prev_seq is not None and seq <= prev_seq:
            # Stale content: nothing stored, so the derived sets only
            # move if the reply just lifted a quarantine (the common
            # case — a quiet station re-probed by the anti-entropy sweep
            # — skips the refresh entirely).
            if lifted:
                self._refresh(name, None, self._effective(name))
            return False
        old = None if lifted else self._effective(name)
        self.states[name] = state
        self._unknown.discard(name)
        if seq is not None:
            self.seqs[name] = seq
        self._refresh(name, old, self._effective(name))
        return True

    def quarantine(self, name):
        """Mark a station unreachable; drop it from the derived sets."""
        if name in self.quarantined:
            return
        old = self._effective(name)
        self.quarantined.add(name)
        self._refresh(name, old, None)

    def reset(self):
        """Forget everything (a recovered coordinator resyncs from zero).

        Retired (lent-out) stations stay retired: the lease, not the
        crash, decides when they come back.
        """
        self.states.clear()
        retired = self._retired
        self._unknown = {n for n in self.names if n not in retired}
        self.seqs.clear()
        self.quarantined.clear()
        self.wanting.clear()
        self.held_counts.clear()
        self.hosting.clear()
        del self._idle[:]

    # ------------------------------------------------------------------
    # derived-set maintenance

    def _effective(self, name):
        """The state allocation may rely on (``None`` when quarantined)."""
        if name in self.quarantined:
            return None
        return self.states.get(name)

    def _refresh(self, name, old, new):
        old_wanting = old is not None and observable_wanting(old)
        new_wanting = new is not None and observable_wanting(new)
        if old_wanting != new_wanting:
            if new_wanting:
                self.wanting.add(name)
            else:
                self.wanting.discard(name)
        old_idle = old is not None and observable_idle(old)
        new_idle = new is not None and observable_idle(new)
        if old_idle != new_idle:
            idx = self.order[name]
            if new_idle:
                insort(self._idle, idx)
            else:
                del self._idle[bisect_left(self._idle, idx)]
        old_home = old["hosting_home"] if old is not None else None
        new_home = new["hosting_home"] if new is not None else None
        if old_home != new_home:
            if old_home is not None:
                remaining = self.held_counts[old_home] - 1
                if remaining:
                    self.held_counts[old_home] = remaining
                else:
                    del self.held_counts[old_home]
                del self.hosting[name]
            if new_home is not None:
                self.held_counts[new_home] = (
                    self.held_counts.get(new_home, 0) + 1)
                self.hosting[name] = new_home

    def __repr__(self):
        return (
            f"<ClusterView known={len(self.states)}/{len(self.names)} "
            f"idle={len(self._idle)} wanting={len(self.wanting)} "
            f"quarantined={len(self.quarantined)}>"
        )
