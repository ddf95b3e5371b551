"""The Up-Down fair-share allocation policy (Mutka & Livny 1987, §2.4).

The coordinator keeps a *schedule index* per workstation:

* while a station holds remote capacity, its index rises (proportionally
  to how many machines it holds);
* while it wants capacity and is denied, its index falls;
* otherwise the index relaxes toward zero.

A lower index means higher priority.  The effect the paper demonstrates
(Fig. 4): a heavy user who keeps 30+ jobs in the system accumulates a
large index and queues behind light users, whose occasional small batches
are served immediately — yet the heavy user still soaks up all capacity
nobody else wants.

Index maintenance is incremental.  :meth:`update` touches only the
stations that hold or want capacity this cycle — O(changed), not O(N) —
while every other station is merely *decaying*, which needs no work at
all until somebody looks at its index.  Each cycle's duration is appended
to a shared history; a station's index is materialized on demand by
replaying the decay steps it missed, stopping early once the value hits
exactly zero (after which further decay is the identity).  The replay
applies the same float operations in the same order as the original
every-station-every-cycle loop, so materialized values are bit-identical
to the eager implementation — a requirement of the delta-vs-poll
golden-trace equivalence test.

The history is bounded: once it holds :data:`HISTORY_LIMIT` cycles every
station is folded up to date (the same replay, merely run earlier, so
the values stay bit-identical) and the consumed prefix is dropped.  A
pass over the stations every ``HISTORY_LIMIT`` cycles keeps the
per-cycle cost O(changed) amortised, and a daemon cycling a hundred
times a second for weeks holds a few thousand floats, not millions.
"""

from repro.sim.errors import SimulationError

#: Cycles of decay history kept before lagging stations are folded up to
#: date and the history dropped.
HISTORY_LIMIT = 4096


class UpDownPolicy:
    """Schedule-index bookkeeping plus ranking and preemption choice.

    Parameters
    ----------
    up_rate:
        Index increase per allocated machine per minute of holding it.
    down_rate:
        Index decrease per minute spent wanting capacity and getting none.
    decay_rate:
        Drift toward zero per minute when neither using nor wanting.
    preemption_margin:
        A requester only preempts a holder whose index exceeds the
        requester's by at least this much — hysteresis against thrashing.
    """

    name = "up-down"
    allows_preemption = True

    def __init__(self, up_rate=1.0, down_rate=1.0, decay_rate=0.25,
                 preemption_margin=2.0):
        if min(up_rate, down_rate, decay_rate) < 0 or preemption_margin < 0:
            raise SimulationError("Up-Down rates must be >= 0")
        self.up_rate = up_rate
        self.down_rate = down_rate
        self.decay_rate = decay_rate
        self.preemption_margin = preemption_margin
        self._index = {}
        #: dt (minutes) of the most recent cycles; the decay schedule a
        #: lagging station replays when its index is next needed.
        self._history = []
        #: Cycles seen so far: ``_history`` holds the last of them, the
        #: ones before are folded into every index and dropped.
        self._cycle = 0
        #: name -> number of cycles already folded into _index.
        self._synced = {}

    def register_station(self, name):
        """Start tracking a station; initial index is zero (§2.4)."""
        if name not in self._index:
            self._index[name] = 0.0
            self._synced[name] = self._cycle

    def restore_index(self, name, value):
        """Start (or resume) tracking ``name`` at a saved index — a
        restarted coordinator reloading what its predecessor persisted."""
        self._index[name] = value
        self._synced[name] = self._cycle

    def _materialize(self, name, through):
        """Replay the decay steps ``name`` missed, up to cycle ``through``."""
        synced = self._synced[name]
        if synced >= through:
            return
        value = self._index[name]
        if value == 0.0:
            self._synced[name] = through
            return
        history = self._history
        dropped = self._cycle - len(history)
        decay_rate = self.decay_rate
        for k in range(synced - dropped, through - dropped):
            step = decay_rate * history[k]
            if value > 0:
                value = max(0.0, value - step)
            elif value < 0:
                value = min(0.0, value + step)
            if value == 0.0:
                break
        self._index[name] = value
        self._synced[name] = through

    def index(self, name):
        """Current schedule index of ``name`` (0.0 if never seen)."""
        if name not in self._index:
            return 0.0
        self._materialize(name, self._cycle)
        return self._index[name]

    def update(self, wanting, allocated_counts, dt_seconds):
        """One coordinator cycle's index maintenance.

        ``wanting`` — stations with pending jobs that got nothing yet;
        ``allocated_counts`` — station -> number of machines it holds;
        ``dt_seconds`` — time since the previous update.

        Only the active stations are touched; everyone else decays
        lazily against the appended history entry.
        """
        dt_minutes = dt_seconds / 60.0
        if len(self._history) >= HISTORY_LIMIT:
            for name in self._index:
                self._materialize(name, self._cycle)
            self._history.clear()
        self._history.append(dt_minutes)
        cycle = self._cycle = self._cycle + 1
        index = self._index
        for name in wanting:
            if name not in index:
                continue
            self._materialize(name, cycle - 1)
            held = allocated_counts.get(name, 0)
            if held > 0:
                index[name] += self.up_rate * held * dt_minutes
            else:
                index[name] -= self.down_rate * dt_minutes
            self._synced[name] = cycle
        for name, held in allocated_counts.items():
            if held <= 0 or name in wanting or name not in index:
                continue
            self._materialize(name, cycle - 1)
            index[name] += self.up_rate * held * dt_minutes
            self._synced[name] = cycle

    def aggregate_pressure(self, names):
        """Total deprivation across ``names`` (federation advertisement).

        A station's *pressure* is how far its schedule index has fallen
        below zero — i.e. how long it has wanted capacity and been
        denied.  Pools advertise the sum so the matchmaker serves the
        most-deprived pool first, extending Up-Down fairness across pool
        boundaries: machines a borrower holds through a lease charge the
        borrower's index exactly as local holdings do, so a pool cannot
        borrow its way past the fair-share accounting.  Callers pass
        ``names`` in a deterministic order (float addition is not
        associative).
        """
        total = 0.0
        for name in names:
            index = self.index(name)
            if index < 0.0:
                total -= index
        return total

    def rank_requesters(self, requesters):
        """Order stations wanting capacity, most-deprived (lowest index)
        first; name breaks ties deterministically."""
        return sorted(requesters, key=lambda name: (self.index(name), name))

    def choose_preemption_victim(self, requester, holders):
        """Pick the hosting assignment to preempt for ``requester``.

        ``holders`` is ``[(host_name, home_name), ...]`` for every machine
        currently executing a foreign job.  Returns a ``host_name`` whose
        job's *home* has the highest index, provided that index exceeds
        the requester's by the margin; else ``None`` (no preemption).
        """
        best = None
        best_index = None
        for host, home in holders:
            if home == requester:
                continue
            home_index = self.index(home)
            if best_index is None or home_index > best_index:
                best, best_index = host, home_index
        if best is None:
            return None
        if best_index < self.index(requester) + self.preemption_margin:
            return None
        return best

    def __repr__(self):
        indexes = {name: self.index(name) for name in sorted(self._index)}
        return f"<UpDownPolicy {indexes}>"


def grant_order(ranked, slots, allowance):
    """Who gets each of a cycle's machines, in Up-Down grant order.

    Passes over ``ranked`` (most deprived first), one machine per
    requester per pass, until ``slots`` machines are handed out or no
    requester has ``allowance`` left (requester -> machines it may take;
    absent or below one is none).  Returns one requester per machine.
    """
    left = [max(0, allowance.get(requester, 0)) for requester in ranked]
    order = []
    while len(order) < slots and any(left):
        for i, requester in enumerate(ranked):
            if len(order) == slots:
                break
            if left[i]:
                left[i] -= 1
                order.append(requester)
    return order
