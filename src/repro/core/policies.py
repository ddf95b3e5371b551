"""Baseline capacity-allocation policies the paper's Up-Down is judged
against.

The paper's fairness claim (§2.4, Fig. 4) is that Up-Down keeps light
users' wait ratios near zero despite a heavy user queueing more jobs than
there are machines.  These baselines expose what happens without it:

* :class:`FcfsPolicy` — requests served strictly in the order stations
  first asked; a heavy user who asked first monopolises the pool.
* :class:`RoundRobinPolicy` — priority rotated among requesters; fair in
  grants per cycle but blind to what each station already holds.

Both are preemption-free (a granted machine is held until the owner
returns or the job finishes), isolating Up-Down's preemption as well.
"""


class AllocationPolicy:
    """Interface the coordinator drives each scheduling cycle."""

    name = "base"
    allows_preemption = False

    def register_station(self, name):
        """Called once per station at system construction."""

    def update(self, wanting, allocated_counts, dt_seconds):
        """Per-cycle bookkeeping before ranking."""

    def rank_requesters(self, requesters):
        """Order the stations that want capacity; first gets served first."""
        raise NotImplementedError

    def choose_preemption_victim(self, requester, holders):
        """Return a host to preempt for ``requester``, or ``None``."""
        return None


class FcfsPolicy(AllocationPolicy):
    """First-come-first-served on the *station's* first unmet request.

    A station enters the arrival order when it starts wanting capacity
    and leaves it when its queue drains; while it keeps wanting (the
    heavy user always does) it keeps its early position.
    """

    name = "fcfs"

    def __init__(self):
        self._arrival_order = []
        self._counter = 0
        self._position = {}

    def update(self, wanting, allocated_counts, dt_seconds):
        for name in sorted(wanting):
            if name not in self._position:
                self._position[name] = self._counter
                self._counter += 1
        for name in list(self._position):
            if name not in wanting:
                del self._position[name]

    def rank_requesters(self, requesters):
        known = [r for r in requesters if r in self._position]
        unknown = sorted(r for r in requesters if r not in self._position)
        return sorted(known, key=lambda r: self._position[r]) + unknown


class RoundRobinPolicy(AllocationPolicy):
    """Rotate priority among requesters; fair in grants-per-cycle but
    blind to how much each station already holds (unlike Up-Down)."""

    name = "round-robin"

    def __init__(self):
        self._next = 0

    def rank_requesters(self, requesters):
        order = sorted(requesters)
        if not order:
            return order
        pivot = self._next % len(order)
        self._next += 1
        return order[pivot:] + order[:pivot]
