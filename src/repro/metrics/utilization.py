"""Cluster utilisation accounting (Figures 5 and 6, headline scalars).

Subscribes to every station's CPU ledger and integrates busy time into
hourly buckets per category group:

* ``local``    — the owner's own activity (the paper's dashed line);
* ``remote``   — foreign Condor jobs executing (what Condor harvested);
* ``support``  — placement/checkpoint/syscall support on home stations;
* ``daemon``   — local scheduler and coordinator background load.

System utilisation (the solid line in Fig. 5/6) is local + remote.
"""

from repro.machine.accounting import (
    CHECKPOINT,
    COORDINATOR,
    LOCAL_JOB,
    OWNER,
    PLACEMENT,
    REMOTE_JOB,
    SCHEDULER,
    SYSCALL,
)
from repro.metrics.timeseries import HourlyAccumulator
from repro.sim import HOUR

GROUP_OF = {
    OWNER: "local",
    LOCAL_JOB: "local",
    REMOTE_JOB: "remote",
    PLACEMENT: "support",
    CHECKPOINT: "support",
    SYSCALL: "support",
    SCHEDULER: "daemon",
    COORDINATOR: "daemon",
}

GROUPS = ("local", "remote", "support", "daemon")


class UtilizationMonitor:
    """Integrates every ledger entry of a set of stations by hour.

    Attaches to each station's ledger directly rather than to the hub's
    ``ledger_entry`` stream, so an unrecorded run never builds an event
    object per ledger entry (``hub.wants(ledger_entry)`` stays false).
    """

    def __init__(self, stations):
        self.stations = list(stations)
        self.accumulators = {group: HourlyAccumulator() for group in GROUPS}
        #: category -> accumulator, flattened so the per-entry hot path
        #: (millions of calls in a 50k-station day) does one lookup.
        self._acc_of = {category: self.accumulators[group]
                        for category, group in GROUP_OF.items()}
        for station in self.stations:
            station.ledger.subscribe(self._on_entry)

    def _on_entry(self, category, t0, t1, fraction):
        self._acc_of[category].add_interval(t0, t1, fraction)

    # ------------------------------------------------------------------
    # series (fractions of total cluster capacity per hour)

    @property
    def capacity_per_hour(self):
        """Cluster CPU seconds available in one hour."""
        return len(self.stations) * HOUR

    def fraction_series(self, groups, n_hours, start_hour=0):
        """Hourly utilisation fraction summed over ``groups``."""
        capacity = self.capacity_per_hour
        totals = [0.0] * n_hours
        for group in groups:
            series = self.accumulators[group].series(n_hours, start_hour)
            totals = [t + s for t, s in zip(totals, series)]
        return [t / capacity for t in totals]

    def local_series(self, n_hours, start_hour=0):
        """The paper's "local workstation utilisation" dashed line."""
        return self.fraction_series(("local",), n_hours, start_hour)

    def system_series(self, n_hours, start_hour=0):
        """The paper's "system utilisation" solid line (local + remote)."""
        return self.fraction_series(("local", "remote"), n_hours, start_hour)

    # ------------------------------------------------------------------
    # scalars (§3's headline numbers)

    def local_hours(self):
        """Owner-consumed capacity over the whole run, in CPU hours."""
        return self.accumulators["local"].total() / HOUR

    def remote_hours(self):
        """Capacity Condor delivered to jobs, in CPU hours (the paper's
        4771 'machine hours consumed by the Condor system')."""
        return self.accumulators["remote"].total() / HOUR

    def support_hours(self):
        return self.accumulators["support"].total() / HOUR

    def daemon_hours(self):
        return self.accumulators["daemon"].total() / HOUR

    def available_hours(self, horizon_seconds):
        """Capacity not used by owners over the run (the paper's 12438
        'hours available for remote execution')."""
        total = len(self.stations) * horizon_seconds / HOUR
        return total - self.local_hours()

    def average_local_utilization(self, horizon_seconds):
        total = len(self.stations) * horizon_seconds / HOUR
        return self.local_hours() / total

    def __repr__(self):
        return f"<UtilizationMonitor stations={len(self.stations)}>"
