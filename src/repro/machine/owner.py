"""Owner-activity models: when does the workstation's owner use it?

The availability process is the raw material Condor scavenges.  The paper
(and the companion profiling study, Mutka & Livny 1987) reports:

* average local utilisation ≈ 25 % over the observed month,
* afternoon weekday peaks around 50 %, evenings/nights near 20 %,
* availability is heterogeneous: some stations are idle for very long
  stretches while others are reclaimed frequently — the reason long jobs
  see a *lower* checkpoint rate (they eventually land on a quiet station).

:class:`DiurnalOwner` reproduces the diurnal/weekly shape; per-station
``busyness`` factors (drawn by :func:`sample_busyness`) supply the
heterogeneity.  Simpler models back unit tests and ablations.
"""

import math

from repro.sim import DAY, HOUR, WEEK
from repro.sim.errors import SimulationError

#: Relative intensity of owner-session starts by hour of day (weekdays).
#: Shaped to the paper's Figure 6: morning ramp, afternoon peak, quiet night.
DEFAULT_HOUR_WEIGHTS = (
    0.10, 0.05, 0.05, 0.05, 0.05, 0.10,   # 00-05
    0.20, 0.50, 1.20, 2.00, 2.40, 2.40,   # 06-11
    2.20, 2.60, 2.80, 2.80, 2.40, 1.80,   # 12-17
    1.20, 0.90, 0.70, 0.50, 0.30, 0.15,   # 18-23
)

#: Saturday/Sunday intensity multiplier.
DEFAULT_WEEKEND_FACTOR = 0.25

#: Shared hour-of-week rate tables (see :class:`DiurnalOwner`).
_WEEK_RATES = {}
#: Shared normalised hour weights, keyed by the raw ones.
_HOUR_WEIGHTS = {}


class OwnerActivityModel:
    """Base class: drives a station's owner between active and away."""

    def run(self, sim, station):
        """Generator process; must call ``station.owner_arrived()`` /
        ``station.owner_departed()`` as the owner comes and goes."""
        raise NotImplementedError


class NeverActiveOwner(OwnerActivityModel):
    """A dedicated pool machine — the owner never appears."""

    def run(self, sim, station):
        return
        yield  # pragma: no cover - makes this a generator function


class AlwaysActiveOwner(OwnerActivityModel):
    """The owner never leaves (station contributes nothing to the pool)."""

    def run(self, sim, station):
        station.owner_arrived()
        return
        yield  # pragma: no cover


class AlternatingOwner(OwnerActivityModel):
    """Alternating renewal process: idle for ``away_dist``, active for
    ``active_dist``.  The workhorse for unit tests and microbenchmarks."""

    def __init__(self, away_dist, active_dist, stream, start_active=False):
        self.away_dist = away_dist
        self.active_dist = active_dist
        self.stream = stream
        self.start_active = start_active

    def run(self, sim, station):
        if self.start_active:
            station.owner_arrived()
            yield self.active_dist.sample(self.stream)
            station.owner_departed()
        while True:
            yield self.away_dist.sample(self.stream)
            station.owner_arrived()
            yield self.active_dist.sample(self.stream)
            station.owner_departed()


class TraceOwner(OwnerActivityModel):
    """Replay explicit owner-active intervals ``[(start, end), ...]``.

    Used by trace-driven tests and by the workload replay tooling.
    """

    def __init__(self, intervals):
        previous_end = 0.0
        for start, end in intervals:
            if start < previous_end or end <= start:
                raise SimulationError(
                    f"owner trace intervals must be sorted and disjoint, "
                    f"got ({start}, {end}) after end={previous_end}"
                )
            previous_end = end
        self.intervals = [(float(s), float(e)) for s, e in intervals]

    def run(self, sim, station):
        for start, end in self.intervals:
            delay = start - sim.now
            if delay > 0:
                yield delay
            station.owner_arrived()
            yield end - sim.now
            station.owner_departed()


class DiurnalOwner(OwnerActivityModel):
    """Nonhomogeneous-Poisson owner sessions with a weekly profile.

    Session *starts* arrive at rate ``busyness * base_sessions_per_day``
    modulated by hour-of-day weights and a weekend factor (thinning
    algorithm); each session lasts ``session_dist`` seconds.  Simulation
    time 0 is Monday 00:00.
    """

    def __init__(self, session_dist, stream, busyness=1.0,
                 base_sessions_per_day=9.0,
                 hour_weights=DEFAULT_HOUR_WEIGHTS,
                 weekend_factor=DEFAULT_WEEKEND_FACTOR):
        if len(hour_weights) != 24:
            raise SimulationError("hour_weights must have 24 entries")
        if busyness < 0 or base_sessions_per_day <= 0:
            raise SimulationError(
                f"bad DiurnalOwner(busyness={busyness}, "
                f"base_sessions_per_day={base_sessions_per_day})"
            )
        self.session_dist = session_dist
        self.stream = stream
        self.busyness = float(busyness)
        self.base_sessions_per_day = float(base_sessions_per_day)
        raw = tuple(hour_weights)
        weights = _HOUR_WEIGHTS.get(raw)
        if weights is None:
            mean_weight = sum(raw) / 24.0
            weights = _HOUR_WEIGHTS[raw] = tuple(
                w / mean_weight for w in raw)
        self.hour_weights = weights
        self.weekend_factor = float(weekend_factor)
        self._max_rate = (
            self.busyness * self.base_sessions_per_day / DAY
            * max(max(self.hour_weights), 1e-12)
        )
        #: Session-start rate per hour-of-week (168 entries), so the
        #: inversion sampler in :meth:`run` never recomputes weights.
        #: Memoized across instances: busyness comes from a small
        #: discrete mix, so a 50k-station cluster builds a handful of
        #: distinct tables instead of 50k x 168 entries at startup.
        base = self.busyness * self.base_sessions_per_day / DAY
        key = (base, self.hour_weights, self.weekend_factor)
        rates = _WEEK_RATES.get(key)
        if rates is None:
            rates = _WEEK_RATES[key] = tuple(
                base * self.hour_weights[hour % 24]
                * (self.weekend_factor if hour // 24 >= 5 else 1.0)
                for hour in range(168)
            )
        self._week_rates = rates

    def rate(self, t):
        """Instantaneous session-start rate (starts per second) at time t."""
        week_second = t % WEEK
        day_of_week = int(week_second // DAY)        # 0 = Monday
        hour = int((week_second % DAY) // HOUR)
        day_factor = self.weekend_factor if day_of_week >= 5 else 1.0
        return (
            self.busyness * self.base_sessions_per_day / DAY
            * self.hour_weights[hour] * day_factor
        )

    def expected_active_fraction(self, horizon=WEEK):
        """Approximate long-run fraction of time the owner is active."""
        mean_session = self.session_dist.mean()
        steps = int(horizon // HOUR)
        total = sum(self.rate(i * HOUR) * HOUR for i in range(steps))
        return min(1.0, total * mean_session / horizon)

    def _next_session_start(self, t):
        """Next arrival of the nonhomogeneous Poisson process after ``t``.

        Exact inversion over the piecewise-constant weekly rate: draw a
        unit-rate exponential target and walk hour boundaries, consuming
        ``rate * span`` per hour until the target is exhausted.  One
        random draw per session start — the thinning sampler this
        replaces woke the process for every *candidate* and spent two
        draws on each, most of them rejected off-peak.
        """
        target = self.stream.expovariate(1.0)
        week_rates = self._week_rates
        while True:
            hour = int((t % WEEK) // HOUR)
            rate = week_rates[hour]
            boundary = (t // HOUR + 1.0) * HOUR
            span = boundary - t
            if rate > 0.0:
                step = target / rate
                if step <= span:
                    return t + step
                target -= rate * span
            t = boundary

    def run(self, sim, station):
        if self.busyness == 0.0 or self._max_rate == 0.0:
            return
        while True:
            start = self._next_session_start(sim.now)
            yield start - sim.now
            station.owner_arrived()
            yield self.session_dist.sample(self.stream)
            station.owner_departed()


#: Discrete busyness mix giving the paper's station heterogeneity:
#: a handful of heavily used desks, a majority of normal ones, and a
#: tail of machines that sit idle nearly all day.
DEFAULT_BUSYNESS_MIX = ((0.20, 2.2), (0.50, 1.0), (0.30, 0.25))


def sample_busyness(stream, mix=DEFAULT_BUSYNESS_MIX):
    """Draw a per-station busyness factor from a discrete mix.

    ``mix`` is ``((probability, factor), ...)``; probabilities must sum
    to 1.  Heterogeneous busyness is what gives some stations long
    available intervals (paper §3.1 / future-work item 1).
    """
    total = sum(p for p, _ in mix)
    if not math.isclose(total, 1.0, rel_tol=1e-9):
        raise SimulationError(f"busyness mix probabilities sum to {total}")
    u = stream.random()
    acc = 0.0
    for probability, factor in mix:
        acc += probability
        if u <= acc:
            return factor
    return mix[-1][1]


class CorrelatedOwner(OwnerActivityModel):
    """Alternating owner with *autocorrelated* idle intervals.

    The profiling study behind the paper (and future-work item §5(1))
    found that "workstations with long available intervals tend to have
    their next available interval long".  This model produces exactly
    that: consecutive idle-interval lengths follow a log-AR(1) process
    with lag-1 correlation ``rho``; sessions are drawn independently.

    With ``rho = 0`` it degenerates to independent lognormal gaps.
    """

    def __init__(self, mean_idle, session_dist, stream, rho=0.6,
                 sigma=0.8):
        if not 0.0 <= rho < 1.0:
            raise SimulationError(f"rho must be in [0, 1), got {rho}")
        if mean_idle <= 0 or sigma <= 0:
            raise SimulationError(
                f"bad CorrelatedOwner(mean_idle={mean_idle}, sigma={sigma})"
            )
        self.mean_idle = float(mean_idle)
        self.session_dist = session_dist
        self.stream = stream
        self.rho = float(rho)
        self.sigma = float(sigma)
        # Stationary log-mean such that E[idle] == mean_idle for the
        # lognormal with stationary variance sigma^2.
        self._mu = math.log(mean_idle) - sigma * sigma / 2.0

    def _next_log_idle(self, previous_log):
        innovation_sd = self.sigma * math.sqrt(1.0 - self.rho * self.rho)
        noise = self.stream.gauss(0.0, innovation_sd)
        return (self._mu + self.rho * (previous_log - self._mu) + noise)

    def run(self, sim, station):
        log_idle = self._mu + self.stream.gauss(0.0, self.sigma)
        while True:
            yield math.exp(log_idle)
            station.owner_arrived()
            yield self.session_dist.sample(self.stream)
            station.owner_departed()
            log_idle = self._next_log_idle(log_idle)
