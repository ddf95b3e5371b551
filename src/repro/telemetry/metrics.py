"""The metrics registry: counters, gauges, and histograms by name.

Instruments are cheap, dependency-free, and deterministic given the same
sequence of updates, so collectors and reports read *these* instead of
reaching into scheduler internals.  The registry rides on the telemetry
hub (``hub.metrics``); any component holding the hub can do::

    hub.metrics.counter("coordinator.grants").inc()
    hub.metrics.histogram("checkpoint.image_mb").observe(0.5)

Wall-clock timings (e.g. coordinator cycle duration) belong here — the
registry is *not* part of the deterministic trace stream, so real-time
measurements never perturb trace byte-identity.
"""

import threading

from repro.sim.errors import SimulationError


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise SimulationError(
                f"counter {self.name}: negative increment {amount}"
            )
        self.value += amount
        return self.value

    def snapshot(self):
        return {"type": "counter", "value": self.value}

    def __repr__(self):
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A value that goes up and down (queue length, idle stations)."""

    __slots__ = ("name", "value", "updates")

    def __init__(self, name):
        self.name = name
        self.value = None
        self.updates = 0

    def set(self, value):
        self.value = value
        self.updates += 1
        return value

    def snapshot(self):
        return {"type": "gauge", "value": self.value,
                "updates": self.updates}

    def __repr__(self):
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Streaming distribution summary: count, sum, min, max, mean.

    Deliberately reservoir-free: constant memory, deterministic, and
    sufficient for the overhead/latency questions the repo asks
    (placement latency, checkpoint bytes, cycle duration).
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, value):
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        return value

    @property
    def mean(self):
        return self.total / self.count if self.count else None

    def snapshot(self):
        return {"type": "histogram", "count": self.count,
                "sum": self.total, "min": self.min, "max": self.max,
                "mean": self.mean}

    def __repr__(self):
        return (f"<Histogram {self.name} n={self.count} "
                f"mean={self.mean}>")


class MetricsRegistry:
    """Named instruments, created on first use, one instance per name."""

    _TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self):
        self._instruments = {}
        self._lock = threading.Lock()

    def _get(self, cls, name):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name)
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                raise SimulationError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {cls.__name__}"
                )
        return instrument

    def counter(self, name):
        return self._get(Counter, name)

    def gauge(self, name):
        return self._get(Gauge, name)

    def histogram(self, name):
        return self._get(Histogram, name)

    def names(self):
        with self._lock:
            return sorted(self._instruments)

    def get(self, name):
        """The instrument registered under ``name``, or None."""
        with self._lock:
            return self._instruments.get(name)

    def snapshot(self):
        """All instruments as plain dicts, sorted by name.

        Any thread may create an instrument on first use, so the
        registry dict is copied under the lock and only then
        serialized — iterating ``_instruments`` unlocked would race a
        concurrent first-use insert (RuntimeError: dictionary changed
        size during iteration).
        """
        with self._lock:
            instruments = dict(self._instruments)
        return {name: instruments[name].snapshot()
                for name in sorted(instruments)}

    def __len__(self):
        with self._lock:
            return len(self._instruments)

    def __repr__(self):
        return f"<MetricsRegistry {len(self)} instruments>"
