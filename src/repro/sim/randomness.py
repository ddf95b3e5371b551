"""Seeded random streams and the distributions used across the reproduction.

Every stochastic component of the simulation (owner activity per station,
per-user job demands, batch arrivals, ...) draws from its own named
:class:`RandomStream` forked from one master seed.  Forking is stable:
``master.fork("station-7.owner")`` always yields the same substream for the
same master seed, so adding a new consumer never perturbs existing ones —
the property that makes ablation experiments comparable run-to-run.

Streams are **draw-on-demand**: a stream is its ``seed`` and ``path``
until the first draw builds the generator those two determine, so one
that only forks, or waits for a rare event (a station's retry jitter),
never pays the 2.5 KB Mersenne Twister.
"""

import hashlib
import math
import random

from repro.sim.errors import SimulationError


class RandomStream:
    """An independent, seedable random stream with stable named forks."""

    def __init__(self, seed, path="root"):
        self.seed = seed
        self.path = path

    def __getattr__(self, name):
        # Reached only while ``_rng`` is missing: the first draw builds
        # it, later draws find a plain instance attribute.
        if name != "_rng":
            raise AttributeError(name)
        digest = hashlib.sha256(
            f"{self.seed}:{self.path}".encode("utf-8")).digest()
        rng = self._rng = random.Random(int.from_bytes(digest[:8], "big"))
        return rng

    def fork(self, name):
        """Derive an independent substream identified by ``name``."""
        return RandomStream(self.seed, f"{self.path}/{name}")

    # Thin pass-throughs, so distributions only ever see this interface.
    def random(self):
        return self._rng.random()

    def uniform(self, a, b):
        return self._rng.uniform(a, b)

    def expovariate(self, lambd):
        return self._rng.expovariate(lambd)

    def gauss(self, mu, sigma):
        return self._rng.gauss(mu, sigma)

    def randint(self, a, b):
        return self._rng.randint(a, b)

    def choice(self, seq):
        return self._rng.choice(seq)

    def choices(self, seq, weights):
        return self._rng.choices(seq, weights=weights, k=1)[0]

    def shuffle(self, seq):
        self._rng.shuffle(seq)

    def __repr__(self):
        return f"<RandomStream seed={self.seed} path={self.path!r}>"


class Distribution:
    """Base class: a distribution bound to no stream; sampled with one."""

    def sample(self, stream):
        raise NotImplementedError

    def mean(self):
        """Theoretical mean, used by calibration code and tests."""
        raise NotImplementedError


class Constant(Distribution):
    """Degenerate distribution, always ``value``."""

    def __init__(self, value):
        if value < 0:
            raise SimulationError(f"Constant value must be >= 0, got {value}")
        self.value = float(value)

    def sample(self, stream):
        return self.value

    def mean(self):
        return self.value

    def __repr__(self):
        return f"Constant({self.value})"


class Uniform(Distribution):
    """Uniform on ``[low, high]``."""

    def __init__(self, low, high):
        if not 0 <= low <= high:
            raise SimulationError(f"need 0 <= low <= high, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def sample(self, stream):
        return stream.uniform(self.low, self.high)

    def mean(self):
        return (self.low + self.high) / 2.0

    def __repr__(self):
        return f"Uniform({self.low}, {self.high})"


class Exponential(Distribution):
    """Exponential with the given mean (not rate)."""

    def __init__(self, mean):
        if mean <= 0:
            raise SimulationError(f"Exponential mean must be > 0, got {mean}")
        self._mean = float(mean)

    def sample(self, stream):
        return stream.expovariate(1.0 / self._mean)

    def mean(self):
        return self._mean

    def __repr__(self):
        return f"Exponential(mean={self._mean})"


class Hyperexponential(Distribution):
    """Probabilistic mixture of exponentials.

    ``branches`` is a sequence of ``(probability, mean)`` pairs.  Used for
    the heavy-tailed quantities in the paper: job service demand (mean 5 h
    but median under 3 h) and workstation available-interval lengths.
    """

    def __init__(self, branches):
        if not branches:
            raise SimulationError("Hyperexponential needs at least one branch")
        total = sum(p for p, _ in branches)
        if not math.isclose(total, 1.0, rel_tol=1e-9):
            raise SimulationError(f"branch probabilities sum to {total}, not 1")
        for p, m in branches:
            if p < 0 or m <= 0:
                raise SimulationError(f"bad branch (p={p}, mean={m})")
        self.branches = [(float(p), float(m)) for p, m in branches]

    def sample(self, stream):
        u = stream.random()
        acc = 0.0
        for p, m in self.branches:
            acc += p
            if u <= acc:
                return stream.expovariate(1.0 / m)
        # Floating-point slack: fall through to the last branch.
        return stream.expovariate(1.0 / self.branches[-1][1])

    def mean(self):
        return sum(p * m for p, m in self.branches)

    def cv2(self):
        """Squared coefficient of variation."""
        m1 = self.mean()
        m2 = sum(p * 2.0 * m * m for p, m in self.branches)
        return m2 / (m1 * m1) - 1.0

    def __repr__(self):
        return f"Hyperexponential({self.branches})"


def fit_hyperexponential(mean, cv2):
    """Fit a balanced-means two-phase hyperexponential to (mean, CV^2).

    Returns a :class:`Hyperexponential`.  Requires ``cv2 >= 1`` (a
    hyperexponential cannot be less variable than an exponential); at
    exactly 1 an :class:`Exponential` is returned instead.
    """
    if mean <= 0:
        raise SimulationError(f"mean must be > 0, got {mean}")
    if cv2 < 1.0:
        raise SimulationError(f"hyperexponential needs CV^2 >= 1, got {cv2}")
    if math.isclose(cv2, 1.0, rel_tol=1e-9):
        return Exponential(mean)
    # Balanced-means H2 (Allen): p1*m1 == p2*m2 == mean/2.
    root = math.sqrt((cv2 - 1.0) / (cv2 + 1.0))
    p1 = 0.5 * (1.0 + root)
    p2 = 1.0 - p1
    m1 = mean / (2.0 * p1)
    m2 = mean / (2.0 * p2)
    return Hyperexponential([(p1, m1), (p2, m2)])


class LogNormal(Distribution):
    """Log-normal parameterised by its actual mean and sigma of log-space."""

    def __init__(self, mean, sigma):
        if mean <= 0 or sigma <= 0:
            raise SimulationError(f"bad LogNormal(mean={mean}, sigma={sigma})")
        self._mean = float(mean)
        self.sigma = float(sigma)
        self.mu = math.log(mean) - sigma * sigma / 2.0

    def sample(self, stream):
        return math.exp(stream.gauss(self.mu, self.sigma))

    def mean(self):
        return self._mean

    def __repr__(self):
        return f"LogNormal(mean={self._mean}, sigma={self.sigma})"


class Mixture(Distribution):
    """Probabilistic mixture of arbitrary distributions.

    ``branches`` is ``((probability, distribution), ...)``; probabilities
    must sum to 1.  Used e.g. for owner sessions: many brief interactions
    plus a tail of long work spells.
    """

    def __init__(self, branches):
        if not branches:
            raise SimulationError("Mixture needs at least one branch")
        total = sum(p for p, _ in branches)
        if not math.isclose(total, 1.0, rel_tol=1e-9):
            raise SimulationError(f"mixture probabilities sum to {total}")
        if any(p < 0 for p, _ in branches):
            raise SimulationError("mixture probabilities must be >= 0")
        self.branches = tuple((float(p), dist) for p, dist in branches)

    def sample(self, stream):
        u = stream.random()
        acc = 0.0
        for p, dist in self.branches:
            acc += p
            if u <= acc:
                return dist.sample(stream)
        return self.branches[-1][1].sample(stream)

    def mean(self):
        return sum(p * dist.mean() for p, dist in self.branches)

    def __repr__(self):
        return f"Mixture({self.branches})"
