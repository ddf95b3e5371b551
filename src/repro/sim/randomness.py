"""Seeded random streams and the distributions used across the reproduction.

Every stochastic component of the simulation (owner activity per station,
per-user job demands, batch arrivals, ...) draws from its own named
:class:`RandomStream` forked from one master seed.  Forking is stable:
``master.fork("station-7.owner")`` always yields the same substream for the
same master seed, so adding a new consumer never perturbs existing ones —
the property that makes ablation experiments comparable run-to-run.

Streams are **draw-on-demand**: a stream is its ``seed``, its ``path``
and how many values it has drawn.  A stream that never draws is just its
seed and path.  A *light* stream (an owner's, drawn a few dozen times a
day) holds only its next few draws: each refill rebuilds the generator
that ``seed`` and ``path`` determine, skips what was already served,
fills the next chunk into an ``array('d')`` and drops the generator
again, so 5 000 quiet stations do not keep 5 000 Mersenne Twisters
(2.5 KB each) alive all day.  A *heavy* stream, one that draws past
``KEEP_AFTER`` values, keeps its generator and costs what an eagerly
built one does.  Either way the sequence is the one generator's, draw
for draw.
"""

import hashlib
import math
import random
from array import array

from repro.sim.errors import SimulationError

#: Values a stream's first refill draws.  A station's busyness stream
#: draws once, at construction, so a small first fill keeps building a
#: 5 000-station pool as cheap as one draw per station.
FIRST_FILL = 4
#: Values each later refill draws.  A rebuild (seeding a Mersenne
#: Twister) costs about as much as a hundred draws, and a buffered value
#: 8 bytes for as long as the stream lives; an owner draws a median 25
#: values a simulated day, so it refills about twice on its first day
#: and about once a day after that.
FILL = 32
#: A refill at or past this many draws keeps its generator for good.
KEEP_AFTER = 128


class RandomStream:
    """An independent, seedable random stream with stable named forks."""

    # Class-level defaults, so a stream that never drew is two fields.
    _drawn = 0          # values drawn into buffers so far
    _next = ()          # the values still to serve, last one first
    _rng = None         # the generator, once the stream is heavy
    _key = None         # the generator's integer seed, once computed
    gauss_next = None   # the stdlib's ``gauss`` keeps its pair here

    def __init__(self, seed, path="root"):
        self.seed = seed
        self.path = path

    def fork(self, name):
        """Derive an independent substream identified by ``name``."""
        return RandomStream(self.seed, f"{self.path}/{name}")

    # The stdlib's own functions, run against this stream's ``random``
    # and ``gauss_next``: the arithmetic stays the interpreter's, so a
    # stream draws what its eagerly seeded generator would.
    uniform = random.Random.uniform
    expovariate = random.Random.expovariate
    gauss = random.Random.gauss

    def random(self):
        ahead = self._next
        if ahead:
            return ahead.pop()
        rng = self._rng
        if rng is not None:
            return rng.random()
        return self._refill()

    def _refill(self):
        """Rebuild the generator, skip the served draws and serve the
        first of the next chunk; keep the generator past KEEP_AFTER."""
        key = self._key
        if key is None:
            digest = hashlib.sha256(
                f"{self.seed}:{self.path}".encode("utf-8")).digest()
            key = self._key = int.from_bytes(digest[:8], "big")
        rng = random.Random(key)
        drawn = self._drawn
        if drawn:
            # ``random()`` takes two 32-bit words per double.
            rng.getrandbits(64 * drawn)
        if drawn >= KEEP_AFTER:
            self._rng = rng
            return rng.random()
        size = FILL if drawn else FIRST_FILL
        self._drawn = drawn + size
        ahead = self._next = array("d", [rng.random() for _ in range(size)])
        ahead.reverse()
        return ahead.pop()

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
