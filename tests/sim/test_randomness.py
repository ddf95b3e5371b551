"""Tests for seeded streams and distributions, incl. hypothesis properties."""

import copy
import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Constant,
    Exponential,
    Hyperexponential,
    LogNormal,
    RandomStream,
    SimulationError,
    Uniform,
    fit_hyperexponential,
    randomness,
)


def sample_many(dist, n=20000, seed=1):
    stream = RandomStream(seed, "test")
    return [dist.sample(stream) for _ in range(n)]


class TestRandomStream:
    def test_same_seed_same_sequence(self):
        a = RandomStream(42)
        b = RandomStream(42)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = RandomStream(1)
        b = RandomStream(2)
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_fork_is_stable(self):
        a = RandomStream(42).fork("owner")
        b = RandomStream(42).fork("owner")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_forks_are_independent_by_name(self):
        a = RandomStream(42).fork("owner")
        b = RandomStream(42).fork("demand")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_nested_fork_paths(self):
        root = RandomStream(7)
        x = root.fork("station-1").fork("owner")
        y = root.fork("station-1/owner")
        # Path composition must match, making fork layout refactors safe.
        assert [x.random() for _ in range(3)] == [y.random() for _ in range(3)]


def eager(seed, path):
    """The executable spec of a stream's sequence: the generator
    ``RandomStream`` seeded eagerly before it became draw-on-demand."""
    digest = hashlib.sha256(f"{seed}:{path}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def built(stream):
    """Whether the stream holds a Mersenne Twister (it drew past the
    bound after which a refill keeps its generator)."""
    return vars(stream).get("_rng") is not None


def keep_point():
    """Draws a stream serves from its buffers before it keeps a generator."""
    drawn = randomness.FIRST_FILL
    while drawn < randomness.KEEP_AFTER:
        drawn += randomness.FILL
    return drawn


#: method name -> (draw on a RandomStream, the same draw on the spec)
DRAWS = {
    "random": (lambda s: s.random(), lambda r: r.random()),
    "uniform": (lambda s: s.uniform(2.0, 5.0), lambda r: r.uniform(2.0, 5.0)),
    "expovariate": (lambda s: s.expovariate(0.25),
                    lambda r: r.expovariate(0.25)),
    "gauss": (lambda s: s.gauss(1.0, 3.0), lambda r: r.gauss(1.0, 3.0)),
}

CLONES = {
    "pickle": lambda s: pickle.loads(pickle.dumps(s)),
    "deepcopy": copy.deepcopy,
}


class TestDrawOnDemand:
    @pytest.mark.parametrize("method", sorted(DRAWS))
    def test_first_and_hundredth_draw_match_the_eager_spec(self, method):
        draw, spec_draw = DRAWS[method]
        stream = RandomStream(42, "root/station-7.owner")
        spec = eager(42, "root/station-7.owner")
        assert vars(stream) == {"seed": 42, "path": "root/station-7.owner"}
        drawn = [draw(stream) for _ in range(100)]
        expected = [spec_draw(spec) for _ in range(100)]
        assert drawn[0] == expected[0] and drawn[99] == expected[99]
        assert drawn == expected

    def test_fork_chains_and_repr_build_no_generator(self):
        root = RandomStream(9)
        middle = root.fork("cluster")
        leaf = middle.fork("ws-3.owner")
        assert "cluster/ws-3.owner" in repr(leaf)
        assert (leaf.seed, leaf.path) == (9, "root/cluster/ws-3.owner")
        assert len(vars(root)) == len(vars(middle)) == len(vars(leaf)) == 2
        assert leaf.random() == eager(9, "root/cluster/ws-3.owner").random()
        assert len(vars(root)) == len(vars(middle)) == 2
        assert not built(leaf)

    def test_unknown_attribute_is_still_an_attribute_error(self):
        stream = RandomStream(1)
        with pytest.raises(AttributeError):
            stream.no_such_thing
        assert not built(stream)

    @pytest.mark.parametrize("clone", [
        lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy],
        ids=["pickle", "deepcopy"])
    def test_copies_continue_the_same_sequence(self, clone):
        fresh = RandomStream(5, "jobs")
        twin = clone(fresh)
        assert not built(fresh) and not built(twin)
        assert (twin.seed, twin.path) == (5, "jobs")
        spec = eager(5, "jobs")
        head = [spec.random() for _ in range(3)]
        tail = [spec.random() for _ in range(3)]
        assert [twin.random() for _ in range(3)] == head
        assert [fresh.random() for _ in range(3)] == head
        # After the first draw a copy carries the generator's position.
        later = clone(fresh)
        assert [later.random() for _ in range(3)] == tail
        assert [fresh.random() for _ in range(3)] == tail


class TestBufferedStream:
    """A light stream serves buffered draws and a heavy one keeps its
    generator; neither may show in the sequence."""

    @given(calls=st.lists(st.sampled_from(sorted(DRAWS)),
                          min_size=250, max_size=400),
           copies=st.dictionaries(st.integers(0, 399),
                                  st.sampled_from(sorted(CLONES)),
                                  max_size=8),
           seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_any_calls_match_the_eager_spec(self, calls, copies, seed):
        stream = RandomStream(seed, "root/ws-1.owner")
        spec = eager(seed, "root/ws-1.owner")
        for index, call in enumerate(calls):
            if index in copies:
                stream = CLONES[copies[index]](stream)
            draw, spec_draw = DRAWS[call]
            assert draw(stream) == spec_draw(spec)
        # 250 calls draw at least 250 values (no more gauss calls reuse a
        # pair than draw one): past the first fill, the later refills and
        # the bound after which the generator stays.
        assert keep_point() < 250
        assert built(stream)

    def test_gauss_straddling_the_switch_to_a_kept_generator(self):
        stream = RandomStream(3, "jobs")
        spec = eager(3, "jobs")
        for _ in range(keep_point() - 1):
            assert stream.random() == spec.random()
        assert not built(stream)
        # gauss draws the last buffered value, then the kept generator's
        # first; a stale ``random`` looked up before the switch must not
        # serve either twice.
        assert stream.gauss(0.0, 1.0) == spec.gauss(0.0, 1.0)
        assert built(stream)
        assert stream.gauss(0.0, 1.0) == spec.gauss(0.0, 1.0)
        assert [stream.random() for _ in range(5)] == [
            spec.random() for _ in range(5)]

    @pytest.mark.parametrize("clone", sorted(CLONES))
    def test_a_copy_past_the_bound_draws_independently(self, clone):
        stream = RandomStream(8, "jobs")
        for _ in range(keep_point() + 3):
            stream.random()
        assert built(stream)
        spec = eager(8, "jobs")
        for _ in range(keep_point() + 3):
            spec.random()
        tail = [spec.random() for _ in range(10)]
        twin = CLONES[clone](stream)
        assert [twin.random() for _ in range(10)] == tail
        assert [stream.random() for _ in range(10)] == tail

    @pytest.mark.parametrize("clone", sorted(CLONES))
    @pytest.mark.parametrize("at", [
        0, 1, randomness.FIRST_FILL, randomness.FIRST_FILL + 1,
        randomness.KEEP_AFTER, "keep", "keep+1"])
    def test_a_copy_at_any_point_continues_the_sequence(self, clone, at):
        at = {"keep": keep_point(), "keep+1": keep_point() + 1}.get(at, at)
        stream = RandomStream(4, "arrivals")
        spec = eager(4, "arrivals")
        for _ in range(at):
            assert stream.random() == spec.random()
        stream.gauss(0.0, 1.0)      # leave the stdlib's pair half used
        spec.gauss(0.0, 1.0)
        twin = CLONES[clone](stream)
        rest = [spec.gauss(0.0, 1.0) for _ in range(3)]
        rest += [spec.random() for _ in range(2 * randomness.FILL)]
        for source in (twin, stream):
            assert [source.gauss(0.0, 1.0) for _ in range(3)] + [
                source.random() for _ in range(2 * randomness.FILL)] == rest


class TestDistributionMeans:
    @pytest.mark.parametrize("dist,tol", [
        (Constant(5.0), 0.0),
        (Uniform(2.0, 8.0), 0.1),
        (Exponential(10.0), 0.4),
        (LogNormal(5.0, 1.0), 0.5),
        (Hyperexponential([(0.7, 2.0), (0.3, 20.0)]), 0.5),
    ])
    def test_empirical_mean_matches_theoretical(self, dist, tol):
        values = sample_many(dist)
        empirical = sum(values) / len(values)
        assert empirical == pytest.approx(dist.mean(), abs=tol + 0.05 * dist.mean())

    def test_all_samples_nonnegative(self):
        for dist in [Exponential(1.0), Hyperexponential([(0.5, 1.0), (0.5, 9.0)]),
                     Uniform(0, 5), LogNormal(2.0, 0.5)]:
            assert all(v >= 0 for v in sample_many(dist, n=2000))


class TestValidation:
    def test_exponential_requires_positive_mean(self):
        with pytest.raises(SimulationError):
            Exponential(0)

    def test_hyperexponential_probs_must_sum_to_one(self):
        with pytest.raises(SimulationError):
            Hyperexponential([(0.5, 1.0), (0.4, 2.0)])

    def test_hyperexponential_needs_branches(self):
        with pytest.raises(SimulationError):
            Hyperexponential([])

    def test_uniform_ordering(self):
        with pytest.raises(SimulationError):
            Uniform(5, 2)

    def test_fit_rejects_cv2_below_one(self):
        with pytest.raises(SimulationError):
            fit_hyperexponential(5.0, 0.5)


class TestFitHyperexponential:
    @given(mean=st.floats(0.5, 100.0), cv2=st.floats(1.01, 25.0))
    @settings(max_examples=50, deadline=None)
    def test_fit_matches_requested_moments(self, mean, cv2):
        dist = fit_hyperexponential(mean, cv2)
        assert dist.mean() == pytest.approx(mean, rel=1e-6)
        assert dist.cv2() == pytest.approx(cv2, rel=1e-6)

    def test_fit_cv2_one_gives_exponential(self):
        dist = fit_hyperexponential(5.0, 1.0)
        assert isinstance(dist, Exponential)

    def test_fitted_distribution_median_below_mean(self):
        # The paper: demand mean 5 h but median under 3 h — heavy tails
        # push the median well below the mean.
        dist = fit_hyperexponential(5.0, 4.0)
        values = sorted(sample_many(dist))
        median = values[len(values) // 2]
        assert median < 3.0


class TestHypothesisProperties:
    @given(seed=st.integers(0, 2**32), name=st.text(min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_fork_determinism_property(self, seed, name):
        a = RandomStream(seed).fork(name)
        b = RandomStream(seed).fork(name)
        assert a.random() == b.random()

    @given(st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 50.0)),
                    min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_hyperexponential_mean_is_weighted_average(self, raw):
        total = sum(p for p, _ in raw)
        branches = [(p / total, m) for p, m in raw]
        dist = Hyperexponential(branches)
        expected = sum(p * m for p, m in branches)
        assert dist.mean() == pytest.approx(expected, rel=1e-9)

    @given(st.floats(0.1, 1000.0))
    @settings(max_examples=50, deadline=None)
    def test_constant_always_returns_value(self, value):
        stream = RandomStream(0)
        dist = Constant(value)
        assert all(dist.sample(stream) == value for _ in range(5))
