"""Tests for the Up-Down policy and the baseline allocation policies."""

import random

import pytest

from repro.core import FcfsPolicy, RoundRobinPolicy, UpDownPolicy
from repro.core.updown import HISTORY_LIMIT, grant_order
from repro.sim import MINUTE, SimulationError


class TestUpDownIndex:
    def test_starts_at_zero(self):
        policy = UpDownPolicy()
        policy.register_station("a")
        assert policy.index("a") == 0.0

    def test_holding_capacity_raises_index(self):
        policy = UpDownPolicy(up_rate=1.0)
        policy.register_station("a")
        policy.update(set(), {"a": 3}, 2 * MINUTE)
        assert policy.index("a") == pytest.approx(6.0)  # 3 machines * 2 min

    def test_wanting_unserved_lowers_index(self):
        policy = UpDownPolicy(down_rate=1.0)
        policy.register_station("a")
        policy.update({"a"}, {}, 2 * MINUTE)
        assert policy.index("a") == pytest.approx(-2.0)

    def test_idle_index_decays_toward_zero(self):
        policy = UpDownPolicy(decay_rate=0.5)
        policy.register_station("a")
        policy.update(set(), {"a": 1}, 10 * MINUTE)   # index -> 10
        policy.update(set(), {}, 10 * MINUTE)         # decays by 5
        assert policy.index("a") == pytest.approx(5.0)
        policy.update(set(), {}, 100 * MINUTE)        # clamps at 0
        assert policy.index("a") == 0.0

    def test_negative_index_decays_up_toward_zero(self):
        policy = UpDownPolicy(decay_rate=0.5)
        policy.register_station("a")
        policy.update({"a"}, {}, 10 * MINUTE)         # index -> -10
        policy.update(set(), {}, 10 * MINUTE)
        assert policy.index("a") == pytest.approx(-5.0)

    def test_holding_dominates_wanting(self):
        # A station both holding machines and wanting more still goes up.
        policy = UpDownPolicy()
        policy.register_station("a")
        policy.update({"a"}, {"a": 2}, MINUTE)
        assert policy.index("a") > 0

    def test_negative_rates_rejected(self):
        with pytest.raises(SimulationError):
            UpDownPolicy(up_rate=-1.0)


class TestUpDownBoundedHistory:
    """The decay history is trimmed; the indices must not notice."""

    @staticmethod
    def eager_step(policy, index, wanting, holding, dt_seconds):
        """The every-station-every-cycle loop the lazy replay stands in
        for: same float operations, same order."""
        dt = dt_seconds / 60.0
        for name, value in index.items():
            held = holding.get(name, 0)
            if held > 0:
                value += policy.up_rate * held * dt
            elif name in wanting:
                value -= policy.down_rate * dt
            elif value > 0:
                value = max(0.0, value - policy.decay_rate * dt)
            elif value < 0:
                value = min(0.0, value + policy.decay_rate * dt)
            index[name] = value

    def test_100k_cycles_bit_identical_and_bounded(self):
        rng = random.Random(14)
        policy = UpDownPolicy(decay_rate=0.01)
        names = [f"s{i}" for i in range(6)]
        eager = {}
        for name in names[:4]:
            policy.register_station(name)
            eager[name] = 0.0
        longest = 0
        for cycle in range(100_000):
            if cycle == 3 * HISTORY_LIMIT + 17:     # joins after trims
                policy.register_station(names[4])
                eager[names[4]] = 0.0
            if cycle == 5 * HISTORY_LIMIT + 1:      # a restored index
                policy.restore_index(names[5], -7.25)
                eager[names[5]] = -7.25
            # Bursts of activity, long quiet stretches in between, so
            # stations lag by whole trims before anyone looks at them.
            active = rng.random() < 0.02
            wanting = {n for n in eager if active and rng.random() < 0.3}
            holding = {n: rng.randint(1, 3) for n in sorted(eager)
                       if active and rng.random() < 0.3}
            dt = rng.choice((0.01, 0.5, 120.0))
            policy.update(wanting, holding, dt)
            self.eager_step(policy, eager, wanting, holding, dt)
            longest = max(longest, len(policy._history))
            if cycle % 9973 == 0:
                probe = rng.choice(sorted(eager))
                assert policy.index(probe) == eager[probe]
        assert {n: policy.index(n) for n in eager} == eager
        assert any(value != 0.0 for value in eager.values())
        assert longest <= HISTORY_LIMIT


class TestUpDownRanking:
    def test_most_deprived_first(self):
        policy = UpDownPolicy()
        for name in ("heavy", "light"):
            policy.register_station(name)
        policy.update(set(), {"heavy": 10}, 10 * MINUTE)
        policy.update({"light"}, {"heavy": 10}, 2 * MINUTE)
        assert policy.rank_requesters(["heavy", "light"]) == ["light", "heavy"]

    def test_tie_broken_by_name(self):
        policy = UpDownPolicy()
        policy.register_station("b")
        policy.register_station("a")
        assert policy.rank_requesters(["b", "a"]) == ["a", "b"]


class TestUpDownPreemption:
    def make_policy(self):
        policy = UpDownPolicy(preemption_margin=2.0)
        for name in ("heavy", "light", "host1", "host2"):
            policy.register_station(name)
        return policy

    def test_preempts_richest_holder(self):
        policy = self.make_policy()
        policy.update(set(), {"heavy": 5}, 10 * MINUTE)   # heavy index 50
        victim = policy.choose_preemption_victim(
            "light", [("host1", "heavy"), ("host2", "light")]
        )
        assert victim == "host1"

    def test_never_preempts_own_jobs(self):
        policy = self.make_policy()
        policy.update(set(), {"light": 1}, 100 * MINUTE)
        victim = policy.choose_preemption_victim(
            "light", [("host1", "light")]
        )
        assert victim is None

    def test_margin_prevents_thrash(self):
        policy = self.make_policy()
        # Indexes equal: no preemption despite a holder existing.
        victim = policy.choose_preemption_victim(
            "light", [("host1", "heavy")]
        )
        assert victim is None

    def test_no_holders_no_victim(self):
        policy = self.make_policy()
        assert policy.choose_preemption_victim("light", []) is None


class TestGrantOrder:
    def test_one_machine_per_requester_per_pass(self):
        assert grant_order(["a", "b", "c"], 5, {"a": 3, "b": 1, "c": 2}) \
            == ["a", "b", "c", "a", "c"]

    def test_slots_bound_the_order(self):
        assert grant_order(["a", "b"], 3, {"a": 5, "b": 5}) == \
            ["a", "b", "a"]
        assert grant_order(["a", "b"], 0, {"a": 5, "b": 5}) == []

    def test_allowance_caps_a_requester(self):
        # The most deprived requester may take only one machine; the
        # rest of the slots pass to the next in rank.
        assert grant_order(["a", "b"], 4, {"a": 1, "b": 5}) == \
            ["a", "b", "b", "b"]

    def test_zero_negative_and_absent_allowances_get_nothing(self):
        allowance = {"a": 0, "b": -2, "c": 1}
        assert grant_order(["a", "b", "c", "d"], 4, allowance) == ["c"]
        assert grant_order(["a", "b"], 4, allowance) == []

    def test_owner_with_fewer_heads_than_its_share(self):
        # The service daemon's case: each owner's allowance is the queue
        # heads it has.  The top owner runs dry after one, so the slots
        # it would have had go round to the others.
        heads = {"light": 1, "mid": 2, "heavy": 4}
        assert grant_order(["light", "mid", "heavy"], 6, heads) == \
            ["light", "mid", "heavy", "mid", "heavy", "heavy"]


class TestFcfsPolicy:
    def test_order_of_first_request_wins(self):
        policy = FcfsPolicy()
        policy.update({"b"}, {}, 120.0)
        policy.update({"b", "a"}, {}, 120.0)
        assert policy.rank_requesters(["a", "b"]) == ["b", "a"]

    def test_position_lost_when_queue_drains(self):
        policy = FcfsPolicy()
        policy.update({"b"}, {}, 120.0)
        policy.update(set(), {}, 120.0)           # b's queue drained
        policy.update({"a", "b"}, {}, 120.0)      # both re-request
        assert policy.rank_requesters(["a", "b"]) == ["a", "b"]

    def test_no_preemption(self):
        policy = FcfsPolicy()
        assert not policy.allows_preemption
        assert policy.choose_preemption_victim("a", [("h", "b")]) is None


class TestRoundRobinPolicy:
    def test_rotation(self):
        policy = RoundRobinPolicy()
        names = ["a", "b", "c"]
        assert policy.rank_requesters(names) == ["a", "b", "c"]
        assert policy.rank_requesters(names) == ["b", "c", "a"]
        assert policy.rank_requesters(names) == ["c", "a", "b"]

    def test_empty_ok(self):
        assert RoundRobinPolicy().rank_requesters([]) == []
