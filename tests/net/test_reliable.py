"""Direct tests for :class:`~repro.net.ReliableSender`.

The chaos suite exercises the retry machinery end to end; these pin its
contract one behaviour at a time: when it sends, when it stops, what it
telemeters, and that a healthy exchange never touches the jitter stream.
"""

import pytest

from repro.net import Network, Node, ReliableSender
from repro.sim import RandomStream, Simulation, SimulationError
from repro.telemetry import TelemetryHub, kinds

ACK_TIMEOUT = 10.0


class Scripted:
    """A loss stream that returns the scripted draws, then 'not lost'."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0) if self.draws else 1.0


class Harness:
    """A sender on node ``a``, a counting ``note`` handler on node ``b``."""

    def __init__(self, loss_stream=None, loss_probability=0.0):
        self.sim = Simulation()
        self.net = Network(self.sim, latency=0.01,
                           loss_probability=loss_probability,
                           loss_stream=loss_stream)
        self.handled = []
        self.a = Node("a")
        self.b = Node("b")
        self.b.register_handler("note", self._handle)
        self.net.attach(self.a)
        self.net.attach(self.b)
        self.hub = TelemetryHub(clock=lambda: self.sim.now)
        self.events = []
        self.hub.subscribe(kinds.MESSAGE_RETRY, self.events.append)
        self.hub.subscribe(kinds.MESSAGE_GIVE_UP, self.events.append)
        self.stream = RandomStream(11, "retry.a")
        self.sender = ReliableSender(self.net, "a", self.stream, self.hub,
                                     ack_timeout=ACK_TIMEOUT)
        self.delivered = []
        self.gave_up = []

    def _handle(self, payload):
        self.handled.append((self.sim.now, payload))
        return ("noted", payload)

    def send(self, **kwargs):
        self.sender.send("b", "note", 7,
                         on_delivered=self.delivered.append,
                         on_give_up=lambda: self.gave_up.append(self.sim.now),
                         **kwargs)

    def of_kind(self, kind):
        return [event for event in self.events if event.kind == kind]


def test_healthy_first_attempt_acks_once_and_draws_no_jitter():
    h = Harness()
    h.send(max_attempts=3)
    h.sim.run()
    assert h.handled == [(0.01, 7)]
    assert h.delivered == [("noted", 7)]
    assert h.gave_up == [] and h.events == []
    assert h.net.messages_sent == 2          # one request, one ack
    # Jitter is sampled only on a real retry: the generator was never
    # even built (randomness.py builds it on the first draw).
    assert "_rng" not in vars(h.stream)


def test_timeouts_retry_at_the_seeded_backoff_instants():
    h = Harness()
    h.b.crashed = True
    h.send(max_attempts=4)
    h.sim.run()
    twin = ReliableSender(h.net, "a", RandomStream(11, "retry.a"))
    expected, at = [], 0.0
    for attempt in (2, 3, 4):
        at += ACK_TIMEOUT + twin.backoff(attempt)
        expected.append((attempt, pytest.approx(at)))
    retries = h.of_kind(kinds.MESSAGE_RETRY)
    assert [(e.payload["attempt"], e.sim_time) for e in retries] == expected
    assert all(e.payload == {"station": "a", "dst": "b", "op": "note",
                             "attempt": e.payload["attempt"]}
               for e in retries)
    assert h.handled == [] and h.delivered == []


def test_cap_gives_up_once_and_sends_nothing_more():
    h = Harness()
    h.b.crashed = True
    h.send(max_attempts=2, station="desk-9")
    h.sim.run()
    give_ups = h.of_kind(kinds.MESSAGE_GIVE_UP)
    assert len(give_ups) == 1
    assert give_ups[0].payload == {"station": "desk-9", "dst": "b",
                                   "op": "note", "attempt": 2}
    assert len(h.gave_up) == 1 and h.delivered == []
    assert h.net.messages_sent == 2
    h.b.crashed = False
    h.sim.run(until=h.sim.now + 1000.0)
    assert h.net.messages_sent == 2 and h.handled == []


def test_max_attempts_below_one_rejected():
    h = Harness()
    with pytest.raises(SimulationError):
        h.send(max_attempts=0)
    assert h.net.messages_sent == 0


def test_abort_before_the_first_attempt_sends_nothing():
    h = Harness()
    h.send(abort=lambda: True)
    h.sim.run()
    assert h.net.messages_sent == 0
    assert h.delivered == [] and h.gave_up == [] and h.events == []


def test_abort_between_attempts_stops_the_loop_silently():
    h = Harness()
    h.b.crashed = True
    moot = []
    h.send(max_attempts=5, abort=lambda: bool(moot))
    h.sim.run(until=ACK_TIMEOUT - 1.0)
    moot.append(True)                       # before the first timeout lands
    h.sim.run()
    assert h.net.messages_sent == 1
    assert h.gave_up == [] and h.events == []


def test_abort_before_acting_on_an_ack_drops_the_ack():
    h = Harness()
    moot = []
    h.send(abort=lambda: bool(moot))
    h.sim.run(until=0.015)                  # request handled, ack in flight
    assert len(h.handled) == 1
    moot.append(True)
    h.sim.run()
    assert h.delivered == [] and h.gave_up == [] and h.events == []


def test_lost_ack_reruns_the_handler_and_telemeters_the_retry():
    # Draws: request kept, ack lost; the retry's request and ack kept.
    h = Harness(loss_stream=Scripted(1.0, 0.0), loss_probability=0.5)
    h.send()
    h.sim.run()
    assert [payload for _t, payload in h.handled] == [7, 7]   # at least once
    assert h.delivered == [("noted", 7)]
    retries = h.of_kind(kinds.MESSAGE_RETRY)
    assert [e.payload["attempt"] for e in retries] == [2]
    assert retries[0].source == "a"
    assert h.of_kind(kinds.MESSAGE_GIVE_UP) == []


def test_unlimited_attempts_outlive_a_partition():
    h = Harness()
    h.net.partition({"a"})
    h.send()
    h.sim.run(until=600.0)
    assert h.handled == [] and h.delivered == []
    assert len(h.of_kind(kinds.MESSAGE_RETRY)) >= 3
    h.net.heal()
    h.sim.run()
    assert len(h.handled) == 1
    assert h.delivered == [("noted", 7)]
    assert h.gave_up == [] and h.of_kind(kinds.MESSAGE_GIVE_UP) == []
