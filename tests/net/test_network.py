"""Tests for the LAN model: messages, RPCs, transfers, failures."""

import pytest

from repro.net import Network, Node
from repro.sim import RandomStream, Simulation, SimulationError


@pytest.fixture
def sim():
    return Simulation()


@pytest.fixture
def net(sim):
    return Network(sim, latency=0.01, bandwidth_mb_s=1.0)


def make_echo_node(name):
    node = Node(name)
    node.register_handler("echo", lambda payload: ("echoed", payload))
    return node


def test_attach_and_lookup(net):
    node = Node("a")
    net.attach(node)
    assert net.node("a") is node


def test_duplicate_name_rejected(net):
    net.attach(Node("a"))
    with pytest.raises(SimulationError):
        net.attach(Node("a"))


def test_unknown_node_rejected(net):
    with pytest.raises(SimulationError):
        net.node("ghost")


def test_duplicate_handler_rejected():
    node = Node("a")
    node.register_handler("op", lambda p: None)
    with pytest.raises(SimulationError):
        node.register_handler("op", lambda p: None)


def test_missing_handler_rejected():
    node = Node("a")
    with pytest.raises(SimulationError):
        node.handle("nope", None)


def test_message_delivered_after_latency(sim, net):
    seen = []
    node = Node("b")
    node.register_handler("ping", lambda payload: seen.append((sim.now, payload)))
    net.attach(node)
    net.message("b", "ping", 42)
    sim.run()
    assert seen == [(0.01, 42)]


def test_message_to_crashed_node_dropped(sim, net):
    seen = []
    node = Node("b")
    node.register_handler("ping", lambda payload: seen.append(payload))
    net.attach(node)
    node.crashed = True
    net.message("b", "ping", 1)
    sim.run()
    assert seen == []


def test_rpc_roundtrip(sim, net):
    net.attach(make_echo_node("server"))
    outcomes = []
    net.rpc("server", "echo", "hello",
            callback=lambda outcome: outcomes.append((sim.now, outcome)))
    sim.run()
    assert outcomes == [(0.02, ("ok", ("echoed", "hello")))]


def test_rpc_to_crashed_node_times_out(sim, net):
    node = make_echo_node("server")
    net.attach(node)
    node.crashed = True
    outcomes = []
    net.rpc("server", "echo", None, timeout=0.5, callback=outcomes.append)
    sim.run()
    assert outcomes == [("timeout", None)]


def test_rpc_timeout_does_not_double_fire(sim, net):
    net.attach(make_echo_node("server"))
    outcomes = []
    net.rpc("server", "echo", "x", timeout=10.0, callback=outcomes.append)
    sim.run()
    assert len(outcomes) == 1
    assert outcomes[0][0] == "ok"


def test_lossy_network_drops_messages(sim):
    stream = RandomStream(3, "loss")
    net = Network(sim, loss_probability=1.0, loss_stream=stream)
    node = Node("b")
    seen = []
    node.register_handler("ping", lambda payload: seen.append(payload))
    net.attach(node)
    net.message("b", "ping", 1)
    sim.run()
    assert seen == []
    assert net.messages_dropped == 1


def test_lossy_rpc_times_out(sim):
    stream = RandomStream(3, "loss")
    net = Network(sim, loss_probability=1.0, loss_stream=stream)
    net.attach(make_echo_node("server"))
    outcomes = []
    net.rpc("server", "echo", None, timeout=0.2, callback=outcomes.append)
    sim.run()
    assert outcomes == [("timeout", None)]


def test_loss_needs_stream(sim):
    with pytest.raises(SimulationError):
        Network(sim, loss_probability=0.5)


def test_transfer_duration_matches_bandwidth(sim, net):
    outcomes = []
    net.transfer("a", "b", 2.0, callback=outcomes.append)
    sim.run()
    assert len(outcomes) == 1
    status, finish = outcomes[0]
    assert status == "ok"
    assert finish == pytest.approx(0.01 + 2.0)


def test_transfers_serialize_per_endpoint(sim, net):
    outcomes = []
    net.transfer("a", "b", 1.0, callback=outcomes.append)
    net.transfer("a", "c", 1.0, callback=outcomes.append)
    sim.run()
    first = 0.01 + 1.0
    second = first + 0.01 + 1.0
    assert [status for status, _ in outcomes] == ["ok", "ok"]
    assert outcomes[0][1] == pytest.approx(first)
    assert outcomes[1][1] == pytest.approx(second)


def test_transfers_on_disjoint_endpoints_overlap(sim, net):
    outcomes = []
    net.transfer("a", "b", 1.0, callback=outcomes.append)
    net.transfer("c", "d", 1.0, callback=outcomes.append)
    sim.run()
    assert outcomes[0][1] == pytest.approx(outcomes[1][1])


def test_negative_transfer_rejected(net):
    with pytest.raises(SimulationError):
        net.transfer("a", "b", -1.0, callback=lambda outcome: None)


def test_traffic_counters(sim, net):
    net.attach(make_echo_node("server"))
    outcomes = []
    net.rpc("server", "echo", None, callback=outcomes.append)
    net.transfer("a", "b", 3.0, callback=outcomes.append)
    sim.run()
    assert net.messages_sent == 2      # request + reply
    assert net.bytes_transferred_mb == 3.0
    assert len(outcomes) == 2


class TestJitter:
    def test_jitter_requires_stream(self, sim):
        with pytest.raises(SimulationError):
            Network(sim, latency_jitter=0.1)

    def test_negative_jitter_rejected(self, sim):
        with pytest.raises(SimulationError):
            Network(sim, latency_jitter=-0.1,
                    jitter_stream=RandomStream(1))

    def test_jitter_spreads_delivery_times(self, sim):
        net = Network(sim, latency=0.01, latency_jitter=0.5,
                      jitter_stream=RandomStream(8, "jitter"))
        node = Node("b")
        seen = []
        node.register_handler("ping", lambda payload: seen.append(sim.now))
        net.attach(node)
        for _ in range(50):
            net.message("b", "ping")
        sim.run()
        assert min(seen) >= 0.01
        assert max(seen) - min(seen) > 0.1   # genuinely spread out

    def test_jitter_can_reorder_messages(self, sim):
        net = Network(sim, latency=0.01, latency_jitter=1.0,
                      jitter_stream=RandomStream(9, "jitter"))
        node = Node("b")
        order = []
        node.register_handler("tag", order.append)
        net.attach(node)
        for i in range(30):
            net.message("b", "tag", i)
        sim.run()
        assert sorted(order) == list(range(30))
        assert order != list(range(30))      # arrival order differs
