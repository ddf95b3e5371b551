"""Every bulk transfer calls its caller back exactly once.

A transfer ends in one of several ways — delivered, lost, refused at
start (crashed endpoint, partition) or aborted mid-copy (crash,
partition, both endpoints crashing, a partition and then a crash, the
one endpoint of a station's copy to itself crashing).
Each case below drives one way to its end, runs the agenda dry, and
checks that the callback ran once, the record is settled, and nothing
is left in flight: no live record, no NIC reservation.
"""

import pytest

from repro.net import BulkTransfer, Network, Node
from repro.sim import RandomStream, Simulation, SimulationError


def crash(net, name):
    net.node(name).crashed = True
    net.endpoint_crashed(name)


def delivered(sim, net):
    pass


def lost(sim, net):
    net.set_loss(1.0)


def crashed_at_start(sim, net):
    net.node("b").crashed = True


def partitioned_at_start(sim, net):
    net.partition(["b"])


def crash_mid_copy(sim, net):
    sim.schedule(3.0, crash, net, "b")


def partition_mid_copy(sim, net):
    sim.schedule(3.0, net.partition, ["b"])


def both_endpoints_crash(sim, net):
    sim.schedule(3.0, crash, net, "a")
    sim.schedule(3.0, crash, net, "b")


def partition_then_crash(sim, net):
    sim.schedule(2.0, net.partition, ["b"])
    sim.schedule(3.0, crash, net, "b")


def self_copy_crash_mid_copy(sim, net):
    sim.schedule(3.0, crash, net, "a")


CASES = [
    (delivered, "b", ("ok", pytest.approx(0.01 + 10.0))),
    (lost, "b", ("failed", "lost")),
    (crashed_at_start, "b", ("failed", "endpoint_crashed")),
    (partitioned_at_start, "b", ("failed", "partitioned")),
    (crash_mid_copy, "b", ("failed", "endpoint_crashed")),
    (partition_mid_copy, "b", ("failed", "partitioned")),
    (both_endpoints_crash, "b", ("failed", "endpoint_crashed")),
    (partition_then_crash, "b", ("failed", "partitioned")),
    (self_copy_crash_mid_copy, "a", ("failed", "endpoint_crashed")),
]


@pytest.mark.parametrize("perturb, dst, outcome", CASES,
                         ids=[case.__name__ for case, _, _ in CASES])
def test_each_transfer_calls_back_exactly_once(perturb, dst, outcome):
    sim = Simulation()
    net = Network(sim, latency=0.01, bandwidth_mb_s=1.0,
                  loss_stream=RandomStream(5, "loss"))
    for name in ("a", "b"):
        net.attach(Node(name))
    perturb(sim, net)
    calls = []
    record = net.transfer("a", dst, 10.0, calls.append)
    assert isinstance(record, BulkTransfer)
    sim.run(until=100.0)
    assert calls == [outcome]
    assert record.settled
    assert net._transfers_at == {}
    assert net.nic_busy_until("a") == net.nic_busy_until("b") == sim.now
    assert net.transfers_failed == (outcome[0] == "failed")


def test_settling_a_settled_transfer_raises():
    sim = Simulation()
    net = Network(sim)
    calls = []
    record = net.transfer("a", "b", 1.0, calls.append)
    sim.run()
    assert len(calls) == 1
    with pytest.raises(SimulationError, match="already settled"):
        record.settle(("ok", sim.now))
    assert len(calls) == 1
