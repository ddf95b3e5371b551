"""``Network.rpc_batch`` is one ``rpc(timeout=None, callback=...)`` per
target, whatever the network does to the round.

The batch rides on two agenda events and skips the per-target
reachability and loss checks while the network is healthy, so each
scenario below perturbs the round at a different point — before the
send, between the send and the delivery, between the delivery and the
replies — and requires the batch and the per-target RPCs to agree on
every outcome and the instant it settled, on the traffic counters, on
the abandoned count and on how far the loss stream was drawn.
"""

from functools import partial

import pytest

from repro.net import Network, Node
from repro.sim import RandomStream, Simulation

LATENCY = 0.01
TARGETS = [f"s{i}" for i in range(8)]
ISLAND = ("s1", "s4", "s6")


def no_fault(sim, net, nodes):
    pass


def seeded_loss(sim, net, nodes):
    net.set_loss(0.3)


def partition_between_send_and_delivery(sim, net, nodes):
    sim.schedule(LATENCY / 2, net.partition, ISLAND)


def partition_at_send_healed_mid_round(sim, net, nodes):
    net.partition(ISLAND)
    sim.schedule(LATENCY / 2, net.heal)


def partition_between_delivery_and_replies(sim, net, nodes):
    sim.schedule(LATENCY * 1.5, net.partition, ISLAND)


def loss_set_mid_round(sim, net, nodes):
    sim.schedule(LATENCY / 2, net.set_loss, 0.5)


def loss_cleared_mid_round(sim, net, nodes):
    net.set_loss(0.5)
    sim.schedule(LATENCY / 2, net.set_loss, 0.0)


def loss_and_partition_with_a_crash(sim, net, nodes):
    net.set_loss(0.2)
    sim.schedule(LATENCY / 2, net.partition, ISLAND)
    sim.schedule(LATENCY / 2, setattr, nodes["s2"], "crashed", True)


SCENARIOS = [no_fault, seeded_loss, partition_between_send_and_delivery,
             partition_at_send_healed_mid_round,
             partition_between_delivery_and_replies, loss_set_mid_round,
             loss_cleared_mid_round, loss_and_partition_with_a_crash]


def run_round(scenario, batched):
    sim = Simulation()
    net = Network(sim, latency=LATENCY,
                  loss_stream=RandomStream(3, "loss"))
    nodes = {}
    for name in ["coord"] + TARGETS:
        node = nodes[name] = Node(name)
        node.register_handler("echo",
                              partial(lambda me, payload: (me, payload),
                                      name))
        net.attach(node)
    settled = []

    def record(name, outcome):
        settled.append((sim.now, name, outcome))

    scenario(sim, net, nodes)
    if batched:
        tickets = [net.rpc_batch(TARGETS, "echo", 7, callback=record,
                                 src="coord")]
    else:
        tickets = [net.rpc(name, "echo", 7, timeout=None,
                           callback=partial(record, name), src="coord")
                   for name in TARGETS]

    def abandon():
        for ticket in tickets:
            ticket.abandon()

    sim.schedule(10 * LATENCY, abandon)
    sim.run()
    return {
        "settled": settled,
        "sent": net.messages_sent,
        "dropped": net.messages_dropped,
        "abandoned": net.rpcs_abandoned,
        "outstanding": net.outstanding_rpcs(),
        "next_loss_draw": net.loss_stream.random(),
    }


@pytest.mark.parametrize("scenario", SCENARIOS,
                         ids=lambda scenario: scenario.__name__)
def test_batch_equals_one_rpc_per_target(scenario):
    batch = run_round(scenario, batched=True)
    single = run_round(scenario, batched=False)
    assert batch == single
    assert batch["outstanding"] == []
    answered = {name for _t, name, _outcome in batch["settled"]}
    assert all(t == pytest.approx(2 * LATENCY)
               for t, _name, _outcome in batch["settled"])
    assert batch["abandoned"] == len(TARGETS) - len(answered)
    if scenario is no_fault:
        assert answered == set(TARGETS) and batch["dropped"] == 0
    elif scenario is partition_between_delivery_and_replies:
        # The replies were already on the wire when the cut landed.
        assert answered == set(TARGETS)
    else:
        # The perturbation cost the round something, not everything.
        assert 0 < len(answered) < len(TARGETS)
