"""Network failure-model tests: crashes, partitions, loss, NIC release.

The net layer's contract under faults — transfers *call back with a
failure* instead of silently completing, NIC reservations never outlive a dead
transfer, counters never move for traffic that could not exist, and
deadline-less RPCs stay observable — is what the recovery machinery in
the schedulers is built on.
"""

import pytest

from repro.net import Network, Node, RpcTicket
from repro.sim import RandomStream, Simulation, SimulationError


@pytest.fixture
def sim():
    return Simulation()


@pytest.fixture
def net(sim):
    return Network(sim, latency=0.01, bandwidth_mb_s=1.0)


def attach(net, *names):
    nodes = {}
    for name in names:
        node = Node(name)
        node.register_handler("echo", lambda payload: ("echoed", payload))
        net.attach(node)
        nodes[name] = node
    return nodes


class TestTransferEndpointCrash:
    def test_fails_fast_when_dst_crashed_at_start(self, sim, net):
        nodes = attach(net, "a", "b")
        nodes["b"].crashed = True
        outcomes = []
        net.transfer("a", "b", 5.0, callback=outcomes.append)
        sim.run()
        assert outcomes == [("failed", "endpoint_crashed")]
        assert net.transfers_failed == 1
        # The connect attempt errors after one latency; no NIC was held.
        assert net.nic_busy_until("a") == sim.now
        assert net.nic_busy_until("b") == sim.now

    def test_fails_fast_when_src_crashed_at_start(self, sim, net):
        nodes = attach(net, "a", "b")
        nodes["a"].crashed = True
        outcomes = []
        net.transfer("a", "b", 5.0, callback=outcomes.append)
        sim.run()
        assert outcomes == [("failed", "endpoint_crashed")]

    def test_aborts_when_endpoint_crashes_mid_transfer(self, sim, net):
        nodes = attach(net, "a", "b")
        outcomes = []
        net.transfer("a", "b", 10.0, callback=lambda outcome:
                     outcomes.append((sim.now, outcome)))

        def crash_b():
            nodes["b"].crashed = True
            net.endpoint_crashed("b")

        sim.schedule(3.0, crash_b)
        sim.run()
        assert outcomes == [(3.0, ("failed", "endpoint_crashed"))]
        assert net.transfers_failed == 1

    def test_abort_releases_both_nic_reservations(self, sim, net):
        nodes = attach(net, "a", "b")
        net.transfer("a", "b", 100.0,     # would hold NICs ~100 s
                     callback=lambda outcome: None)

        def crash_and_check():
            nodes["b"].crashed = True
            net.endpoint_crashed("b")
            assert net.nic_busy_until("a") == sim.now
            assert net.nic_busy_until("b") == sim.now

        sim.schedule(5.0, crash_and_check)
        outcomes = []

        def follow_up():
            # A new transfer from the surviving endpoint starts at once
            # instead of queueing behind the dead copy.
            net.transfer("a", "c", 1.0, callback=outcomes.append)

        sim.schedule(6.0, follow_up)
        sim.run()
        status, finish = outcomes[0]
        assert status == "ok"
        assert finish == pytest.approx(6.0 + 0.01 + 1.0)

    def test_abort_keeps_reservation_for_surviving_transfer(self, sim, net):
        nodes = attach(net, "a", "b")
        net.transfer("a", "b", 10.0,      # dies at t=2
                     callback=lambda outcome: None)
        ok = []
        net.transfer("a", "c", 10.0, callback=ok.append)   # queued after

        def crash_b():
            nodes["b"].crashed = True
            net.endpoint_crashed("b")
            # a's NIC is still reserved by the queued a->c copy.
            assert net.nic_busy_until("a") > sim.now

        sim.schedule(2.0, crash_b)
        sim.run()
        assert ok and ok[0][0] == "ok"


class TestTransferPartitionAndLoss:
    def test_fails_fast_across_partition(self, sim, net):
        attach(net, "a", "b")
        net.partition(["b"])
        outcomes = []
        net.transfer("a", "b", 5.0, callback=outcomes.append)
        sim.run()
        assert outcomes == [("failed", "partitioned")]

    def test_aborts_crossing_transfer_when_partition_lands(self, sim, net):
        attach(net, "a", "b")
        outcomes = []
        net.transfer("a", "b", 10.0, callback=lambda outcome:
                     outcomes.append((sim.now, outcome)))
        sim.schedule(4.0, net.partition, ["b"])
        sim.run()
        assert outcomes == [(4.0, ("failed", "partitioned"))]

    def test_transfer_within_island_unaffected(self, sim, net):
        attach(net, "a", "b")
        net.partition(["a", "b"])
        outcomes = []
        net.transfer("a", "b", 2.0, callback=outcomes.append)
        sim.run()
        assert outcomes[0][0] == "ok"

    def test_lost_transfer_discovered_at_finish_time(self, sim):
        net = Network(sim, latency=0.01, bandwidth_mb_s=1.0,
                      loss_probability=1.0,
                      loss_stream=RandomStream(5, "loss"))
        outcomes = []
        net.transfer("a", "b", 2.0, callback=lambda outcome:
                     outcomes.append((sim.now, outcome)))
        sim.run()
        # The sender discovers the corruption when the copy should have
        # completed, not instantly.
        assert outcomes == [(pytest.approx(0.01 + 2.0), ("failed", "lost"))]
        assert net.transfers_failed == 1


class TestPartitionControlTraffic:
    def test_message_across_cut_dropped_and_counted(self, sim, net):
        nodes = attach(net, "a", "b")
        seen = []
        nodes["b"].register_handler("ping", seen.append)
        net.partition(["b"])
        net.message("b", "ping", 1, src="a")
        sim.run()
        assert seen == []
        assert net.messages_sent == 1
        assert net.messages_dropped == 1

    def test_rpc_across_cut_times_out(self, sim, net):
        attach(net, "a", "b")
        net.partition(["b"])
        outcomes = []
        net.rpc("b", "echo", None, timeout=0.5,
                src="a", callback=outcomes.append)
        sim.run()
        assert outcomes == [("timeout", None)]

    def test_heal_restores_traffic(self, sim, net):
        attach(net, "a", "b")
        net.partition(["b"])
        net.heal()
        outcomes = []
        net.rpc("b", "echo", "x", src="a", callback=outcomes.append)
        sim.run()
        assert outcomes == [("ok", ("echoed", "x"))]

    def test_unnamed_sender_always_reaches(self, sim, net):
        # src=None (direct test calls, the simulation harness) is exempt.
        attach(net, "b")
        net.partition(["b"])
        outcomes = []
        net.rpc("b", "echo", "x", callback=outcomes.append)
        sim.run()
        assert outcomes == [("ok", ("echoed", "x"))]


class TestCounterDiscipline:
    def test_unknown_message_destination_raises_before_counting(self, net):
        with pytest.raises(SimulationError):
            net.message("ghost", "ping", 1)
        assert net.messages_sent == 0
        assert net.messages_dropped == 0

    def test_unknown_rpc_destination_raises_before_counting(self, net):
        with pytest.raises(SimulationError):
            net.rpc("ghost", "echo", None, callback=lambda outcome: None)
        assert net.messages_sent == 0
        assert net.messages_dropped == 0

    def test_unknown_destination_draws_no_loss_randomness(self, sim):
        stream = RandomStream(9, "loss")
        net = Network(sim, loss_probability=0.5, loss_stream=stream)
        before = stream.random()
        probe = RandomStream(9, "loss")
        probe.random()
        with pytest.raises(SimulationError):
            net.message("ghost", "ping", 1)
        # The stream advanced by exactly our own probe draw, nothing more.
        assert stream.random() == probe.random()
        assert isinstance(before, float)

    def test_set_loss_validation(self, sim, net):
        with pytest.raises(SimulationError):
            net.set_loss(1.5)
        with pytest.raises(SimulationError):
            net.set_loss(-0.1)
        with pytest.raises(SimulationError):
            net.set_loss(0.5)        # no loss_stream on this network
        net.set_loss(0.0)            # zero is always fine

    def test_set_loss_burst_applies_and_restores(self, sim):
        net = Network(sim, loss_stream=RandomStream(3, "loss"))
        attach(net, "b")
        net.set_loss(1.0)
        net.message("b", "ping")
        net.set_loss(0.0)
        net.message("b", "ping2")
        assert net.messages_dropped == 1


class TestRpcTickets:
    def test_deadline_less_callback_rpc_returns_ticket(self, sim, net):
        attach(net, "b")
        outcomes = []
        ticket = net.rpc("b", "echo", 7, timeout=None,
                         callback=outcomes.append)
        assert isinstance(ticket, RpcTicket)
        assert net.outstanding_rpcs() == [ticket]
        sim.run()
        assert outcomes == [("ok", ("echoed", 7))]
        assert ticket.settled
        assert net.outstanding_rpcs() == []

    def test_lost_reply_leaves_ticket_outstanding(self, sim):
        net = Network(sim, loss_probability=1.0,
                      loss_stream=RandomStream(3, "loss"))
        attach(net, "b")
        outcomes = []
        ticket = net.rpc("b", "echo", 7, timeout=None,
                         callback=outcomes.append)
        sim.run()
        # The callback never fired and nothing else says so — except
        # the ticket, still outstanding for the caller's own deadline.
        assert outcomes == []
        assert not ticket.settled
        assert net.outstanding_rpcs() == [ticket]
        ticket.abandon()
        assert net.outstanding_rpcs() == []
        assert net.rpcs_abandoned == 1
        ticket.abandon()                  # idempotent
        assert net.rpcs_abandoned == 1

    def test_timeout_rpcs_get_no_ticket(self, sim, net):
        attach(net, "b")
        assert net.rpc("b", "echo", 1, timeout=5.0,
                       callback=lambda outcome: None) is None
        assert net.outstanding_rpcs() == []
        sim.run()


class TestMissingCallbackFailsAtTheCallSite:
    """An RPC or a fan-out without a callback has no one to report to;
    it raises where the call is made, before any counter moves or loss
    draw is spent."""

    def lossy(self, sim):
        stream = RandomStream(3, "loss")
        net = Network(sim, loss_probability=0.5, loss_stream=stream)
        attach(net, "b", "c")
        return net, stream

    def assert_untouched(self, sim, net, stream):
        assert net.messages_sent == 0 and net.messages_dropped == 0
        assert net.outstanding_rpcs() == []
        assert stream.random() == RandomStream(3, "loss").random()
        sim.run()
        assert sim.events_dispatched == 0

    def test_deadline_less_rpc_without_callback(self, sim):
        net, stream = self.lossy(sim)
        with pytest.raises(SimulationError, match="callback"):
            net.rpc("b", "echo", 1, timeout=None)
        self.assert_untouched(sim, net, stream)

    def test_timed_rpc_without_callback(self, sim):
        net, stream = self.lossy(sim)
        with pytest.raises(SimulationError, match="callback"):
            net.rpc("b", "echo", 1, timeout=1.0)
        self.assert_untouched(sim, net, stream)

    def test_rpc_batch_without_callback(self, sim):
        net, stream = self.lossy(sim)
        with pytest.raises(SimulationError, match="callback"):
            net.rpc_batch(["b", "c"], "echo", 1)
        self.assert_untouched(sim, net, stream)
