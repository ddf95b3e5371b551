"""Delta-state protocol tests: the view, quarantine, and failure modes.

The delta coordinator must preserve polling's two failure guarantees —
lost-host detection and reboot-epoch detection — while adding its own:
stale pushed updates can never roll the view backward or resurrect a
station declared unreachable.
"""

import pytest

from repro.core import (
    CondorConfig,
    CondorSystem,
    Job,
    StationSpec,
)
from repro.core.cluster_view import ClusterView
from repro.machine import AlwaysActiveOwner, NeverActiveOwner
from repro.sim import HOUR, Simulation, SimulationError
from repro.telemetry import kinds


def build(sim, n_hosts, config=None):
    specs = [StationSpec("home", owner_model=AlwaysActiveOwner())]
    specs += [StationSpec(f"h{i}", owner_model=NeverActiveOwner())
              for i in range(n_hosts)]
    return CondorSystem(sim, specs, config=config, coordinator_host="home")


def submit(system, n=1, demand=10 * HOUR):
    jobs = []
    for _ in range(n):
        job = Job(user="A", home="home", demand_seconds=demand)
        system.submit(job)
        jobs.append(job)
    return jobs


def state(idle=True, hosting=None, pending=0, epoch=0, free=100.0):
    return {
        "idle": idle, "hosting_home": hosting, "pending": pending,
        "free_mb": free, "mean_idle": None, "idle_since": 0.0,
        "boot_epoch": epoch, "arch": "vax", "pending_gangs": [],
    }


class TestClusterView:
    def test_requires_stations(self):
        with pytest.raises(SimulationError):
            ClusterView([])

    def test_rejects_unknown_station(self):
        view = ClusterView(["a"])
        with pytest.raises(SimulationError):
            view.apply("b", state())

    def test_idle_list_in_registration_order(self):
        view = ClusterView(["c", "a", "b"])
        for name in ("b", "c", "a"):
            view.apply(name, state())
        assert view.idle_hosts() == ["c", "a", "b"]
        view.apply("c", state(idle=False), seq=2)
        assert view.idle_hosts() == ["a", "b"]

    def test_stale_seq_rejected(self):
        view = ClusterView(["a"])
        assert view.apply("a", state(pending=3), seq=5)
        assert not view.apply("a", state(pending=0), seq=4)
        assert view.states["a"]["pending"] == 3
        assert view.wanting == {"a"}

    def test_held_counts_and_hosting_tracked(self):
        view = ClusterView(["a", "b", "c"])
        view.apply("a", state(hosting="c", idle=False), seq=1)
        view.apply("b", state(hosting="c", idle=False), seq=1)
        assert view.held_counts == {"c": 2}
        assert view.hosting == {"a": "c", "b": "c"}
        view.apply("a", state(), seq=2)
        assert view.held_counts == {"c": 1}
        assert view.hosting == {"b": "c"}

    def test_quarantine_drops_derived_state(self):
        view = ClusterView(["a"])
        view.apply("a", state(pending=2), seq=1)
        view.quarantine("a")
        assert view.wanting == set()
        assert view.idle_hosts() == []
        # ...but the last-known state is retained for seq/epoch gating.
        assert view.known("a")

    def test_reply_readmits_quarantined(self):
        view = ClusterView(["a"])
        view.apply("a", state(), seq=1)
        view.quarantine("a")
        assert view.apply("a", state(), seq=2, from_reply=True)
        assert "a" not in view.quarantined
        assert view.idle_hosts() == ["a"]

    def test_push_with_same_epoch_cannot_readmit(self):
        view = ClusterView(["a"])
        view.apply("a", state(epoch=0), seq=1)
        view.quarantine("a")
        assert not view.apply("a", state(epoch=0), seq=2)
        assert "a" in view.quarantined
        assert view.idle_hosts() == []

    def test_push_with_newer_epoch_readmits(self):
        view = ClusterView(["a"])
        view.apply("a", state(epoch=0), seq=1)
        view.quarantine("a")
        assert view.apply("a", state(epoch=1), seq=2)
        assert "a" not in view.quarantined
        assert view.idle_hosts() == ["a"]

    def test_reset_forgets_everything(self):
        view = ClusterView(["a", "b"])
        view.apply("a", state(hosting="b", idle=False), seq=3)
        view.quarantine("b")
        view.reset()
        assert not view.known("a")
        assert view.seqs == {}
        assert view.quarantined == set()
        assert view.unknown_stations() == ["a", "b"]


class TestDeltaLostHost:
    # The dead-host and crash-and-reboot cases also run under the poll
    # oracle, whose from-scratch lost-host detection must reach the same
    # outcome; the assertions about the view are delta-only.
    @pytest.mark.parametrize("mode", ["delta", "poll"])
    def test_dead_host_detected_and_quarantined(self, mode):
        sim = Simulation()
        system = build(sim, 1, config=CondorConfig(coordinator_mode=mode))
        system.start()
        job = submit(system, 1, demand=5 * HOUR)[0]
        sim.run(until=600.0)
        assert job.state == "running"
        system.scheduler("h0").crash()
        sim.run(until=1200.0)
        assert job.state == "pending"
        assert system.telemetry.counts[kinds.HOST_LOST] == 1
        if mode == "delta":
            assert "h0" in system.coordinator.view.quarantined

    def test_lost_notice_sent_once_while_dead(self):
        sim = Simulation()
        system = build(sim, 1)
        system.start()
        submit(system, 1, demand=100 * HOUR)
        sim.run(until=600.0)
        system.scheduler("h0").crash()
        sim.run(until=3000.0)
        assert system.telemetry.counts[kinds.HOST_LOST] == 1

    @pytest.mark.parametrize("mode", ["delta", "poll"])
    def test_crash_and_reboot_between_anti_entropy_polls(self, mode):
        # The whole outage fits between two anti-entropy polls (interval
        # stretched to make sure no full poll lands inside it); the
        # bumped boot epoch — seen either on the pushed announcement or
        # on the hosting host's per-cycle probe — must still be read as
        # "the job died with the old incarnation", exactly once.  Under
        # the poll oracle the epoch shows on the next full poll.
        sim = Simulation()
        config = CondorConfig(anti_entropy_interval=1000,
                              coordinator_mode=mode)
        system = build(sim, 1, config=config)
        system.start()
        job = submit(system, 1, demand=100 * HOUR)[0]
        sim.run(until=600.0)
        assert job.state == "running"
        host = system.scheduler("h0")
        host.crash()
        sim.schedule(30.0, host.recover)   # back up within one cycle
        sim.run(until=1500.0)
        assert system.telemetry.counts[kinds.HOST_LOST] == 1
        assert job.state in ("pending", "placing", "running")
        # The rebooted host is back in rotation: the job lands again.
        sim.run(until=3 * HOUR)
        assert job.state == "running"
        if mode == "delta":
            assert system.coordinator.view.quarantined == set()

    def test_recovered_host_readmitted_by_probe(self):
        sim = Simulation()
        system = build(sim, 1)
        system.start()
        job = submit(system, 1, demand=100 * HOUR)[0]
        sim.run(until=600.0)
        system.scheduler("h0").crash()
        sim.run(until=1200.0)
        assert "h0" in system.coordinator.view.quarantined
        system.scheduler("h0").recover()
        sim.run(until=2 * HOUR)
        assert "h0" not in system.coordinator.view.quarantined
        assert job.state == "running"


class TestStaleUpdateAfterUnreachable:
    def test_stale_push_cannot_resurrect_dead_host(self):
        # A state_update that left the host before it died (or was
        # delayed in flight) arrives *after* the coordinator declared the
        # host unreachable.  Same boot epoch ⇒ it must be discarded: the
        # host stays quarantined and receives no grants.
        sim = Simulation()
        system = build(sim, 1)
        system.start()
        submit(system, 2, demand=100 * HOUR)
        sim.run(until=600.0)
        coordinator = system.coordinator
        dead = system.scheduler("h0")
        ghost = {**dead._observable_state(), "hosting_home": None,
                 "idle": True}
        ghost_seq = dead._push_seq + 1
        dead.crash()
        sim.run(until=1200.0)
        assert "h0" in coordinator.view.quarantined
        # The delayed pre-crash push finally arrives.
        coordinator._handle_state_update(
            {"station": "h0", "state": ghost, "seq": ghost_seq})
        assert "h0" in coordinator.view.quarantined
        assert coordinator.view.idle_hosts() == []
        grants_before = coordinator.grants_issued
        sim.run(until=3000.0)
        assert coordinator.grants_issued == grants_before
        assert system.telemetry.counts[kinds.HOST_LOST] == 1


class TestAntiEntropyRepair:
    def test_lost_push_repaired_and_reported(self):
        # Swallow the home station's "I have a pending job" push: the
        # view goes stale (the coordinator sees nothing to grant) until
        # the next anti-entropy poll, whose reply carries the newer seq —
        # and that repair is telemetered.
        sim = Simulation()
        config = CondorConfig(anti_entropy_interval=3)
        system = build(sim, 2, config=config)
        system.start()
        sim.run(until=130.0)    # cycle 1 done, initial states absorbed
        coordinator = system.coordinator
        assert coordinator.view.known("home")
        net = system.network
        real_rpc = net.rpc
        swallowed = []

        # Pushes travel as acknowledged RPCs now; swallowing the RPC
        # wholesale (no ack, no timeout event) models a push whose loss
        # the sender never detects — the worst case anti-entropy exists
        # to repair.
        def lossy_rpc(dst, op, payload=None, **kwargs):
            if op == "state_update" and payload["station"] == "home":
                swallowed.append(payload)
                return None
            return real_rpc(dst, op, payload, **kwargs)

        net.rpc = lossy_rpc
        try:
            job = submit(system, 1, demand=50 * HOUR)[0]
            # Cycle 2 (t=240) sees a stale view: no grant possible.
            sim.run(until=350.0)
        finally:
            net.rpc = real_rpc
        assert len(swallowed) == 1
        assert coordinator.grants_issued == 0
        assert job.state == "pending"
        # Cycle 3 (t=360) is the anti-entropy poll: the reply's seq is
        # ahead of the last applied push, the drift is repaired, and the
        # job is finally granted a machine.
        sim.run(until=600.0)
        repairs = system.telemetry.counts.get(kinds.COORDINATOR_VIEW_REPAIR, 0)
        assert repairs >= 1
        assert coordinator.grants_issued >= 1
        assert job.state == "running"
