"""Federated coordination: pool partitioning, cross-pool leases, and
the two guarantees the flocking tree must preserve.

* **K=1 identity** — with a single pool there is no matchmaker and the
  pool coordinator IS the delta-state coordinator, so the complete
  experiment trace must be byte-identical to ``coordinator_mode=
  "delta"``.  This is the federation analogue of the delta-vs-poll
  golden trace: federation is a topology change, not a policy change.
* **Fairness composes** — holdings are charged to the requester's
  Up-Down index no matter which pool the host machine came from, so a
  heavy user in one pool cannot borrow the federation past fair share.
"""

import pytest

from repro.core import CondorConfig, CondorSystem, Job, StationSpec
from repro.core.federation import federation_pools, pool_name
from repro.core.job import reset_job_ids
from repro.machine import AlwaysActiveOwner, NeverActiveOwner, TraceOwner
from repro.metrics import jobs as job_metrics
from repro.sim import HOUR, MINUTE, Simulation, SimulationError
from repro.analysis.experiment import ExperimentRun
from repro.workload.users import paper_profiles
from repro.telemetry import kinds

SEED = 42


class TestPartitioning:
    def test_contiguous_near_equal_pools(self):
        names = [f"s{i}" for i in range(8)]
        pools = federation_pools(names, 3)
        assert pools == [["s0", "s1", "s2"], ["s3", "s4", "s5"],
                         ["s6", "s7"]]

    def test_single_pool_gets_everything(self):
        names = ["a", "b", "c"]
        assert federation_pools(names, 1) == [names]

    def test_rejects_bad_pool_counts(self):
        with pytest.raises(SimulationError):
            federation_pools(["a", "b"], 0)
        with pytest.raises(SimulationError):
            federation_pools(["a", "b"], 3)

    def test_pool_names(self):
        # K=1 reuses the delta-mode name — that is what makes the K=1
        # trace byte-identical to the single-coordinator trace.
        assert pool_name(0, 1) == "coordinator"
        assert pool_name(0, 4) == "coordinator.0"
        assert pool_name(3, 4) == "coordinator.3"


def federated_system(sim, specs, **overrides):
    config = CondorConfig(
        coordinator_mode="federated",
        federation_pools=overrides.pop("pools", 2),
        max_machines_per_station=6,
        **overrides,
    )
    return CondorSystem(sim, specs, config=config)


def lease_specs(lender_owner=None):
    """Two pools of two: pool 0 all idle (the lender side), pool 1 all
    owner-occupied (so its user's backlog can only run remotely)."""
    return [
        StationSpec("l0", owner_model=NeverActiveOwner()),
        StationSpec("l1", owner_model=lender_owner or NeverActiveOwner()),
        StationSpec("b0", owner_model=AlwaysActiveOwner()),
        StationSpec("b1", owner_model=AlwaysActiveOwner()),
    ]


def collect(hub, kind):
    records = []
    hub.subscribe(kind, lambda evt: records.append(evt.payload))
    return records


class TestCrossPoolLeases:
    def test_single_pool_has_no_matchmaker(self):
        sim = Simulation()
        system = federated_system(sim, lease_specs(), pools=1)
        assert system.matchmaker is None
        assert len(system.coordinators) == 1
        assert system.coordinator.name == "coordinator"

    def test_surplus_flows_to_deficit_pool(self):
        sim = Simulation()
        system = federated_system(
            sim, lease_specs(),
            federation_lease_duration=8 * HOUR,
        )
        grants = collect(system.telemetry, kinds.CROSS_POOL_LEASE_GRANTED)
        placed = []
        system.telemetry.subscribe(
            kinds.JOB_PLACED,
            lambda evt: placed.append(
                (evt.payload["host"], evt.payload["home"])),
        )
        system.start()
        job = Job(user="A", home="b0", demand_seconds=1 * HOUR)
        system.submit(job)
        sim.run(until=3 * HOUR)
        # Pool 1 has zero idle capacity, so the job can only have run on
        # a machine borrowed from pool 0 through the matchmaker.
        assert grants and grants[0]["borrower"] == pool_name(1, 2)
        assert placed and placed[0][0] in ("l0", "l1")
        assert job.finished
        assert system.metrics.counter(
            "federation.stations_borrowed").value >= 1

    def test_lender_never_ships_its_host_station(self):
        # Pool 0's coordinator runs on l0; only l1 is lendable.
        sim = Simulation()
        system = federated_system(
            sim, lease_specs(),
            federation_lease_duration=8 * HOUR,
        )
        grants = collect(system.telemetry, kinds.CROSS_POOL_LEASE_GRANTED)
        system.start()
        for _ in range(3):
            system.submit(Job(user="A", home="b0",
                              demand_seconds=2 * HOUR))
        sim.run(until=2 * HOUR)
        lent = [s for g in grants for s in g["stations"]]
        assert lent and "l0" not in lent

    def test_expiry_preempts_and_returns_the_station(self):
        sim = Simulation()
        system = federated_system(
            sim, lease_specs(),
            federation_lease_duration=30 * MINUTE,
        )
        returns = collect(system.telemetry, kinds.CROSS_POOL_LEASE_RETURNED)
        system.start()
        job = Job(user="A", home="b0", demand_seconds=5 * HOUR)
        system.submit(job)
        sim.run(until=2 * HOUR)
        # The lease ran out mid-job: the borrower must checkpoint the
        # foreign job off through the normal vacate path and hand the
        # station back (then, still needy, borrow again under a fresh
        # lease — hence "at least one" return, not exactly one).
        reasons = {r["reason"] for r in returns}
        assert "lease_expired" in reasons
        assert job.checkpoint_count >= 1
        assert not job.finished and job.in_system
        self.assert_membership_consistent(system)

    def test_owner_return_sends_the_station_home(self):
        sim = Simulation()
        # l1's owner comes back for good two hours in.
        system = federated_system(
            sim, lease_specs(TraceOwner([(2 * HOUR, 10 * HOUR)])),
            federation_lease_duration=8 * HOUR,
        )
        grants = collect(system.telemetry, kinds.CROSS_POOL_LEASE_GRANTED)
        returns = collect(system.telemetry, kinds.CROSS_POOL_LEASE_RETURNED)
        system.start()
        system.submit(Job(user="A", home="b0", demand_seconds=6 * HOUR))
        sim.run(until=4 * HOUR)
        assert any("l1" in g["stations"] for g in grants)
        l1_returns = [r for r in returns if r["station"] == "l1"]
        assert l1_returns and l1_returns[0]["reason"] == "owner_return"
        # Back in the lender's view, gone from the borrower's books.
        lender, borrower = system.coordinators
        assert lender.view.member("l1")
        assert "l1" not in borrower._borrowed
        self.assert_membership_consistent(system)

    @staticmethod
    def assert_membership_consistent(system):
        """Every station belongs to exactly one pool's view."""
        for name in system.stations:
            owners = [c.name for c in system.coordinators
                      if c.view.member(name)]
            assert len(owners) == 1, (name, owners)


class TestSinglePoolGoldenTrace:
    """Federated K=1 must be byte-identical to the delta coordinator."""

    @staticmethod
    def _run(mode, trace_path):
        reset_job_ids()
        config = CondorConfig(max_machines_per_station=6,
                              coordinator_mode=mode,
                              federation_pools=1)
        return ExperimentRun(seed=SEED, days=8, config=config,
                             trace_path=str(trace_path)).execute()

    def test_k1_trace_byte_identical_to_delta(self, tmp_path):
        delta_path = tmp_path / "delta.jsonl"
        federated_path = tmp_path / "federated.jsonl"
        self._run("delta", delta_path)
        self._run("federated", federated_path)
        delta_bytes = delta_path.read_bytes()
        assert len(delta_bytes) > 0
        assert delta_bytes == federated_path.read_bytes()


class TestFederatedFairness:
    """Up-Down fairness must compose across pools: holdings are charged
    to the requester wherever the host machine came from, so the heavy
    user cannot borrow the federation past fair share."""

    DAYS = 6
    STATIONS = 24
    #: Table 1's users spread over the four pools (6 stations each)
    #: instead of the default first-five-stations homes, which would
    #: put everyone in pool 0.
    HOMES = {"A": "ws-01", "B": "ws-07", "C": "ws-13",
             "D": "ws-19", "E": "ws-02"}

    def run(self, pools):
        reset_job_ids()
        horizon = self.DAYS * 24 * HOUR
        profiles = paper_profiles(self.HOMES, horizon, job_scale=0.2)
        kwargs = {"pools": pools} if pools else {}
        return ExperimentRun(
            seed=SEED, days=self.DAYS, stations=self.STATIONS,
            profiles=profiles,
            config=CondorConfig(max_machines_per_station=6),
            **kwargs,
        ).execute()

    @pytest.fixture(scope="class")
    def runs(self):
        return self.run(pools=4), self.run(pools=None)

    def test_leases_flow_in_the_federated_run(self, runs):
        federated, _ = runs
        assert federated.system.matchmaker.leases_brokered > 0

    def test_light_users_wait_less_than_the_heavy_user(self, runs):
        federated, _ = runs
        light = job_metrics.average_wait_ratio(federated.light_jobs())
        heavy = job_metrics.average_wait_ratio(federated.heavy_jobs())
        assert light < heavy

    def test_every_user_gets_service(self, runs):
        federated, _ = runs
        by_user = {}
        for job in federated.completed_jobs:
            by_user[job.user] = by_user.get(job.user, 0) + 1
        assert set(by_user) == set(self.HOMES)

    def test_fairness_within_tolerance_of_single_pool(self, runs):
        # The federated build may shift individual placements, but the
        # light-vs-heavy service ratio must stay in the same regime as
        # the single-coordinator run over the identical workload.
        federated, single = runs
        fed_light = job_metrics.average_wait_ratio(federated.light_jobs())
        one_light = job_metrics.average_wait_ratio(single.light_jobs())
        assert fed_light <= max(3.0 * one_light, one_light + 1.0)
        fed_done = len(federated.completed_jobs)
        one_done = len(single.completed_jobs)
        assert fed_done >= 0.8 * one_done
