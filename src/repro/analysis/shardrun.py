"""Space-parallel cluster runs: build one shard per rank, sync windows.

The sharded runtime splits the cluster into *placement cells*
(:func:`repro.core.condor.placement_cells`) and assigns contiguous cell
blocks to shard ranks, so every job body — grants, transfers, gang
members — stays inside one shard and only scalar coordinator/station
control traffic crosses boundaries (as picklable ShardNetwork
descriptors).  Each rank builds **only its own** stations, but computes
the whole topology — names, cells, loci, owners — with the same seeded
arithmetic, so the ranks agree on everything without talking.

A *federated* profile (``pools >= 2``) composes this with flocking
(:mod:`repro.core.federation`): pools are unions of cells, station
owners follow their pools (``shard_of_pool`` ∘ pool-of-station), and
each :class:`~repro.core.federation.PoolCoordinator` is built on its
pool's home shard under its own locus, so delta pushes, view
absorption, anti-entropy and placement cycles run shard-locally in
parallel.  Only the federation control plane crosses shards — adverts
to the rank-0 :class:`~repro.core.federation.Matchmaker`, lease
request/grant/return, rehome pointers and the borrowed stations' pushes
and probes — all scalar payloads over the descriptor outboxes.  Grants
stay cell-constrained, and a borrowed station's cell is never a
requester's cell, so job bodies still never cross a boundary (the
cross-shard ``transfer()`` tripwire in ShardNetwork stays armed).

Determinism contract (what the golden test pins down):

* every kernel runs in locus mode, every component is built and started
  under its own locus, so same-timestamp dispatch is fully ordered by
  the locus key on every rank;
* workload substreams are forked **by user name** from one seed, and
  jobs carry per-user explicit ids (``UserProfile.id_base``), so any
  rank computing a user computes identical jobs;
* traces are recorded per shard as locus-keyed lines
  (:class:`~repro.telemetry.trace.ShardTraceRecorder`) and merged by
  (timestamp, locus, per-locus index) — byte-identical across shard
  counts, including the serial (in-process, single ``run()``) reference.

The canonical trace of a sharded profile is the *merged keyed* order.
It equals the hub-sequence order everywhere except at the horizon
boundary, where post-run ledger closes interleave by locus rather than
trailing; the serial reference therefore records through the same keyed
recorder rather than a plain :class:`~repro.telemetry.trace.TraceRecorder`.
"""

from repro.analysis.executor import spawn_workers
from repro.core.condor import placement_cells
from repro.core.config import CondorConfig
from repro.core.coordinator import Coordinator
from repro.core.federation import (
    Matchmaker,
    PoolCoordinator,
    federation_pools,
    pool_name,
)
from repro.core.invariants import InvariantChecker
from repro.core.local_scheduler import LocalScheduler
from repro.core.updown import UpDownPolicy
from repro.faults.injector import ChaosInjector
from repro.faults.invariants import NoLostJobsChecker
from repro.faults.schedule import (
    ChaosSchedule,
    CrashCoordinator,
    CrashMidTransfer,
    CrashPoolCoordinator,
    CrashStation,
    LossBurst,
    Partition,
)
from repro.machine import Workstation
from repro.metrics.timeseries import PeriodicSampler
from repro.net.sharding import ShardNetwork
from repro.sim import DAY, HOUR, MINUTE, RandomStream, Simulation
from repro.sim.errors import SimulationError
from repro.sim.kernel import CHAOS_LOCUS
from repro.sim.sharded import ShardedSimulation, serve_shard
from repro.telemetry.events import TelemetryHub
from repro.telemetry.trace import (
    ShardTraceRecorder,
    merge_shard_lines,
    merge_shard_traces,
)
from repro.sim.randomness import (
    Exponential,
    Uniform,
    fit_hyperexponential,
)
from repro.workload.cluster import build_cluster_specs
from repro.workload.generator import WorkloadGenerator
from repro.workload.users import DEMAND_CV2, UserProfile

#: The coordinator's network endpoint name (its node address).
COORDINATOR = "coordinator"
#: The matchmaker's network endpoint name (federated profiles, K >= 2).
MATCHMAKER = "matchmaker"


class ShardProfile:
    """Picklable description of one sharded run (identical on all ranks)."""

    def __init__(self, seed=11, days=2.0, stations=8, cells=4,
                 heavy_jobs=10, light_jobs=4, latency=0.05,
                 max_machines=4, sample_interval=30 * MINUTE,
                 pools=0, quiet_cells=0, scenario=None, trace_dir=None):
        if days <= 0:
            raise SimulationError(f"bad profile days {days}")
        if cells < 1 or cells > stations:
            raise SimulationError(
                f"{cells} cells for {stations} stations")
        if pools < 0 or pools > stations:
            raise SimulationError(
                f"{pools} pools for {stations} stations")
        if pools > cells:
            raise SimulationError(
                f"{pools} pools need at least that many cells "
                f"(got {cells}); a cell never straddles pools")
        if not 0 <= quiet_cells < cells:
            raise SimulationError(
                f"{quiet_cells} quiet cells of {cells} total")
        if scenario is not None and scenario not in SHARD_SCENARIOS:
            raise SimulationError(
                f"unknown shard scenario {scenario!r} "
                f"(have {sorted(SHARD_SCENARIOS)})")
        self.seed = int(seed)
        self.days = float(days)
        self.stations = int(stations)
        self.cells = int(cells)
        self.heavy_jobs = int(heavy_jobs)
        self.light_jobs = int(light_jobs)
        self.latency = float(latency)
        self.max_machines = int(max_machines)
        self.sample_interval = float(sample_interval)
        #: ``0`` runs the classic single coordinator; ``K >= 1`` runs
        #: ``coordinator_mode="federated"`` with K pool coordinators (and,
        #: for K >= 2, a matchmaker on rank 0).  ``pools=1`` is
        #: byte-identical to ``pools=0`` — one pool, no matchmaker.
        self.pools = int(pools)
        #: The last N cells get no workload users — their pools advertise
        #: pure surplus, which is what makes cross-pool leases flow in the
        #: federation scenarios and tests.
        self.quiet_cells = int(quiet_cells)
        #: ``None`` for a plain month-style run, or a key of
        #: :data:`SHARD_SCENARIOS` for a chaos run.
        self.scenario = scenario
        #: With a directory, shards stream keyed traces to files there;
        #: without, lines collect in memory and ride back over the pipe.
        self.trace_dir = trace_dir

    @property
    def horizon(self):
        return self.days * DAY

    def __repr__(self):
        return (f"<ShardProfile seed={self.seed} days={self.days} "
                f"stations={self.stations} cells={self.cells} "
                f"pools={self.pools} scenario={self.scenario!r}>")


def shard_of_cell(cell, n_cells, shards):
    """Contiguous cell blocks per shard — same arithmetic as
    :func:`~repro.core.condor.placement_cells` uses for stations."""
    return (cell * shards) // n_cells


def shard_of_pool(pool, n_pools, shards):
    """Contiguous pool blocks per shard; composes with
    :func:`~repro.core.federation.federation_pools` so a pool (and
    therefore every cell nested in it) lives on exactly one shard."""
    return (pool * shards) // n_pools


def _topology(spec, shards):
    """Everything every rank must agree on, derived from the seed alone.

    Non-federated (``pools <= 1``): station owners follow their cells and
    the single coordinator lives on rank 0 — the PR-6 layout, unchanged.
    Federated (``pools >= 2``): owners follow their *pools* (each pool a
    union of cells, validated here), each pool coordinator lives on its
    pool's shard under its own locus, and the matchmaker on rank 0.
    """
    stream = RandomStream(spec.seed)
    specs = build_cluster_specs(stream.fork("cluster"), spec.stations)
    names = [s.name for s in specs]
    cell_of = placement_cells(names, spec.cells)
    loci = {name: i for i, name in enumerate(names)}
    pool_of = None
    if spec.pools >= 2:
        pool_of = {}
        for k, members in enumerate(federation_pools(names, spec.pools)):
            for name in members:
                pool_of[name] = k
        cell_pool = {}
        for name in names:
            cell = cell_of[name]
            pool = cell_pool.setdefault(cell, pool_of[name])
            if pool != pool_of[name]:
                raise SimulationError(
                    f"cell {cell} straddles pools {pool} and "
                    f"{pool_of[name]}: pools must be unions of cells")
        owners = {name: shard_of_pool(pool_of[name], spec.pools, shards)
                  for name in names}
        for k in range(spec.pools):
            coord = pool_name(k, spec.pools)
            loci[coord] = len(names) + k
            owners[coord] = shard_of_pool(k, spec.pools, shards)
        loci[MATCHMAKER] = len(names) + spec.pools
        owners[MATCHMAKER] = 0
    else:
        loci[COORDINATOR] = len(names)
        owners = {name: shard_of_cell(cell_of[name], spec.cells, shards)
                  for name in names}
        owners[COORDINATOR] = 0
    return stream, specs, names, cell_of, loci, owners, pool_of


def _cell_profiles(names, cell_of, n_cells, horizon, spec):
    """Per-cell users: one heavy + two light per cell, homed in-cell.

    Explicit ``id_base`` values (disjoint million-blocks in a fixed user
    order) keep job ids identical no matter which rank generates them.
    """
    by_cell = {}
    for name in names:
        by_cell.setdefault(cell_of[name], []).append(name)
    profiles = []
    uid = 0
    for cell in range(n_cells):
        if cell >= n_cells - spec.quiet_cells:
            # Quiet cells submit nothing: their stations are pure surplus
            # for the federation's matchmaker to lease out.  uid stays in
            # step so busy cells' id blocks don't depend on quiet_cells.
            uid += 3
            continue
        members = by_cell[cell]
        shapes = (
            ("H", spec.heavy_jobs, 3.0, True),
            ("La", spec.light_jobs, 1.2, False),
            ("Lb", spec.light_jobs, 0.6, False),
        )
        for j, (tag, jobs, mean_hours, heavy) in enumerate(shapes):
            uid += 1
            demand = fit_hyperexponential(mean_hours * HOUR, DEMAND_CV2)
            home = members[j % len(members)]
            name = f"{tag}{cell}"
            if heavy:
                profiles.append(UserProfile(
                    name, home, jobs, demand,
                    batch_size_dist=Uniform(2, 6),
                    standing_target=4,
                    id_base=uid * 1_000_000,
                ))
            else:
                batches = max(1.0, jobs / 2.5)
                profiles.append(UserProfile(
                    name, home, jobs, demand,
                    batch_size_dist=Uniform(1, 4),
                    interbatch_dist=Exponential(horizon / batches),
                    id_base=uid * 1_000_000,
                ))
    return profiles


# ----------------------------------------------------------------------
# chaos scenarios over the sharded topology


def _mix_schedule(names, cell_of, spec):
    """One of everything: loss burst, partitioned cell, station crash,
    mid-transfer crash, coordinator outage."""
    n_cells = spec.cells
    by_cell = {}
    for name in names:
        by_cell.setdefault(cell_of[name], []).append(name)
    # Never crash the coordinator's host (names[0]) and prefer non-home
    # stations (user homes are the first members of each cell).
    mid_target = by_cell[0][-1] if len(by_cell[0]) > 1 else by_cell[0][0]
    crash_cell = by_cell[n_cells - 1]
    crash_target = crash_cell[-1]
    island_cell = min(1, n_cells - 1)
    actions = [
        CrashMidTransfer(at=1 * HOUR, duration=10 * HOUR,
                         station=mid_target, downtime=900.0,
                         exclude=(names[0],)),
        LossBurst(0.15, at=3 * HOUR + 7, duration=90 * MINUTE),
        CrashStation(crash_target, at=5 * HOUR + 13, duration=1 * HOUR),
        Partition(tuple(by_cell[island_cell]), at=8 * HOUR + 3,
                  duration=40 * MINUTE),
        CrashCoordinator(at=12 * HOUR + 11, duration=15 * MINUTE),
    ]
    return ChaosSchedule("shard-mix", actions,
                         "every fault family once, across cells")


def _require_federated(scenario, spec):
    if spec.pools < 2:
        raise SimulationError(
            f"scenario {scenario!r} needs a federated profile "
            f"(pools >= 2, got {spec.pools})")


def _pool_crash_schedule(names, cell_of, spec):
    """The PR-7 federation crash story over the sharded topology: the
    lender pool's coordinator dies mid-lease, then the borrower's —
    which fails over to another station of its own pool (and therefore
    its own shard)."""
    _require_federated("pool-crash", spec)
    pools = federation_pools(names, spec.pools)
    failover = pools[0][1] if len(pools[0]) > 1 else pools[0][0]
    actions = [
        CrashPoolCoordinator(spec.pools - 1, at=2 * HOUR,
                             duration=30 * MINUTE),
        CrashPoolCoordinator(0, at=6 * HOUR + 9, duration=30 * MINUTE,
                             failover_to=failover),
    ]
    return ChaosSchedule(
        "shard-pool-crash", actions,
        "lender then borrower pool coordinator crash mid-lease; the "
        "failover stays inside the pool (= inside its home shard)")


def _matchmaker_partition_schedule(names, cell_of, spec):
    """Cut the matchmaker (rank 0) off from every pool coordinator:
    adverts and lease requests drop on the floor until the heal, then
    flocking resumes from the next changed advert."""
    _require_federated("matchmaker-partition", spec)
    actions = [
        Partition((MATCHMAKER,), at=90 * MINUTE + 5, duration=2 * HOUR),
    ]
    return ChaosSchedule(
        "shard-matchmaker-partition", actions,
        "matchmaker isolated for two hours; leases stall, then resume")


#: scenario name -> builder(names, cell_of, spec) -> ChaosSchedule.
SHARD_SCENARIOS = {
    "mix": _mix_schedule,
    "pool-crash": _pool_crash_schedule,
    "matchmaker-partition": _matchmaker_partition_schedule,
}

#: Profile overrides a scenario needs to be meaningful (applied by the
#: CLI when the user did not pass the flags explicitly): the federation
#: scenarios need pools to crash and quiet cells to create the surplus
#: that makes leases flow.
SHARD_SCENARIO_PROFILES = {
    "pool-crash": {"pools": 2, "quiet_cells": 2},
    "matchmaker-partition": {"pools": 2, "quiet_cells": 2},
}


def _chaos_placements(schedule, rank, owners, loci, spec):
    """Where each action runs.

    Network-wide state (partitions, loss bursts) is replicated on every
    shard — the cut must be visible to both endpoints' loss/reachability
    checks — but telemetered only on rank 0 so the fault appears once in
    the merged trace.  Station-scoped actions run solely on the owning
    shard, under the station's locus; a coordinator action runs on the
    shard that hosts that coordinator — rank 0 for the classic single
    coordinator, the pool's home shard for a pool coordinator.
    """
    placements = []
    for action in schedule:
        if action.kind in ("partition", "loss_burst"):
            placements.append((CHAOS_LOCUS, rank == 0))
        elif action.kind in ("station_crash", "crash_mid_transfer"):
            if action.station is None:
                raise SimulationError(
                    f"sharded {action.kind} needs an explicit station")
            if owners[action.station] == rank:
                placements.append((loci[action.station], True))
            else:
                placements.append(None)
        elif action.kind == "coordinator_crash":
            if spec.pools >= 2:
                raise SimulationError(
                    "a federated profile has no single coordinator; "
                    "use CrashPoolCoordinator instead")
            if action.failover_to is not None:
                raise SimulationError(
                    "sharded coordinator failover must stay on rank 0; "
                    "use failover_to=None")
            placements.append((loci[COORDINATOR], True)
                              if rank == 0 else None)
        elif action.kind == "pool_coordinator_crash":
            _require_federated(schedule.name, spec)
            if not action.pool < spec.pools:
                raise SimulationError(
                    f"pool {action.pool} outside {spec.pools} pools")
            coord = pool_name(action.pool, spec.pools)
            home = owners[coord]
            if (action.failover_to is not None
                    and owners[action.failover_to] != home):
                raise SimulationError(
                    f"failover station {action.failover_to!r} lives on "
                    f"shard {owners[action.failover_to]}, but pool "
                    f"{action.pool}'s coordinator is on shard {home}; "
                    f"failover must stay inside the pool's home shard")
            placements.append((loci[coord], True)
                              if rank == home else None)
        else:
            raise SimulationError(
                f"no shard placement rule for fault {action.kind!r}")
    return placements


# ----------------------------------------------------------------------
# per-rank build


class ShardSystem:
    """This rank's slice of the cluster, quacking like a CondorSystem.

    Holds only locally-owned stations/schedulers/jobs plus this rank's
    coordinators — the single classic coordinator on rank 0, or, in a
    federated profile, the pool coordinators whose pools live here (and
    the matchmaker on rank 0) — exactly the surface the workload
    generator, chaos context and invariant checkers touch.
    """

    def __init__(self, sim, network, hub, stations, schedulers,
                 coordinators, matchmaker=None):
        self.sim = sim
        self.network = network
        self.telemetry = hub
        self.stations = stations
        self.schedulers = schedulers
        #: pool index -> coordinator living on this rank.  Non-federated
        #: builds store the single coordinator under index 0.
        self.coordinators = dict(coordinators)
        #: The classic single-coordinator handle (rank 0, pools <= 1).
        self.coordinator = self.coordinators.get(0)
        self.matchmaker = matchmaker
        self.jobs = []

    def submit(self, job):
        self.scheduler(job.home).submit(job)
        self.jobs.append(job)

    def scheduler(self, name):
        try:
            return self.schedulers[name]
        except KeyError:
            raise SimulationError(
                f"station {name!r} is not on this shard") from None

    def station(self, name):
        try:
            return self.stations[name]
        except KeyError:
            raise SimulationError(
                f"station {name!r} is not on this shard") from None


class ShardBuild:
    """One rank's fully-wired world, ready to run."""

    __slots__ = ("spec", "rank", "shards", "sim", "net", "system",
                 "recorder", "no_lost", "local_names", "loci")

    def __init__(self, **parts):
        for name, value in parts.items():
            setattr(self, name, value)

    def finalize(self):
        """Close ledgers (under each station's locus, in global station
        order so the keyed merge reproduces the serial close order),
        check invariants, and return the picklable shard result."""
        for name in self.local_names:
            with self.sim.locus(self.loci[name]):
                self.system.stations[name].ledger.close_all()
        self.recorder.close()
        if self.no_lost is not None:
            self.no_lost.check_final(require_all_complete=False)
        InvariantChecker(self.system).check()
        return {
            "rank": self.rank,
            "events": self.recorder.events_written,
            "lines": self.recorder.lines,
            "trace_path": self.recorder.path,
            "jobs_submitted": len(self.system.jobs),
            "jobs_completed": sum(
                1 for job in self.system.jobs if job.finished),
            "stations": len(self.system.stations),
            # Placement cycles run by this rank's busiest coordinator —
            # pool coordinators cycle in lockstep, so the max matches
            # what a single-coordinator run reports as ``cycles``.
            "cycles": max(
                (coordinator.cycles
                 for coordinator in self.system.coordinators.values()),
                default=0),
        }


def build_shard(spec, rank, shards):
    """Construct rank ``rank`` of a ``shards``-way run of ``spec``.

    ``shards=1`` with ``rank=0`` builds the whole cluster in one kernel
    — the serial reference configuration.
    """
    if not 0 <= rank < shards:
        raise SimulationError(f"rank {rank} outside {shards} shards")
    if shards > spec.cells:
        raise SimulationError(
            f"{shards} shards need at least that many cells "
            f"(got {spec.cells}); a cell never straddles shards")
    if spec.pools >= 2 and shards > spec.pools:
        raise SimulationError(
            f"{shards} shards need at least that many pools "
            f"(got {spec.pools}); a pool never straddles shards")
    stream, specs, names, cell_of, loci, owners, pool_of = _topology(
        spec, shards)
    horizon = spec.horizon

    sim = Simulation()
    sim.enable_locus_mode()
    hub = TelemetryHub()
    hub.bind_clock(lambda: sim.now)
    net = ShardNetwork(
        sim, rank, owners, latency=spec.latency,
        loss_stream=stream.fork("net.loss"), loss_mode="per_sender",
    )
    net.set_loci(loci)
    if spec.pools >= 1:
        config = CondorConfig(max_machines_per_station=spec.max_machines,
                              coordinator_mode="federated",
                              federation_pools=spec.pools)
    else:
        config = CondorConfig(max_machines_per_station=spec.max_machines)

    trace_path = None
    if spec.trace_dir is not None:
        trace_path = f"{spec.trace_dir}/shard-{rank}.keyed.jsonl"
    recorder = ShardTraceRecorder(hub, sim, path=trace_path)

    local_names = [name for name in names if owners[name] == rank]
    stations = {}
    schedulers = {}
    for station_spec in specs:
        name = station_spec.name
        if owners[name] != rank:
            continue
        with sim.locus(loci[name]):
            station = Workstation(
                sim, name, owner_model=station_spec.owner_model,
                cpu_speed=station_spec.cpu_speed, arch=station_spec.arch,
            )
            station.ledger.attach_hub(hub)
            stations[name] = station
            schedulers[name] = LocalScheduler(sim, net, station, hub,
                                              config)

    # One coordinator per pool, each under its own locus on its pool's
    # home shard — every push, view absorption, anti-entropy probe and
    # placement cycle is shard-local; only the lease/advert control
    # traffic (and nothing carrying a job body) crosses the boundary.
    coordinators = {}
    coordinator_locus = {}
    matchmaker = None
    if spec.pools >= 2:
        for k, members in enumerate(federation_pools(names, spec.pools)):
            coord = pool_name(k, spec.pools)
            for member in members:
                if owners[member] == rank:
                    schedulers[member].coordinator_name = coord
            if owners[coord] != rank:
                continue
            coordinator_locus[k] = loci[coord]
            with sim.locus(loci[coord]):
                coordinators[k] = PoolCoordinator(
                    sim, net, list(members), UpDownPolicy(), hub, config,
                    pool_index=k, host_station=stations[members[0]],
                    cells=cell_of, name=coord,
                    matchmaker_name=MATCHMAKER,
                )
        if rank == 0:
            with sim.locus(loci[MATCHMAKER]):
                matchmaker = Matchmaker(
                    sim, net, hub, config,
                    [pool_name(k, spec.pools)
                     for k in range(spec.pools)])
    elif rank == 0:
        coordinator_locus[0] = loci[COORDINATOR]
        with sim.locus(loci[COORDINATOR]):
            if spec.pools == 1:
                # Byte-identical to the classic build (same name, same
                # locus, no matchmaker): the federated degenerate case.
                coordinators[0] = PoolCoordinator(
                    sim, net, names, UpDownPolicy(), hub, config,
                    pool_index=0, host_station=stations[names[0]],
                    cells=cell_of, name=COORDINATOR,
                    matchmaker_name=None,
                )
            else:
                coordinators[0] = Coordinator(
                    sim, net, names, UpDownPolicy(), hub, config,
                    host_station=stations[names[0]],
                    reservations=None, cells=cell_of,
                )

    system = ShardSystem(sim, net, hub, stations, schedulers,
                         coordinators, matchmaker)

    no_lost = None
    injector = None
    if spec.scenario is not None:
        no_lost = NoLostJobsChecker(hub)
        schedule = SHARD_SCENARIOS[spec.scenario](names, cell_of, spec)
        if schedule.horizon() >= horizon:
            raise SimulationError(
                f"scenario {spec.scenario!r} needs horizon > "
                f"{schedule.horizon():.0f}s, profile has {horizon:.0f}s")
        injector = ChaosInjector(
            sim, system, schedule,
            placements=_chaos_placements(schedule, rank, owners, loci,
                                         spec),
        )

    profiles = _cell_profiles(names, cell_of, spec.cells, horizon, spec)
    workload_stream = stream.fork("workload")
    generators = []
    for profile in profiles:
        if owners[profile.home] != rank:
            continue
        generators.append(WorkloadGenerator(
            sim, system, [profile], workload_stream, horizon=horizon))

    # Start order is locus-insensitive across ranks: each component only
    # touches its own locus counters, so skipping non-local ones leaves
    # the owned loci's operation sequences identical to the serial run's.
    for name in local_names:
        with sim.locus(loci[name]):
            schedulers[name].start()
    for k in sorted(coordinators):
        with sim.locus(coordinator_locus[k]):
            coordinators[k].start()
    if matchmaker is not None:
        with sim.locus(loci[MATCHMAKER]):
            matchmaker.start()
    for generator in generators:
        with sim.locus(loci[generator.profiles[0].home]):
            generator.start()
    if injector is not None:
        injector.start()
    with sim.locus(CHAOS_LOCUS):
        checker = InvariantChecker(system)
        sampler = PeriodicSampler(sim, checker.check,
                                  interval=spec.sample_interval,
                                  name=f"invariants-{rank}")
        sampler.start()

    return ShardBuild(spec=spec, rank=rank, shards=shards, sim=sim,
                      net=net, system=system, recorder=recorder,
                      no_lost=no_lost, local_names=local_names, loci=loci)


def shard_worker_main(conn, spec, rank, shards):
    """Spawn entry point for one shard worker process."""
    import traceback
    try:
        build = build_shard(spec, rank, shards)
    except Exception:
        conn.send(("error", traceback.format_exc()))
        return
    serve_shard(conn, build.sim, build.net, build.finalize)


# ----------------------------------------------------------------------
# drivers


def _assemble(results, conductor=None):
    results = sorted(results, key=lambda result: result["rank"])
    if results[0]["lines"] is not None:
        trace = merge_shard_lines([result["lines"] for result in results])
    else:
        trace = None
    out = {
        "shards": len(results),
        "trace": trace,
        "trace_paths": [result["trace_path"] for result in results],
        "events": sum(result["events"] for result in results),
        "jobs_submitted": sum(result["jobs_submitted"]
                              for result in results),
        "jobs_completed": sum(result["jobs_completed"]
                              for result in results),
        "per_shard": results,
    }
    if conductor is not None:
        out["windows"] = conductor.windows
        out["descriptors_routed"] = conductor.descriptors_routed
    return out


def run_reference(spec):
    """The serial reference: the whole cluster in one in-process kernel,
    driven by a single ``run()`` — no windows, no subprocesses."""
    build = build_shard(spec, rank=0, shards=1)
    build.sim.run(until=spec.horizon)
    result = build.finalize()
    return _assemble([result])


def run_sharded(spec, shards):
    """Run ``spec`` across ``shards`` worker processes under the
    conservative-window conductor; returns the merged results."""
    # Fail fast on topology errors (build_shard re-checks per rank, but
    # this way a bad CLI combo errors before any worker is spawned).
    if shards > spec.cells:
        raise SimulationError(
            f"{shards} shards need at least that many cells "
            f"(got {spec.cells}); a cell never straddles shards")
    if spec.pools >= 2 and shards > spec.pools:
        raise SimulationError(
            f"{shards} shards need at least that many pools "
            f"(got {spec.pools}); a pool never straddles shards")
    conductor = ShardedSimulation(
        shard_worker_main,
        [(spec, rank, shards) for rank in range(shards)],
        latency=spec.latency, horizon=spec.horizon,
    )
    results = conductor.run()
    return _assemble(results, conductor)


def merge_trace_files(result, out_path):
    """Merge a file-backed run's keyed shard traces into one canonical
    JSONL trace at ``out_path``; returns the line count."""
    paths = result["trace_paths"]
    if any(path is None for path in paths):
        raise SimulationError("run recorded traces in memory, not files")
    return merge_shard_traces(paths, out_path)
