"""Performance smoke test for CI.

Three suites, selected with ``--suite``:

* ``kernel`` (default) — the kernel micro-benchmarks plus a 2-day
  mini-month; numbers go to ``BENCH_kernel.json``.
* ``coordinator`` — delta-protocol coordinator scaling at N=100 and
  N=1000 stations (2 simulated days each), plus the federated build at
  N=1000/K=4; numbers go to ``BENCH_coordinator.json``.  Each row runs
  in its own subprocess so it carries an honest ``peak_rss_mib``.
  ``--full`` additionally measures the polling build at N=1000 (the
  speedup denominator), the N=5000 delta run and the federation
  headline — a 50k-station day at K=10 — slow, so off by default in CI.
* ``service`` — the live service plane over real sockets (see
  :mod:`bench_service`): sustained submissions/sec, end-to-end
  jobs/sec, coordinator recovery time and standby failover time;
  numbers go to ``BENCH_service.json``.  Latencies gate inverted
  (``*_per_sec``) so the shared higher-is-better floor applies.

With ``--check BASELINE`` the run fails when any gated throughput
metric regresses more than the tolerance (default 30%) against the
checked-in baseline.  Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py --output BENCH_kernel.json
    PYTHONPATH=src python benchmarks/perf_smoke.py --suite coordinator \
        --check benchmarks/results/BENCH_coordinator.json

Kept dependency-free (stdlib only) so the CI job needs nothing beyond
the repo itself.
"""

import argparse
import json
import resource
import sys
import time


def _best_of(fn, rounds=3):
    """Highest throughput over a few rounds (shields against CI noise)."""
    return max(fn() for _ in range(rounds))


def bench_dispatch_chain(n=100_000):
    """Self-rescheduling event chain: schedule + dispatch cost."""
    from repro.sim import Simulation

    def once():
        sim = Simulation()
        state = {"n": 0}

        def tick():
            state["n"] += 1
            if state["n"] < n:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        t0 = time.perf_counter()
        sim.run()
        return n / (time.perf_counter() - t0)

    return _best_of(once)


def bench_wide_heap(m=50_000):
    """Pre-filled agenda: heap sift cost under a deep heap."""
    import random

    from repro.sim import Simulation

    def once():
        sim = Simulation()
        rng = random.Random(1)

        def noop():
            pass

        for _ in range(m):
            sim.schedule(rng.random() * 1000, noop)
        t0 = time.perf_counter()
        sim.run()
        return m / (time.perf_counter() - t0)

    return _best_of(once)


def bench_process_switch(procs=10, yields=1000):
    """Generator-process resume cost."""
    from repro.sim import Simulation

    def once():
        sim = Simulation()

        def proc():
            for _ in range(yields):
                yield 1.0

        for _ in range(procs):
            sim.spawn(proc())
        t0 = time.perf_counter()
        sim.run()
        return procs * yields / (time.perf_counter() - t0)

    return _best_of(once)


def bench_telemetry_emit(k=50_000):
    """Hub emission with zero subscribers (the fast path)."""
    from repro.telemetry import kinds
    from repro.telemetry.events import TelemetryHub

    def once():
        hub = TelemetryHub()
        t0 = time.perf_counter()
        for i in range(k):
            hub.emit(kinds.JOB_SUBMITTED, source="x", job=i)
        return k / (time.perf_counter() - t0)

    return _best_of(once)


def bench_checkpoint_store(jobs=8, days=8):
    """Checksummed two-phase store under an 8-day checkpoint profile.

    Models ``jobs`` background jobs cutting 15-minute periodic
    checkpoints for ``days`` simulated days: every operation is a full
    store (checksum + two-phase commit, two generations held) followed
    by a verify-on-restore fetch.
    """
    from repro.machine import Disk
    from repro.remote_unix import CheckpointImage, CheckpointStore

    ops = jobs * days * 96        # one image per 15 minutes

    def once():
        store = CheckpointStore(Disk(500.0), generations=2)
        t0 = time.perf_counter()
        for i in range(ops):
            sequence = i + 1
            store.store(CheckpointImage(i % jobs, float(sequence), 0.5,
                                        float(sequence), sequence))
            image, _ = store.fetch_verified(i % jobs)
            assert image is not None
        return ops / (time.perf_counter() - t0)

    return _best_of(once)


def bench_mini_month(days=2, seed=42):
    """End-to-end: the full stack over a short horizon."""
    from repro.analysis.experiment import ExperimentRun
    from repro.core.job import reset_job_ids

    reset_job_ids()
    t0 = time.perf_counter()
    run = ExperimentRun(seed=seed, days=days).execute()
    wall = time.perf_counter() - t0
    return {
        "wall_seconds": round(wall, 4),
        "events": run.sim.events_dispatched,
        "events_per_sec": round(run.sim.events_dispatched / wall, 1),
    }


def bench_coordinator_scale(stations, mode="delta", days=2, rounds=1,
                            pools=None):
    """One scaled-cluster run; throughput in station-cycles/second.

    ``station_cycles_per_sec`` (stations x coordinator cycles / wall) is
    the gated metric: it normalises cluster size away, so the same floor
    protects both sizes, and under full polling it is roughly flat while
    the delta protocol grows it with N — which is the whole point.
    With ``pools`` the run is federated into that many per-pool
    coordinators under the matchmaker.  Best wall time over ``rounds``
    runs (short runs need warm-up shielding just like the
    micro-benchmarks).
    """
    from repro.analysis import run_month
    from repro.core.config import CondorConfig
    from repro.core.job import reset_job_ids

    config = CondorConfig(max_machines_per_station=6,
                          coordinator_mode=mode)
    kwargs = {} if pools is None else {"pools": pools}
    wall = None
    for _ in range(rounds):
        reset_job_ids()
        t0 = time.perf_counter()
        run = run_month(seed=7, days=days, stations=stations,
                        job_scale=0.1, config=config, **kwargs)
        elapsed = time.perf_counter() - t0
        wall = elapsed if wall is None else min(wall, elapsed)
    cycles = run.system.coordinator.cycles
    row = {
        "stations": stations,
        "mode": "federated" if pools is not None else mode,
        "days": days,
        "wall_seconds": round(wall, 4),
        "events": run.sim.events_dispatched,
        "cycles": cycles,
        "station_cycles_per_sec": round(stations * cycles / wall, 1),
    }
    if pools is not None:
        row["pools"] = pools
    return row


def _coordinator_row(spec):
    """Run one coordinator row in a fresh interpreter; return its dict.

    The isolation serves the per-row ``peak_rss_mib`` column: ru_maxrss
    is a process-lifetime high-water mark, so rows measured in-process
    would all inherit the largest row's footprint.  The child reports
    its own peak (see the hidden ``--row`` flag in :func:`main`).
    """
    import os
    import subprocess

    here = os.path.abspath(__file__)
    src = os.path.join(os.path.dirname(os.path.dirname(here)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, here, "--row", json.dumps(spec)],
        capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"coordinator row {spec} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _with_rss(results):
    # ru_maxrss is KiB on Linux, bytes on macOS; normalise to MiB.
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover
        maxrss //= 1024
    results["peak_rss_mib"] = round(maxrss / 1024, 1)
    results["python"] = sys.version.split()[0]
    return results


def measure_kernel():
    return _with_rss({
        "dispatch_chain_eps": round(bench_dispatch_chain(), 1),
        "wide_heap_eps": round(bench_wide_heap(), 1),
        "process_switch_eps": round(bench_process_switch(), 1),
        "telemetry_emit_eps": round(bench_telemetry_emit(), 1),
        "checkpoint_store_ops": round(bench_checkpoint_store(), 1),
        "mini_month": bench_mini_month(),
    })


#: The N=5000 delta row as measured before the anti-entropy rotation and
#: batched poll fan-out (the "superlinear droop" the ROADMAP names:
#: full-cluster anti-entropy bursts every 15th cycle were ~53% of all
#: agenda events).  Kept verbatim so the artifact records what the fix
#: is being compared against.
PRE_PR6_N5000_DELTA = {
    "cycles": 1439,
    "events": 1705827,
    "mode": "delta",
    "station_cycles_per_sec": 276152.8,
    "stations": 5000,
    "wall_seconds": 26.0544,
}


def measure_coordinator(full=False):
    results = {
        "n100": _coordinator_row(dict(stations=100, rounds=3)),
        "n1000": _coordinator_row(dict(stations=1000, rounds=2)),
        "n1000_federated_k4": _coordinator_row(
            dict(stations=1000, rounds=2, pools=4)),
    }
    if full:
        # The pre-change builds: full polling every cycle (still
        # runnable, measured live) and the pre-rotation N=5000 delta row
        # (recorded snapshot).  Checked into the baseline JSON so the
        # artifact itself records what each change is compared against.
        poll = _coordinator_row(dict(stations=1000, mode="poll"))
        results["pre_pr_baseline"] = {
            "n1000_poll": poll,
            "n5000_delta": dict(PRE_PR6_N5000_DELTA),
        }
        results["n5000"] = _coordinator_row(dict(stations=5000))
        # The federation headline: a 50k-station pool (K=10) completing
        # a full simulated day at least as fast, per station-cycle, as
        # the single-coordinator N=5000 run did before this change.
        results["n50000_federated_k10"] = _coordinator_row(
            dict(stations=50000, days=1, pools=10))
        results["speedup_n1000"] = round(
            poll["wall_seconds"] / results["n1000"]["wall_seconds"], 2)
        results["speedup_n5000"] = round(
            PRE_PR6_N5000_DELTA["wall_seconds"]
            / results["n5000"]["wall_seconds"], 2)
    return _with_rss(results)


#: Throughput metrics each suite's regression gate compares
#: (higher is better).
GATED = {
    "kernel": (
        ("dispatch_chain_eps",),
        ("wide_heap_eps",),
        ("process_switch_eps",),
        ("telemetry_emit_eps",),
        ("checkpoint_store_ops",),
        ("mini_month", "events_per_sec"),
    ),
    "coordinator": (
        ("n100", "station_cycles_per_sec"),
        ("n1000", "station_cycles_per_sec"),
        ("n1000_federated_k4", "station_cycles_per_sec"),
        # Only measured with --full; absent rows simply don't gate.
        ("n50000_federated_k10", "station_cycles_per_sec"),
    ),
    "service": (
        ("submit", "submissions_per_sec"),
        ("end_to_end", "jobs_per_sec"),
        # Inverted latencies: a slower recovery/failover lowers the
        # rate and trips the same higher-is-better floor.
        ("recovery", "recoveries_per_sec"),
        ("failover", "failovers_per_sec"),
    ),
}

def measure_service():
    import bench_service

    return _with_rss(bench_service.measure())


SUITES = {
    "kernel": lambda args: measure_kernel(),
    "coordinator": lambda args: measure_coordinator(full=args.full),
    "service": lambda args: measure_service(),
}

DEFAULT_OUTPUT = {
    "kernel": "BENCH_kernel.json",
    "coordinator": "BENCH_coordinator.json",
    "service": "BENCH_service.json",
}


def _lookup(record, path):
    for key in path:
        record = record[key]
    return record


def check(results, baseline, tolerance, suite="kernel"):
    """Return a list of regression messages (empty = pass)."""
    failures = []
    for path in GATED[suite]:
        name = ".".join(path)
        try:
            base = _lookup(baseline, path)
            got = _lookup(results, path)
        except KeyError:
            # Rows measured only with --full don't gate when absent.
            continue
        floor = base * (1.0 - tolerance)
        status = "ok" if got >= floor else "REGRESSION"
        print(f"  {name:30s} {got:>12,.0f} ev/s  "
              f"(baseline {base:,.0f}, floor {floor:,.0f}) {status}")
        if got < floor:
            failures.append(
                f"{name}: {got:,.0f} ev/s is below {floor:,.0f} "
                f"({tolerance:.0%} under baseline {base:,.0f})"
            )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", choices=sorted(SUITES),
                        default="kernel",
                        help="which benchmark suite to run")
    parser.add_argument("--output", metavar="FILE",
                        help="where to write the measured numbers "
                             "(default depends on --suite)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="baseline JSON to compare against")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression (default 0.30)")
    parser.add_argument("--full", action="store_true",
                        help="coordinator suite: also measure the polling "
                             "build at N=1000, the N=5000 delta run and "
                             "the N=50000 federated day")
    parser.add_argument("--row", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.row:
        # Hidden worker mode: run one coordinator row and report it —
        # including this process's own peak RSS — as JSON on stdout.
        row = bench_coordinator_scale(**json.loads(args.row))
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":  # pragma: no cover
            maxrss //= 1024
        row["peak_rss_mib"] = round(maxrss / 1024, 1)
        json.dump(row, sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    output = args.output or DEFAULT_OUTPUT[args.suite]

    print(f"# measuring {args.suite} throughput ...")
    results = SUITES[args.suite](args)
    with open(output, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"# wrote {output}")
    for key, value in sorted(results.items()):
        print(f"  {key}: {value}")

    if args.check:
        with open(args.check, encoding="utf-8") as fh:
            baseline = json.load(fh)
        print(f"\n# gating against {args.check} "
              f"(tolerance {args.tolerance:.0%})")
        failures = check(results, baseline, args.tolerance,
                         suite=args.suite)
        if failures:
            print("\nPERF REGRESSION:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print("# perf smoke: all metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
