#!/usr/bin/env python3
"""condorbench: the reference benchmark of the simulator, the ops plane
and the live service.

Three ways in::

    python3 benchmarks/condorbench/run.py --seed 42
        every workload, untraced then traced; prints every metric by name
        with its unit, writes results/latest.json, appends one record to
        results/trajectory.jsonl, exits non-zero on a failed check

    python3 benchmarks/condorbench/run.py --workload W --seed N \
            --seconds S --trace 0|1
        one workload, one pass set; the last line of stdout is one JSON
        object (--trace 0: the end-to-end metrics, --trace 1: the
        per-layer metrics)

    python3 benchmarks/condorbench/run.py compare A.json B.json
        two results side by side against the bounds

End-to-end metrics are measured with tracing off.  The traced pass wraps
the layer boundaries from ``trace.py`` and reports where the time went;
the ratio of the two is ``trace.overhead_ratio``.
"""

import argparse
import datetime
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _bootstrap():
    """Make ``condorbench`` and ``repro`` importable for a script run."""
    benchmarks = os.path.dirname(HERE)
    src = os.path.join(os.path.dirname(benchmarks), "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print("condorbench: src/repro is not beside the benchmark; "
              "there is nothing to measure here", file=sys.stderr)
        sys.exit(2)
    # The script's own directory leads sys.path; replacing it keeps this
    # package's trace.py from shadowing the standard library's.
    sys.path[:] = [benchmarks, src] + [
        entry for entry in sys.path
        if os.path.abspath(entry or os.getcwd()) != HERE]


if __package__ in (None, ""):
    _bootstrap()

from condorbench import metrics as names  # noqa: E402
from condorbench import service, workloads  # noqa: E402
from condorbench.stats import median, percentile  # noqa: E402

WORK_ROOT = os.path.join(HERE, ".work")
RESULTS = os.path.join(HERE, "results")
_PASS_TIMEOUT_S = 170


# ----------------------------------------------------------------------
# simulator workloads

def _sub_seed(seed, k):
    """Pass ``k`` of a run simulates its own seed, so a run's median is
    taken over inputs as well as over host noise; pass 0 is ``seed``."""
    return seed + 1_000_003 * k


def sim_pass(name, seed, workdir, trace=False, quick=False, spans_out=None):
    """One pass in a fresh process; set-up is spawn → experiment built.

    Every timing that comes back is rescaled to the reference kernel's
    nominal speed (see reference.py), set-up included.
    """
    os.makedirs(workdir, exist_ok=True)
    spec = {"workload": name, "seed": seed, "trace": trace, "quick": quick,
            "workdir": workdir, "spans_out": spans_out}
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "condorbench.simpass", json.dumps(spec)],
        env=service.child_env(), cwd=workdir, capture_output=True,
        text=True, timeout=_PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} pass failed:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["seed"] = seed
    out["setup_s"] = (out.pop("ready_t") - spawned) * out["speed"]
    shutil.rmtree(workdir, ignore_errors=True)
    return out


def _exact_counts(sim_pass_result):
    """The counters that repeat exactly for a seed (one is a wall clock)."""
    counts = dict(sim_pass_result["counts"])
    del counts["core.coordinator.cycle_s_sum"]
    return counts


def _sim_checks(name, passes, quick):
    """``{check: ok}`` over a workload's passes (outside any timing)."""
    spec = workloads.WORKLOADS[name]
    checks = {}
    for i, p in enumerate(passes):
        for check, ok in p["checks"].items():
            checks[f"pass{i}.{check}"] = ok
        if not quick:
            for field, pinned in spec["pinned"].get(p["seed"], {}).items():
                checks[f"pass{i}.{field}_is_pinned"] = p[field] == pinned
    by_seed = {}
    for p in passes:
        by_seed.setdefault(p["seed"], []).append(p)
    for seed, same in by_seed.items():
        if len(same) > 1:
            checks[f"seed{seed}.digest_repeats"] = (
                len({p["digest"] for p in same}) == 1)
            checks[f"seed{seed}.counts_repeat"] = all(
                _exact_counts(p) == _exact_counts(same[0]) for p in same)
            if spec["recorded"]:
                checks[f"seed{seed}.trace_sha256_repeats"] = (
                    len({p["trace_sha256"] for p in same}) == 1)
    return checks


def measure_sim(name, seed, seconds, trace, quick, work, out_dir):
    started = time.monotonic()
    if not trace:
        passes = []
        # Another pass starts while at least half of it fits in --seconds:
        # a run overshoots by half a pass at most, on a slow box too.
        while not passes or (time.monotonic() - started) * (
                1.0 + 0.5 / len(passes)) <= seconds:
            k = len(passes)
            passes.append(sim_pass(name, _sub_seed(seed, k),
                                   os.path.join(work, f"pass{k}"),
                                   quick=quick))
        samples = {
            "setup_s": [p["setup_s"] for p in passes],
            "wall_s": [p["wall_s"] for p in passes],
            "peak_rss_mib": [p["peak_rss_mib"] for p in passes],
            "latency_ms": [median(p["steps_ms"]) for p in passes],
            "latency_p90_ms": [percentile(p["steps_ms"], 90)
                               for p in passes],
        }
        values = {metric: median(vals) for metric, vals in samples.items()}
        return values, samples, _sim_checks(name, passes, quick)

    spans_out = os.path.join(out_dir, f"spans-{name}.jsonl")
    plain = sim_pass(name, seed, os.path.join(work, "plain"), quick=quick)
    traced = sim_pass(name, seed, os.path.join(work, "traced"), trace=True,
                      quick=quick, spans_out=spans_out)
    checks = _sim_checks(name, [plain, traced], quick)
    values = dict.fromkeys((n for n, *_ in names.PER_LAYER), 0.0)
    for layer, row in traced["layers"].items():
        values[f"{layer}.self_s"] = row["self_s"]
        values[f"{layer}.calls"] = row["calls"]
    counts = dict(plain["counts"])
    stations = counts.pop("stations")
    values.update(counts)
    execute_s = plain["phases"]["execute_s"]
    values["sim.kernel.events_per_s"] = (
        counts["sim.kernel.events"] / execute_s)
    values["core.coordinator.station_cycles_per_s"] = (
        counts["core.coordinator.cycles"] * stations / execute_s)
    if workloads.WORKLOADS[name]["recorded"]:
        # The tax of recording is read against the same month unrecorded,
        # measured in this invocation.
        bare = sim_pass("paper_month", seed, os.path.join(work, "bare"),
                        quick=quick)
        checks["recording_leaves_the_simulation_alone"] = (
            bare["digest"] == plain["digest"])
        phases = plain["phases"]
        values.update({
            "telemetry.trace.records": plain["trace_records"],
            "telemetry.trace.bytes": plain["trace_bytes"],
            "telemetry.trace.record_s": execute_s,
            "telemetry.trace.record_tax_ratio":
                execute_s / bare["phases"]["execute_s"],
            "telemetry.trace.replay_s": phases["replay_s"],
            "telemetry.store.ingest_s": phases["ingest_s"],
            "telemetry.store.ingest_events_per_s":
                plain["trace_records"] / phases["ingest_s"],
            "telemetry.store.reingest_noop_s": phases["reingest_noop_s"],
            "telemetry.store.summary_s": phases["summary_s"],
            "telemetry.store.db_bytes": plain["db_bytes"],
        })
    values["trace.overhead_ratio"] = (
        traced["traced_wall_s"] * traced["pass_speed"]
        / (plain["traced_wall_s"] * plain["pass_speed"]))
    values["reference.speed_ratio"] = plain["pass_speed"]
    values["trace.attributed_ratio"] = (
        sum(row["self_s"] for row in traced["layers"].values())
        / traced["traced_wall_s"])
    return values, {}, checks


# ----------------------------------------------------------------------
# service workloads

def _service_checks(tag, result):
    return {f"{tag}.{check}": ok for check, ok in result["checks"].items()}


def measure_service(name, seed, seconds, trace, quick, work, out_dir):
    if not trace:
        result = service.run(name, seed, seconds,
                             os.path.join(work, "run"))
        # Set-up is cheap to repeat and noisy, so it is taken three times.
        setups = [result["setup_s"]] + [
            service.time_setup(os.path.join(work, f"setup{i}"), name)
            for i in range(0 if quick else 2)]
        samples = {
            "setup_s": setups,
            "wall_s": [result["wall_s"]],
            "peak_rss_mib": [result["peak_rss_mib"]],
            "latency_ms": [result["latency_typical_ms"]],
            "latency_p90_ms": [percentile(result["latency_ms"], 90)],
        }
        values = {metric: median(vals) for metric, vals in samples.items()}
        return (values, samples, _service_checks("run", result),
                result["attempted"], result["failed"])

    plain = service.run(name, seed, seconds / 2.0,
                        os.path.join(work, "plain"))
    traced = service.run(name, seed, seconds / 2.0,
                         os.path.join(work, "traced"), traced=True)
    values = dict.fromkeys((n for n, *_ in names.PER_LAYER), 0.0)
    values.update({
        "service.client.submit_rtt_ms_p50": median(plain["submit_rtt_ms"]),
        "service.client.submit_rtt_ms_p99":
            percentile(plain["submit_rtt_ms"], 99),
        "service.client.q_rtt_ms_p50": median(plain["query_ms"]),
        "service.client.q_rtt_ms_p99": percentile(plain["query_ms"], 99),
        "service.client.ping_rtt_us_p50": plain["ping_rtt_us_p50"],
        "service.loadgen.late_ms_p99": plain["late_ms_p99"],
        "service.daemon.submit_to_placed_ms_p50":
            median(plain["submit_to_placed_ms"]),
        "service.daemon.submit_to_placed_ms_p99":
            percentile(plain["submit_to_placed_ms"], 99),
        "service.agent.placed_to_done_ms_p50":
            median(plain["placed_to_done_ms"]),
        "service.e2e.submit_to_done_ms_p50":
            median(plain["submit_to_done_ms"]),
        "service.e2e.submit_to_done_ms_p95":
            percentile(plain["submit_to_done_ms"], 95),
        "service.e2e.submit_to_done_ms_p99":
            percentile(plain["submit_to_done_ms"], 99),
        "service.e2e.submit_per_s": plain["submit_per_s"],
        "service.e2e.drain_jobs_per_s": plain["drain_jobs_per_s"],
        "service.e2e.limit_met": plain["limit_met"],
        "service.protocol.roundtrip_us_p50":
            service.codec_roundtrip_us_p50(),
        "reference.speed_ratio": plain["cpu_speed"],
        "reference.fsync_ms_p50": plain["fsync_ms"],
        "reference.calm_wait_s": plain["calm_wait_s"],
        # An open loop's wall time is its schedule, so the overhead is
        # read on the latency the workload reports.
        "trace.overhead_ratio": (traced["latency_typical_ms"]
                                 / plain["latency_typical_ms"]),
    })
    values.update(service.layer_metrics(traced["spans"], traced["jobs"]))
    with open(os.path.join(out_dir, f"spans-{name}.jsonl"), "w",
              encoding="utf-8") as fh:
        for process, spans in sorted(traced["spans"].items()):
            for span in spans:
                fh.write(json.dumps({"process": process, **span}) + "\n")
    checks = {**_service_checks("plain", plain),
              **_service_checks("traced", traced)}
    return (values, {}, checks,
            plain["attempted"] + traced["attempted"],
            plain["failed"] + traced["failed"])


# ----------------------------------------------------------------------
# one workload, either pass

def measure(name, seed, seconds, trace, quick=False, out_dir=RESULTS):
    """Run one workload; returns the result record of that pass set."""
    work = os.path.join(WORK_ROOT, f"{os.getpid()}-{name}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(out_dir, exist_ok=True)
    try:
        if workloads.WORKLOADS[name]["kind"] == "sim":
            values, samples, checks = measure_sim(
                name, seed, seconds, trace, quick, work, out_dir)
            # A simulator pass attempts nothing but its checks.
            attempted = len(checks)
            failed = sum(not ok for ok in checks.values())
        else:
            values, samples, checks, attempted, failed = measure_service(
                name, seed, seconds, trace, quick, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    return {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": names.UNITS[metric]}
                    for metric, value in values.items()},
        "samples": samples,
        "failed_checks": sorted(c for c, ok in checks.items() if not ok),
    }


# ----------------------------------------------------------------------
# environment, reporting

def _filesystem_of(path):
    best = ("", "unknown")
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                _dev, mount, fstype = line.split()[:3]
                if (path == mount or path.startswith(
                        mount.rstrip("/") + "/")) and len(mount) > len(
                            best[0]):
                    best = (mount, fstype)
    except OSError:
        pass
    return best[1]


def environment():
    """What the numbers were measured on, recorded with every result."""
    fstype = _filesystem_of(HERE)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "work_dir_filesystem": fstype,
        "disk_note": ("sandbox disk, not a device figure"
                      if fstype != "tmpfs" else
                      "TMPFS: fsync is free here, service figures are void"),
        "loadavg_at_start": os.getloadavg()[0],
        "knobs": {
            "serve --poll": workloads.SERVE_POLL,
            "agent --heartbeat": workloads.AGENT_HEARTBEAT,
            "agents": workloads.AGENTS,
            "placements_per_cycle": "default",
            "steady_rate_per_s": workloads.STEADY_RATE_PER_S,
            "steady_window_s": workloads.STEADY_WINDOW_S,
            "steady_calm_share": workloads.STEADY_CALM_SHARE,
            "backlog_jobs_per_second_of_run":
                workloads.BACKLOG_JOBS_PER_SECOND,
            "sim_steps": workloads.SIM_STEPS,
        },
    }


def _git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _print_metrics(title, record):
    print(f"\n## {title}  (correct={record['correct']}, "
          f"{record['failed']} failed of {record['attempted']})")
    for metric, cell in record["metrics"].items():
        reps = record["samples"].get(metric)
        tail = ("  reps " + " ".join(f"{v:.4g}" for v in reps)
                if reps and len(reps) > 1 else "")
        print(f"  {metric:44s} {cell['value']:>14.6g} {cell['unit']}{tail}")
    for check in record["failed_checks"]:
        print(f"  FAILED CHECK {check}")


def _print_layer_shares(record):
    wall = sum(cell["value"] for metric, cell in record["metrics"].items()
               if metric.endswith(".self_s"))
    if not wall:
        return
    print("  share of traced wall:")
    for metric, cell in sorted(record["metrics"].items(),
                               key=lambda kv: -kv[1]["value"]):
        if metric.endswith(".self_s") and cell["value"]:
            print(f"    {metric[:-len('.self_s')]:24s} "
                  f"{100.0 * cell['value'] / wall:5.1f} %")


def run_all(args):
    env = environment()
    print(f"# condorbench seed={args.seed} seconds={args.seconds} "
          f"quick={args.quick}")
    print(f"# {json.dumps(env, sort_keys=True)}")
    result = {"git_sha": _git_sha(),
              "date": datetime.datetime.now(datetime.timezone.utc)
              .isoformat(timespec="seconds"),
              "seed": args.seed, "seconds": args.seconds,
              "quick": args.quick, "env": env, "workloads": {}}
    failed = 0
    for name in workloads.WORKLOADS:
        plain = measure(name, args.seed, args.seconds, trace=False,
                        quick=args.quick, out_dir=args.out)
        traced = measure(name, args.seed, args.seconds, trace=True,
                         quick=args.quick, out_dir=args.out)
        _print_metrics(f"{name}: end to end (tracing off)", plain)
        _print_metrics(f"{name}: per layer (traced pass)", traced)
        _print_layer_shares(traced)
        failed += plain["failed"] + traced["failed"]
        result["workloads"][name] = {"end_to_end": plain,
                                     "per_layer": traced}
    latest = os.path.join(args.out, "latest.json")
    with open(latest, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    record = dict(result)
    record["workloads"] = {
        name: {side: {"correct": rec["correct"],
                      "metrics": {m: cell["value"]
                                  for m, cell in rec["metrics"].items()}}
               for side, rec in sides.items()}
        for name, sides in result["workloads"].items()}
    with open(os.path.join(args.out, "trajectory.jsonl"), "a",
              encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"\n# wrote {latest}; appended to trajectory.jsonl; "
          f"{failed} failed operation(s)")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# compare

def compare(path_a, path_b, out=sys.stdout):
    """Per (end-to-end metric, workload): both values, the ratio with its
    base, the bound, and ok / regressed / unresolved (the reps of either
    side range wider than the bound and the two ranges overlap).  Returns
    the number of regressed rows."""
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    print(f"{'workload':16s} {'metric':16s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict", file=out)
    regressed = 0
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        rec_a = a["workloads"][workload]["end_to_end"]
        rec_b = b["workloads"][workload]["end_to_end"]
        for metric, _unit, better, bound in names.END_TO_END:
            va = rec_a["metrics"][metric]["value"]
            vb = rec_b["metrics"][metric]["value"]
            worse = (vb - va) / va if better == "lower" else (va - vb) / va
            reps_a = rec_a["samples"].get(metric) or [va]
            reps_b = rec_b["samples"].get(metric) or [vb]
            wide = max((max(r) - min(r)) / median(r)
                       for r in (reps_a, reps_b)) > bound
            overlap = (min(reps_a) <= max(reps_b)
                       and min(reps_b) <= max(reps_a))
            if wide and overlap:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            else:
                verdict = "ok"
            regressed += verdict == "regressed"
            print(f"{workload:16s} {metric:16s} {va:12.5g} {vb:12.5g} "
                  f"{vb / va:7.3f} {bound:6.2f}  {verdict} "
                  f"(base A = {va:.5g} {names.UNITS[metric]})", file=out)
    return regressed


# ----------------------------------------------------------------------

def _default_seconds():
    with open(os.path.join(os.path.dirname(os.path.dirname(HERE)),
                           "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def _terminate(_signum, _frame):
    # Unwind through the ``finally`` blocks: they stop the children and
    # remove the work dir.
    sys.exit(143)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    signal.signal(signal.SIGTERM, _terminate)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return 1 if compare(args.a, args.b) else 0

    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="measure this workload only and end with "
                             "one JSON line")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured window "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="self-test sizes; numbers not comparable")
    parser.add_argument("--out", default=RESULTS, metavar="DIR",
                        help="where spans and results are written")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else _default_seconds()
    if args.workload is None:
        return run_all(args)
    record = measure(args.workload, args.seed, args.seconds,
                     trace=bool(args.trace), quick=args.quick,
                     out_dir=args.out)
    for check in record["failed_checks"]:
        print(f"FAILED CHECK {check}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
