"""``repro-condor`` — command-line front end of the reproduction.

Subcommands:

* ``month``    — run the paper's one-month experiment and print exhibits
  (``--trace FILE`` also records the full telemetry event stream);
* ``ablation`` — replay a fixed workload under scheduler variants;
* ``trace``    — run the month and export its workload as a JSON trace;
* ``replay``   — reconstruct a run's headline metrics from a telemetry
  trace alone, without re-simulating;
* ``query``    — ingest a trace into the sqlite ops plane and run canned
  reports (fair-share history, checkpoint audit, utilization heatmap,
  fault timelines) or raw SQL over it;
* ``sweep``    — run the experiment across a range of seeds, optionally
  fanned out over worker processes (``--jobs N``);
* ``chaos``    — run seeded fault schedules (crashes, partitions, loss
  bursts) and verify zero lost jobs plus byte-identical replay;
  ``--suite service`` runs the *live* suite against real processes
  with real ``kill -9``;
* ``serve``    — run the live coordinator daemon (or a warm standby)
  speaking length-prefixed JSON over TCP;
* ``agent``    — run one station agent against a coordinator;
* ``submit`` / ``q`` / ``rm`` / ``drain`` — client verbs against a
  running coordinator;
* ``demo``     — a one-minute, five-station narrated demo.

Every verb imports what it runs when it runs, and the parser reads the
simulator's registries (exhibits, reports, chaos schedules) only to
validate a value or print help: ``serve``, ``agent`` and the client
verbs load the service plane, not the simulator.
"""

import argparse
import importlib
import math
import os
import sys
import time


def _ablation(kind, name, **kwargs):
    """``(kind, factory)``: the factory builds ``repro.core.<name>``."""

    def factory():
        from repro import core

        return getattr(core, name)(**kwargs)

    return kind, factory


#: Named ablation variants available from the command line.
ABLATIONS = {
    "updown": _ablation("policy", "UpDownPolicy"),
    "fcfs": _ablation("policy", "FcfsPolicy"),
    "round-robin": _ablation("policy", "RoundRobinPolicy"),
    "butler-kill": _ablation("config", "CondorConfig",
                             kill_on_owner_return=True),
    "no-grace": _ablation("config", "CondorConfig", grace_period=0.0),
    "unthrottled": _ablation("config", "CondorConfig",
                             placements_per_cycle=100,
                             grants_per_station_per_cycle=100),
    "history-placement": _ablation("config", "CondorConfig",
                                   host_selection="longest_history"),
}


def _registry(module, name):
    """The sorted keys of ``module.name`` (imports ``module``)."""
    return sorted(getattr(importlib.import_module(module), name))


class _Names:
    """A list of names computed on first iteration or membership test.

    argparse touches ``choices`` only to validate a value or to format
    usage and help, so a parser holding these imports nothing until
    then.  Assign it after ``add_argument``, which formats the metavar
    (and so iterates ``choices``) at once.  ``str()`` joins the names
    with commas, for help text.
    """

    def __init__(self, load):
        self._load = load
        self._names = None

    def _get(self):
        if self._names is None:
            self._names = self._load()
        return self._names

    def __iter__(self):
        return iter(self._get())

    def __contains__(self, name):
        return name in self._get()

    def __str__(self):
        return ", ".join(self._get())


class _Help(str):
    """Help text whose ``%(names)s`` field is filled when it is printed."""

    def __new__(cls, text, names):
        help_text = super().__new__(cls, text)
        help_text.names = names
        return help_text

    def __mod__(self, params):
        return str(self) % {**params, "names": self.names}


def _int_at_least(low):
    """argparse ``type=``: an integer no smaller than ``low``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be >= {low}, got {value}")
        return value

    return parse


def _positive_float(text):
    """argparse ``type=``: a finite float greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text}")
    return value


def _seeds(text):
    """argparse ``type=``: ``"3"``, ``"1,5,9"``, or the inclusive range
    ``"1..8"``; never empty."""
    try:
        if ".." in text:
            lo, _, hi = text.partition("..")
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed seeds {text!r} (want A..B or A,B,C)") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def _month_options(parser):
    """The month verbs' ``--seed``, ``--days`` and ``--scale``."""
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--days", type=_int_at_least(1), default=30)
    parser.add_argument("--scale", type=_positive_float, default=1.0)


def _month_run(args, **kwargs):
    """The verb's month experiment, executed; ``None`` after printing
    ``error: ...`` when its arguments make no run."""
    from repro.analysis.experiment import ExperimentRun
    from repro.sim import SimulationError

    try:
        run = ExperimentRun(seed=args.seed, days=args.days,
                            job_scale=args.scale, **kwargs)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    run.execute()
    return run


def _cmd_month(args):
    from repro.analysis import ALL_EXHIBITS

    start = time.time()
    run = _month_run(args, trace_path=args.trace, pools=args.pools or None)
    if run is None:
        return 2
    if args.trace:
        print(f"# recorded {run.telemetry.events_emitted:,} telemetry "
              f"events to {args.trace}")
    if args.csv:
        from repro.analysis.export import export_csvs

        files = export_csvs(run, args.csv)
        print(f"# wrote {len(files)} CSV files to {args.csv}")
    print(f"# simulated {args.days} days in {time.time() - start:.1f} s "
          f"({run.sim.events_dispatched:,} events)\n")
    names = [args.exhibit] if args.exhibit else sorted(ALL_EXHIBITS)
    for name in names:
        print("=" * 72)
        print(ALL_EXHIBITS[name](run)["text"])
        print()
    return 0


def _cmd_ablation(args):
    from repro.analysis.ablation import baseline_trace, run_variant, summarize
    from repro.metrics.report import render_table

    records = baseline_trace(seed=args.seed, days=args.days)
    print(f"# replaying {len(records)} jobs under: "
          f"{', '.join(args.variants)}\n")
    rows = []
    for name in args.variants:
        kind, factory = ABLATIONS[name]
        kwargs = {kind: factory()}
        summary = summarize(run_variant(records, seed=args.seed,
                                        days=args.days, **kwargs))
        rows.append((
            name, summary["avg_wait_light"], summary["avg_wait_heavy"],
            summary["checkpoints"], summary["preemptions"],
            summary["kills"], summary["wasted_hours"], summary["completed"],
        ))
    print(render_table(
        ["variant", "light wait", "heavy wait", "ckpts", "preempts",
         "kills", "wasted h", "completed"],
        rows, title="Ablation results (identical workload & owners)",
    ))
    return 0


def _cmd_trace(args):
    from repro.workload.traces import dump_trace

    run = _month_run(args)
    if run is None:
        return 2
    dump_trace(run.jobs, args.output)
    print(f"wrote {len(run.jobs)} job records to {args.output}")
    return 0


def _cmd_stations(args):
    from repro.metrics.stations import render_station_breakdown

    run = _month_run(args)
    if run is None:
        return 2
    print(render_station_breakdown(
        run.system.stations.values(), run.horizon,
        title=f"Per-station accounting over {args.days} days",
    ))
    return 0


def _cmd_replay(args):
    from repro.metrics.report import render_table
    from repro.sim import SimulationError
    from repro.telemetry import replay_trace

    try:
        summary = replay_trace(args.trace_file)
    except (OSError, SimulationError) as exc:
        print(f"error: cannot replay {args.trace_file}: {exc}",
              file=sys.stderr)
        return 2
    head = summary.headline()
    print(f"# replayed {head['events']:,} events from {args.trace_file} "
          f"({head['end_time_days']:.1f} simulated days)\n")
    print(render_table(
        ["metric", "value"],
        [
            ("jobs submitted", head["jobs_submitted"]),
            ("jobs completed", head["jobs_completed"]),
            ("checkpoints taken", head["checkpoints"]),
            ("total demand (h)", head["total_demand_hours"]),
            ("hours consumed by Condor", head["remote_hours"]),
            ("hours of owner activity", head["local_hours"]),
            ("support hours (placement+ckpt+syscall)",
             head["support_hours"]),
        ],
        title="Headline metrics reconstructed from the trace",
    ))
    print()
    counts = sorted(summary.event_counts.items())
    print(render_table(
        ["event kind", "count"], counts, title="Event counts",
    ))
    return 0


def _cmd_query(args):
    import sqlite3

    from repro.analysis.ops import run_report
    from repro.metrics.report import render_table
    from repro.sim import SimulationError
    from repro.telemetry import replay_trace
    from repro.telemetry.store import TraceStore

    db = args.db or (f"{args.trace}.sqlite" if args.trace else None)
    if db is None:
        print("error: query needs --db FILE and/or --trace FILE",
              file=sys.stderr)
        return 2
    if args.report == "sql" and not args.statement:
        print("error: query sql needs a statement, e.g. "
              "query sql 'SELECT kind, COUNT(*) FROM events GROUP BY 1'",
              file=sys.stderr)
        return 2
    if not args.trace and not os.path.exists(db):
        print(f"error: no ops store at {db} (ingest a trace with --trace)",
              file=sys.stderr)
        return 2
    try:
        store = TraceStore(db)
    except (OSError, sqlite3.Error, SimulationError) as exc:
        print(f"error: cannot open ops store {db}: {exc}",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            added = store.ingest_file(args.trace)
            print(f"# ingested {added:,} new events from {args.trace} "
                  f"into {db} (cursor at seq {store.next_seq:,})")
        if args.report == "sql":
            columns, rows = store.query(args.statement)
            print(render_table(columns or ["result"], rows,
                               title=args.statement))
            return 0
        headers, rows, title = run_report(store, args.report, args)
        print(render_table(headers, rows, title=title))
        if args.report == "summary" and args.check_replay:
            head = store.summary().headline()
            replayed = replay_trace(args.check_replay).headline()
            mismatched = sorted(
                key for key in {**head, **replayed}
                if head.get(key) != replayed.get(key))
            if mismatched:
                for key in mismatched:
                    print(f"MISMATCH {key}: store={head.get(key)!r} "
                          f"replay={replayed.get(key)!r}",
                          file=sys.stderr)
                return 1
            print(f"\n# store summary matches replay of "
                  f"{args.check_replay} bit-for-bit "
                  f"({len(head)} scalars)")
        return 0
    except BrokenPipeError:
        raise                   # not a store error: main handles it
    except (OSError, sqlite3.Error, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        store.close()


def _cmd_sweep(args):
    import json as _json

    from repro.analysis.sweep import sweep_seeds
    from repro.metrics.report import render_table
    from repro.sim import SimulationError

    seeds = args.seeds
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
    start = time.time()
    try:
        results = sweep_seeds(
            seeds, jobs=args.jobs, days=args.days, job_scale=args.scale,
            stations=args.stations, trace_dir=args.trace_dir,
            pools=args.pools or None,
        )
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.time() - start
    print(f"# {len(seeds)} seeds x {args.days} days on "
          f"{args.jobs or 1} worker(s): {elapsed:.1f} s\n")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(
                {str(seed): metrics for seed, metrics in results},
                fh, indent=2, sort_keys=True,
            )
        print(f"# wrote per-seed metrics to {args.json}")
    metric_names = sorted(results[0][1])
    rows = [
        [seed] + [f"{metrics[name]:.4g}" for name in metric_names]
        for seed, metrics in results
    ]
    means = [
        sum(metrics[name] for _s, metrics in results) / len(results)
        for name in metric_names
    ]
    rows.append(["mean"] + [f"{m:.4g}" for m in means])
    print(render_table(["seed"] + metric_names, rows,
                       title="Headline metrics per seed"))
    return 0


def _cmd_chaos(args):
    if args.suite == "service":
        from repro.service.harness import run_service_suite

        return run_service_suite(args)
    from repro.analysis.chaos import (
        SCHEDULES,
        SUITES,
        replay_identical,
        run_chaos,
    )
    from repro.metrics.report import render_table
    from repro.sim import SimulationError

    if args.suite:
        if args.suite not in SUITES:
            known = ", ".join(sorted(SUITES))
            print(f"unknown suite {args.suite!r} (known: {known})",
                  file=sys.stderr)
            return 2
        names = list(SUITES[args.suite]) + list(args.schedules or ())
    else:
        names = args.schedules or sorted(SCHEDULES)
    start = time.time()
    rows = []
    failures = 0
    for name in names:
        try:
            if args.replay_check:
                identical, run = replay_identical(name, seed=args.seed)
            else:
                identical, run = None, run_chaos(name, seed=args.seed)
        except SimulationError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}", file=sys.stderr)
            continue
        head = run.headline()
        if identical is False:
            failures += 1
        if args.trace_dir:
            os.makedirs(args.trace_dir, exist_ok=True)
            path = os.path.join(args.trace_dir,
                                f"chaos-{name}-seed{args.seed}.jsonl")
            with open(path, "wb") as fh:
                fh.write(run.trace_bytes)
        rows.append((
            name, f"{head['completed']}/{head['jobs']}",
            head["faults_injected"], head["transfers_failed"],
            head["messages_dropped"], f"{head['wasted_hours']:.2f}",
            {True: "yes", False: "NO", None: "-"}[identical],
        ))
    print(f"# {len(names)} schedule(s), seed {args.seed}: "
          f"{time.time() - start:.1f} s\n")
    print(render_table(
        ["schedule", "completed", "faults", "xfer fails", "msgs lost",
         "wasted h", "replay=="],
        rows,
        title="Chaos suite: zero lost jobs, zero duplicates, "
              "deterministic replay",
    ))
    return 1 if failures else 0


#: Default coordinator endpoint (Condor's historical port).
_SERVICE_ENDPOINTS = "127.0.0.1:9618"


def _client_verb(parser, verb):
    """Give ``parser`` the client verbs' ``--endpoints`` and
    ``--timeout``, and run ``verb(args, client)`` as its command (see
    :func:`_cmd_client`)."""
    parser.add_argument("--endpoints", default=_SERVICE_ENDPOINTS)
    parser.add_argument("--timeout", type=_positive_float, default=5.0)
    parser.set_defaults(fn=_cmd_client, verb=verb)


def _cmd_client(args):
    """Run a client verb on one kept-socket client; a ``ServiceError``,
    or a ``--payload`` that is not JSON, prints ``error: ...`` and
    exits 2."""
    import json

    from repro.service import protocol
    from repro.service.client import ServiceClient
    from repro.service.errors import ServiceError

    try:
        with ServiceClient(protocol.parse_endpoints(args.endpoints),
                           timeout=args.timeout) as client:
            return args.verb(args, client)
    except (ServiceError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_serve(args):
    import signal as _signal

    from repro.service import protocol
    from repro.service.daemon import CoordinatorDaemon, StandbyCoordinator

    kwargs = {"agent_timeout": args.agent_timeout,
              "poll_interval": args.poll}
    if args.standby_for:
        primary = protocol.parse_endpoint(args.standby_for)
        node = StandbyCoordinator(
            args.db, primary, host=args.host, port=args.port,
            check_interval=args.standby_check,
            misses=args.standby_misses, **kwargs)
        role = f"standby (watching {args.standby_for})"
    else:
        node = CoordinatorDaemon(args.db, host=args.host,
                                 port=args.port, **kwargs)
        role = "primary"
    _signal.signal(_signal.SIGTERM, lambda *_sig: node._halt.set())
    print(f"# repro-condor coordinator [{role}] db={args.db} "
          f"listening on {args.host}:{args.port}", flush=True)
    try:
        node.serve_forever()
    except KeyboardInterrupt:
        node.stop()
    return 0


def _cmd_agent(args):
    import signal as _signal

    from repro.service import protocol
    from repro.service.agent import StationAgent

    agent = StationAgent(args.name,
                         protocol.parse_endpoints(args.endpoints),
                         args.ckpt, heartbeat_interval=args.heartbeat,
                         seed=args.seed)
    _signal.signal(_signal.SIGTERM, lambda *_sig: agent._halt.set())
    print(f"# repro-condor agent {args.name} -> {args.endpoints} "
          f"(checkpoints in {agent.store.root})", flush=True)
    try:
        agent.run()
    except KeyboardInterrupt:
        agent.stop()
    return 0


def _submit(args, client):
    import json

    payload = json.loads(args.payload) if args.payload else {}
    for i in range(args.count):
        name = (args.name if args.count == 1 and args.name
                else (f"{args.name}-{i}" if args.name else None))
        print(client.submit(args.entry, payload=payload, name=name,
                            owner=args.owner, demand_seconds=args.demand))
    return 0


def _q(args, client):
    from repro.metrics.report import render_table

    snapshot = client.q(limit=args.limit)
    print(f"# epoch {snapshot['epoch']}  pending {snapshot['pending']}  "
          f"in-flight {snapshot['inflight']}  done {snapshot['done']}"
          + ("  [draining]" if snapshot["draining"] else ""))
    if snapshot["agents"]:
        print(render_table(
            ["agent", "job", "beat age (s)", "parked", "owner"],
            [(a["agent"], a["job"] or "-", a["beat_age"],
              "yes" if a.get("parked") else "-",
              "active" if a.get("owner_active") else "-")
             for a in snapshot["agents"]],
            title="Registered agents"))
    if snapshot["jobs"]:
        print(render_table(
            ["key", "state", "agent", "progress", "owner"],
            [(j["key"], j["state"], j["agent"] or "-", j["progress"],
              j["owner"]) for j in snapshot["jobs"]],
            title="Jobs"))
    return 0


def _rm(args, client):
    for key in args.keys:
        stopped = client.remove(key)
        print(f"{key}: {'stopped' if stopped else 'already finished'}")
    return 0


def _drain(args, client):
    snapshot = client.drain()
    print(f"# draining: pending {snapshot['pending']}, "
          f"in-flight {snapshot['inflight']}, done {snapshot['done']}")
    if args.wait:
        final = client.wait_idle(timeout=args.wait)
        print(f"# drained: {final['done']} jobs done")
    return 0


def _cmd_demo(args):
    from repro.core import CondorSystem, Job, StationSpec
    from repro.telemetry import TraceRecorder, kinds
    from repro.machine import (
        AlternatingOwner,
        AlwaysActiveOwner,
        NeverActiveOwner,
    )
    from repro.sim import DAY, HOUR, RandomStream, Simulation
    from repro.sim.randomness import Exponential, LogNormal

    sim = Simulation()
    stream = RandomStream(7)
    specs = [StationSpec("submit-box", owner_model=AlwaysActiveOwner()),
             StationSpec("pool-01", owner_model=NeverActiveOwner())]
    specs += [
        StationSpec(f"desk-{i}", owner_model=AlternatingOwner(
            Exponential(2 * HOUR), LogNormal(HOUR, 0.6),
            stream.fork(f"desk-{i}"),
        ))
        for i in range(3)
    ]
    system = CondorSystem(sim, specs, coordinator_host="submit-box")
    recorder = (TraceRecorder(system.telemetry, args.trace)
                if args.trace else None)
    for kind in (kinds.JOB_PLACED, kinds.JOB_SUSPENDED,
                 kinds.JOB_VACATED, kinds.JOB_COMPLETED):
        system.telemetry.subscribe(kind, lambda event: print(
            f"[{event.sim_time / HOUR:6.2f} h] "
            f"{event.payload['job'].name}: {event.kind}"))
    system.start()
    jobs = [Job(user="you", home="submit-box",
                demand_seconds=(2 + i) * HOUR, name=f"job-{i}",
                syscall_rate=0.05)
            for i in range(4)]
    for job in jobs:
        system.submit(job)
    system.run(until=2 * DAY)
    if recorder is not None:
        recorder.close()
        print(f"# recorded {recorder.events_written:,} telemetry events "
              f"to {args.trace}")
    done = [j for j in jobs if j.finished]
    print(f"\n{len(done)}/{len(jobs)} jobs completed; total leverage "
          f"{sum(j.remote_cpu_seconds for j in done) / max(1e-9, sum(j.total_support_seconds for j in done)):.0f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-condor",
        description="Condor (ICDCS 1988) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    month = sub.add_parser("month", help="run the one-month experiment")
    _month_options(month)
    month.add_argument("--exhibit").choices = _Names(
        lambda: _registry("repro.analysis.exhibits", "ALL_EXHIBITS"))
    month.add_argument("--csv", metavar="DIR",
                       help="also export every exhibit as CSV files")
    month.add_argument("--trace", metavar="FILE",
                       help="record the telemetry event stream as JSONL")
    month.add_argument("--pools", type=_int_at_least(0), default=0,
                       metavar="K",
                       help="federate the coordinator into K pools "
                            "(flocking; 0 or 1 is one coordinator)")
    month.set_defaults(fn=_cmd_month)

    ablation = sub.add_parser("ablation",
                              help="compare scheduler variants")
    ablation.add_argument("variants", nargs="+",
                          choices=sorted(ABLATIONS))
    ablation.add_argument("--seed", type=int, default=42)
    ablation.add_argument("--days", type=_int_at_least(1), default=8)
    ablation.set_defaults(fn=_cmd_ablation)

    trace = sub.add_parser("trace", help="export the month's workload")
    trace.add_argument("output")
    _month_options(trace)
    trace.set_defaults(fn=_cmd_trace)

    stations = sub.add_parser("stations",
                              help="per-station capacity accounting")
    _month_options(stations)
    stations.set_defaults(fn=_cmd_stations)

    replay = sub.add_parser(
        "replay",
        help="reconstruct headline metrics from a telemetry trace",
    )
    replay.add_argument("trace_file")
    replay.set_defaults(fn=_cmd_replay)

    query = sub.add_parser(
        "query",
        help="canned reports and raw SQL over an ingested trace "
             "(the sqlite ops plane)",
    )
    query.add_argument(
        "report", help="canned report, or 'sql' for raw SQL",
    ).choices = _Names(
        lambda: _registry("repro.analysis.ops", "REPORTS") + ["sql"])
    query.add_argument("statement", nargs="?",
                       help="SQL text (report 'sql' only)")
    query.add_argument("--db", metavar="FILE",
                       help="ops store path (default: TRACE.sqlite)")
    query.add_argument("--trace", metavar="FILE",
                       help="ingest this JSONL trace before reporting "
                            "(resumable; re-ingest is a no-op)")
    query.add_argument("--check-replay", metavar="TRACE",
                       help="with 'summary': verify every scalar "
                            "matches replay_trace(TRACE) bit-for-bit")
    query.add_argument("--by-day", action="store_true",
                       help="fair-share: one row per user per day")
    query.add_argument("--bucket-hours", type=_positive_float, default=24.0,
                       help="utilization: aggregation period (hours)")
    query.add_argument("--user", metavar="NAME",
                       help="jobs: only this user's jobs")
    query.add_argument("--limit", type=_int_at_least(1), default=None,
                       help="jobs/timeline/checkpoints: cap rows shown")
    query.set_defaults(fn=_cmd_query)

    sweep = sub.add_parser(
        "sweep",
        help="run the experiment across seeds, optionally in parallel",
    )
    sweep.add_argument("--seeds", type=_seeds, default="1..8",
                       metavar="A..B|A,B,C",
                       help="inclusive range '1..8' or list '1,5,9'")
    sweep.add_argument("--jobs", type=_int_at_least(1), metavar="N",
                       help="worker processes (default: serial)")
    sweep.add_argument("--days", type=_int_at_least(1), default=6)
    sweep.add_argument("--scale", type=_positive_float, default=0.2)
    sweep.add_argument("--stations", type=int, default=23)
    sweep.add_argument("--trace-dir", metavar="DIR",
                       help="also record one telemetry trace per seed")
    sweep.add_argument("--json", metavar="FILE",
                       help="write per-seed metrics as JSON")
    sweep.add_argument("--pools", type=_int_at_least(0), default=0,
                       metavar="K",
                       help="federate the coordinator into K pools")
    sweep.set_defaults(fn=_cmd_sweep)

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault schedules with no-lost-jobs validation",
    )
    chaos.add_argument("schedules", nargs="*", metavar="SCHEDULE",
                       help=_Help(
                           "schedules to run (default: all; known: "
                           "%(names)s)", _Names(lambda: _registry(
                               "repro.analysis.chaos", "SCHEDULES"))))
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--suite", metavar="NAME",
                       help=_Help(
                           "run a named schedule group (%(names)s) "
                           "instead of listing schedules",
                           _Names(lambda: sorted([*_registry(
                               "repro.analysis.chaos", "SUITES"),
                               "service"]))))
    chaos.add_argument("--replay-check", action="store_true",
                       help="run each schedule twice and compare traces "
                            "byte-for-byte")
    chaos.add_argument("--trace-dir", metavar="DIR",
                       help="write one canonical JSONL trace per schedule")
    chaos.set_defaults(fn=_cmd_chaos)

    serve = sub.add_parser(
        "serve",
        help="run the live coordinator daemon (or a warm standby)",
    )
    serve.add_argument("--db", required=True, metavar="FILE",
                       help="crash-safe job database (sqlite, WAL)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9618)
    serve.add_argument("--agent-timeout", type=_positive_float, default=1.0,
                       help="seconds without a heartbeat before an "
                            "agent's job is vacated")
    serve.add_argument("--poll", type=_positive_float, default=0.05,
                       help="placement-loop poll interval (seconds)")
    serve.add_argument("--standby-for", metavar="HOST:PORT",
                       help="run as a warm standby watching this primary;"
                            " promotes itself after repeated misses")
    serve.add_argument("--standby-check", type=_positive_float, default=0.5,
                       help="standby ping interval (seconds)")
    serve.add_argument("--standby-misses", type=_int_at_least(1), default=5,
                       help="consecutive failed pings before promotion")
    serve.set_defaults(fn=_cmd_serve)

    agent = sub.add_parser("agent", help="run one station agent")
    agent.add_argument("name", help="agent (station) name")
    agent.add_argument("--endpoints", default=_SERVICE_ENDPOINTS,
                       metavar="H:P[,H:P]",
                       help="coordinator endpoints, primary first")
    agent.add_argument("--ckpt", required=True, metavar="DIR",
                       help="checkpoint directory (shared across agents)")
    agent.add_argument("--heartbeat", type=_positive_float, default=0.25,
                       help="heartbeat interval (seconds)")
    agent.add_argument("--seed", type=int, default=1,
                       help="reconnect-jitter seed")
    agent.set_defaults(fn=_cmd_agent)

    submit = sub.add_parser("submit",
                            help="submit a job to a running coordinator")
    submit.add_argument("entry", metavar="MODULE:FACTORY",
                        help="job entry point, e.g. "
                             "repro.service.samples:count_steps")
    submit.add_argument("--payload", metavar="JSON",
                        help="keyword arguments for the factory")
    submit.add_argument("--name")
    submit.add_argument("--owner", default="anonymous")
    submit.add_argument("--demand", type=float, default=0.0,
                        help="declared demand (seconds), for accounting")
    submit.add_argument("--count", type=_int_at_least(1), default=1,
                        help="submit this many identical jobs")
    _client_verb(submit, _submit)

    q = sub.add_parser("q", help="queue/agents snapshot (like condor_q)")
    q.add_argument("--limit", type=_int_at_least(1), default=None)
    _client_verb(q, _q)

    rm = sub.add_parser("rm", help="stop jobs (like condor_rm)")
    rm.add_argument("keys", nargs="+", metavar="KEY")
    _client_verb(rm, _rm)

    drain = sub.add_parser(
        "drain", help="refuse new submissions; optionally wait for idle")
    drain.add_argument("--wait", type=_positive_float, default=None,
                       metavar="S",
                       help="block until pending and in-flight hit zero")
    _client_verb(drain, _drain)

    demo = sub.add_parser("demo", help="narrated five-station demo")
    demo.add_argument("--trace", metavar="FILE",
                      help="record the telemetry event stream as JSONL")
    demo.set_defaults(fn=_cmd_demo)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (``... | head``): what it wanted is out.
        # Point stdout at devnull so the interpreter's last flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return status


if __name__ == "__main__":
    sys.exit(main())
