"""Every deterministic exhibit of the reproduction, as one table.

Each row is ``(id, build, check)``: ``build()`` returns the exhibit's text
and the data ``check(data)`` asserts the paper's shape on.  The text is
kept twice, in ``benchmarks/results/<id>.txt`` and in the fenced block
after ``<!-- exhibit: <id> -->`` in EXPERIMENTS.md.

    PYTHONPATH=src python benchmarks/exhibits.py --write | --check [ID ...]

``--write`` builds and checks the rows (all of them by default: ~45 s on
a 2-core x86 box) and rewrites both copies of each text.  ``--check``
writes nothing and exits non-zero naming each row whose check failed or
whose text differs from either copy.
"""

import argparse
import collections
import os
import pathlib
import re
import sys
import traceback

from repro.analysis import ALL_EXHIBITS, cached_month_run, paper, run_month
from repro.analysis.ablation import baseline_trace, run_variant, summarize
from repro.analysis.sensitivity import metric_series, monotone
from repro.analysis.sweep import month_spec, run_specs, sweep_values
from repro.analysis.validation import multi_seed_summary, shape_report
from repro.core import (
    CondorConfig, CondorSystem, FcfsPolicy, GangJob, Job, RoundRobinPolicy,
    StationSpec, UpDownPolicy,
)
from repro.core.queue import FIFO, SHORTEST_FIRST
from repro.machine import AlternatingOwner, AlwaysActiveOwner, NeverActiveOwner
from repro.metrics import jobs as job_metrics
from repro.metrics import stats
from repro.metrics.report import render_table
from repro.metrics.timeseries import PeriodicSampler
from repro.remote_unix import breakeven_syscall_rate
from repro.sim import DAY, HOUR, MINUTE, RandomStream, Simulation
from repro.sim.randomness import Exponential, LogNormal

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / "benchmarks" / "results"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"
#: The EXPERIMENTS.md block of month facts (no results file, no check).
RUN_FACTS = "run-facts"

Row = collections.namedtuple("Row", "id build check")
ROWS = {}


def row(build):
    """Register the decorated check; its name is the exhibit id."""
    def register(check):
        ROWS[check.__name__] = Row(check.__name__, build, check)
        return check
    return register


def month_exhibit(check):
    """Register ``check`` on ``exhibits.<its name>`` of the seed-42 month."""
    def build():
        exhibit = ALL_EXHIBITS[check.__name__](cached_month_run(seed=42))
        return exhibit["text"], exhibit["data"]
    return row(build)(check)


def _table(title, key, columns, results):
    """Render ``{label: metrics}`` with one column per ``{header: metric}``."""
    rows = [(label, *(r[metric] for metric in columns.values()))
            for label, r in results.items()]
    return render_table([key, *columns], rows, title=title)


def table(title, key, columns, measure, cases):
    """Tabulate ``measure(case)`` once per ``{label: case}``."""
    def build():
        results = {label: measure(case) for label, case in cases.items()}
        return _table(title, key, columns, results), results
    return build


def replay(config=None, policy=None, measure=summarize):
    """``measure`` of the fixed ablation trace replayed under a variant."""
    return measure(run_variant(baseline_trace(seed=42), config=config,
                               policy=policy))


def sweep(title, key, columns, field, values, label):
    """Replay the fixed trace once per value of ``CondorConfig.<field>``."""
    def build():
        results = {label(value): summary for value, summary
                   in sweep_values(baseline_trace(seed=42), field, values)}
        return _table(title, key, columns, results), results
    return build


# ----------------------------------------------------------------------
# Table 1, Figures 2-9 and the section 3 scalars, on the seed-42 month


@month_exhibit
def table_1(data):
    rows = {r["user"]: r for r in data["rows"]}
    # The heavy user dominates jobs and demand.
    assert rows["A"]["jobs"] == 690
    assert rows["A"]["demand_share"] > 80.0
    assert data["totals"]["jobs"] == 918


@month_exhibit
def figure_2(data):
    # Mean ~5 h, median < 3 h, CDF monotone to 1.
    assert 4.0 < data["mean"] < 6.5
    assert data["median"] < 3.0
    assert data["cdf"] == sorted(data["cdf"])


@month_exhibit
def figure_3(data):
    # The heavy user keeps >30 jobs in the system for long periods;
    # light users' queue stays small (batches of ~5).
    assert stats.median(data["heavy"]) >= 25
    assert stats.mean(data["light"]) < 10
    assert max(data["total"]) >= 35


@month_exhibit
def figure_4(data):
    # Light users mostly do not wait; the heavy user waits far more.
    assert data["avg_light_1h"] < 0.5
    assert data["avg_heavy"] > 4 * data["avg_light_1h"]
    assert data["avg_heavy"] > 1.0


@month_exhibit
def figure_5(data):
    # ~25% local utilisation, 12438 h available, 4771 h consumed; the
    # system line sits above the local line.
    run = cached_month_run(seed=42)
    assert 0.18 < run.util.average_local_utilization(run.horizon) < 0.32
    available = run.util.available_hours(run.horizon)
    assert 0.85 * 12438 < available < 1.15 * 12438
    consumed = run.util.remote_hours()
    assert 0.75 * 4771 < consumed < 1.15 * 4771
    assert stats.mean(data["system"]) > 2 * stats.mean(data["local"])


@month_exhibit
def figure_6(data):
    # Weekday afternoons busier than weekday nights; the system reaches
    # (near-)full utilisation at some point in the week.
    afternoons = [data["local"][d * 24 + 14] for d in range(5)]
    nights = [data["local"][d * 24 + 3] for d in range(5)]
    assert stats.mean(afternoons) > 2 * stats.mean(nights)
    assert max(data["system"]) > 0.8


@month_exhibit
def figure_7(data):
    # The heavy user's queue often exceeds the number of machines;
    # light users' queue stays far smaller.
    total = [v for _t, v in data["total"]]
    assert max(total) >= 23
    assert max(v for _t, v in data["light"]) < max(total)


@month_exhibit
def figure_8(data):
    # Short jobs move more often per hour than long ones, which settle
    # on quiet stations; the rate is a fraction of a move per hour.
    assert data["short_rate"] > data["long_rate"]
    assert 0.0 < data["long_rate"] < 2.0


@month_exhibit
def figure_9(data):
    # Average leverage ~1300; short jobs lever less than the average,
    # and the last populated bucket beats the first.
    assert 0.5 * paper.AVERAGE_LEVERAGE < data["average"] \
        < 2.0 * paper.AVERAGE_LEVERAGE
    assert data["short"] < data["average"]
    assert data["series"][-1]["value"] > data["series"][0]["value"]


@month_exhibit
def headline_scalars(data):
    assert data["coordinator CPU fraction (< 0.01)"][1] < 0.01
    assert data["max local scheduler CPU fraction (< 0.01)"][1] < 0.01
    assert 0.4 < data["average checkpoint image (MB)"][1] < 0.6


def run_facts():
    run = cached_month_run(seed=42)
    return (f"Run facts: {run.sim.events_dispatched:,} simulated events, "
            f"{len(run.jobs)} jobs submitted, {len(run.completed_jobs)} "
            f"completed, {run.util.remote_hours():.0f} CPU-hours harvested.")


# ----------------------------------------------------------------------
# Ablations: the fixed trace replayed under scheduler variants


@row(table(
    "Ablation - allocation policy (same workload trace)", "policy",
    {"light wait": "avg_wait_light", "heavy wait": "avg_wait_heavy",
     "preemptions": "preemptions", "completed": "completed",
     "remote h": "remote_hours"},
    lambda policy: replay(policy=policy()),
    {"up-down": UpDownPolicy, "fcfs": FcfsPolicy,
     "round-robin": RoundRobinPolicy}))
def ablation_updown(r):
    # Up-Down protects light users relative to FCFS via priority
    # preemption, which the baselines never perform.
    assert r["up-down"]["avg_wait_light"] <= r["fcfs"]["avg_wait_light"]
    assert r["up-down"]["preemptions"] > 0
    assert r["fcfs"]["preemptions"] == 0


@row(table(
    "Ablation - checkpointing vs kill-and-restart", "mode",
    {"wasted h": "wasted_hours", "checkpoints": "checkpoints",
     "kills": "kills", "completed": "completed", "remote h": "remote_hours"},
    replay, {"checkpointing": None,
             "butler-kill": CondorConfig(kill_on_owner_return=True)}))
def ablation_checkpoint(r):
    # Checkpointing never redoes work; Butler mode wastes real hours.
    ckpt, kill = r["checkpointing"], r["butler-kill"]
    assert ckpt["wasted_hours"] == 0.0
    assert kill["wasted_hours"] > 10.0
    assert kill["kills"] > 0 and ckpt["kills"] == 0


@row(table(
    "Ablation - suspend grace period", "grace",
    {"checkpoints": "checkpoints", "avg wait": "avg_wait_all",
     "completed": "completed", "remote h": "remote_hours"},
    replay, {f"{grace / MINUTE:.0f} min": CondorConfig(grace_period=grace)
             for grace in (0.0, 5 * MINUTE, 30 * MINUTE)}))
def ablation_grace(r):
    # Immediate vacating migrates strictly more than the 5-minute grace.
    assert r["0 min"]["checkpoints"] > r["5 min"]["checkpoints"]
    assert r["30 min"]["checkpoints"] <= r["5 min"]["checkpoints"]


@row(table(
    "Ablation - placement throttling", "placement mode",
    {"avg wait": "avg_wait_all", "heavy wait": "avg_wait_heavy",
     "remote h": "remote_hours", "completed": "completed"},
    replay, {"throttled (paper)": None,
             "unthrottled": CondorConfig(placements_per_cycle=100,
                                         grants_per_station_per_cycle=100)}))
def ablation_throttle(r):
    # Unthrottled placement serves the backlog faster; the paper
    # accepted the slower ramp to protect interactive machines.
    throttled, unthrottled = r["throttled (paper)"], r["unthrottled"]
    assert unthrottled["avg_wait_heavy"] <= throttled["avg_wait_heavy"]
    assert unthrottled["remote_hours"] >= 0.9 * throttled["remote_hours"]


@row(table(
    "Ablation - periodic checkpoints under kill-on-reclaim", "mode",
    {"wasted h": "wasted_hours", "kills": "kills",
     "completed": "completed", "remote h": "remote_hours"},
    lambda every: replay(CondorConfig(kill_on_owner_return=True,
                                      periodic_checkpoint_interval=every)),
    {"kill, no periodic ckpt": None, "kill + 30 min ckpt": 30 * MINUTE,
     "kill + 10 min ckpt": 10 * MINUTE}))
def ablation_periodic_ckpt(r):
    # Tighter checkpoint intervals waste monotonically less work.
    none = r["kill, no periodic ckpt"]
    every30, every10 = r["kill + 30 min ckpt"], r["kill + 10 min ckpt"]
    assert every30["wasted_hours"] < none["wasted_hours"]
    assert every10["wasted_hours"] < every30["wasted_hours"]


@row(table(
    "Ablation - host selection strategy", "host selection",
    {"checkpoints": "checkpoints", "avg wait": "avg_wait_all",
     "completed": "completed", "remote h": "remote_hours"},
    lambda mode: replay(CondorConfig(host_selection=mode)),
    {mode.replace("_", "-"): mode
     for mode in ("arbitrary", "longest_history", "current_idle")}))
def ablation_history_placement(r):
    # Informed host selection moves jobs no more often than arbitrary.
    assert r["longest-history"]["checkpoints"] <= \
        1.15 * r["arbitrary"]["checkpoints"]


def wait_by_class(run):
    done = run.completed_jobs
    return {"completed": len(done),
            "short_wait": job_metrics.average_wait_ratio(
                [j for j in done if j.demand_seconds < 2 * HOUR]),
            "long_wait": job_metrics.average_wait_ratio(
                [j for j in done if j.demand_seconds >= 6 * HOUR]),
            "all_wait": job_metrics.average_wait_ratio(done)}


@row(table(
    "Ablation - local queue discipline", "discipline",
    {"short-job wait": "short_wait", "long-job wait": "long_wait",
     "all wait": "all_wait", "completed": "completed"},
    lambda discipline: replay(CondorConfig(queue_discipline=discipline),
                              measure=wait_by_class),
    {discipline: discipline for discipline in (FIFO, SHORTEST_FIRST)}))
def ablation_queue_discipline(r):
    # Shortest-first slashes short-job waits (the classic SJF result)
    # and improves the mean wait ratio overall at this load.
    assert r[SHORTEST_FIRST]["short_wait"] < 0.5 * r[FIFO]["short_wait"]
    assert r[SHORTEST_FIRST]["all_wait"] < r[FIFO]["all_wait"]


# ----------------------------------------------------------------------
# Extensions: the paper's future-work items on small scenarios

GANG_WIDTHS = (2, 4, 6)


def churny_pool(seed=5, size=8):
    """Eight stations with alternating owners, six hours into the run."""
    sim = Simulation()
    stream = RandomStream(seed)
    specs = [StationSpec("home", owner_model=AlwaysActiveOwner())]
    specs += [StationSpec(f"h{i}", owner_model=AlternatingOwner(
        Exponential(30 * MINUTE), LogNormal(35 * MINUTE, 0.8),
        stream.fork(f"h{i}"))) for i in range(size)]
    system = CondorSystem(sim, specs, coordinator_host="home")
    system.start()
    sim.run(until=6 * HOUR)   # let owner processes mix first
    return sim, system


def gang_launch(width):
    """Minutes until a width-k gang co-launches, and until the first of
    k independent one-hour jobs starts."""
    sim, system = churny_pool()
    gang = GangJob(user="u", home="home", demand_seconds=HOUR, width=width)
    system.submit_gang(gang)
    sim.run(until=3 * DAY)
    delay = gang.launch_delay()
    sim, system = churny_pool()
    jobs = [Job(user="u", home="home", demand_seconds=HOUR)
            for _ in range(width)]
    for job in jobs:
        system.submit(job)
    sim.run(until=3 * DAY)
    placed = [j.first_placed_at - 6 * HOUR for j in jobs if j.first_placed_at]
    return {"gang_launch_min": delay / MINUTE if delay is not None else None,
            "first_single_start_min": min(placed) / MINUTE if placed else None}


@row(table(
    "Extension - gang co-allocation on a churny pool", "width",
    {"gang co-launch (min)": "gang_launch_min",
     "first single job start (min)": "first_single_start_min"},
    gang_launch, {width: width for width in GANG_WIDTHS}))
def extension_gangs(r):
    # Wider gangs wait at least as long; the widest waits far longer
    # than a single job takes to start.
    delays = [r[w]["gang_launch_min"] for w in GANG_WIDTHS]
    assert all(d is not None for d in delays)
    assert delays == sorted(delays)
    assert delays[-1] > 2 * r[GANG_WIDTHS[-1]]["first_single_start_min"]


def dedicated_pool(homes, hosts):
    """Owner-occupied ``homes`` (the first runs the coordinator) plus
    never-reclaimed ``{host: arch}``; placement is not throttled."""
    sim = Simulation()
    specs = [StationSpec(h, owner_model=AlwaysActiveOwner()) for h in homes]
    specs += [StationSpec(h, owner_model=NeverActiveOwner(), arch=arch)
              for h, arch in hosts.items()]
    system = CondorSystem(sim, specs, coordinator_host=homes[0],
                          config=CondorConfig(placements_per_cycle=10,
                                              grants_per_station_per_cycle=10))
    system.start()
    return sim, system


NEED, WINDOW_START = 4, 4 * HOUR


def reservation_capacity(reserve, pool=6):
    """Minutes until a light user holds NEED machines of a pool that the
    heavy user saturates, with or without a reservation."""
    sim, system = dedicated_pool(["heavy", "light"],
                                 {f"p{i}": "vax" for i in range(pool)})
    for _ in range(pool * 3):
        system.submit(Job(user="H", home="heavy", demand_seconds=30 * HOUR))
    if reserve:
        system.reservations.reserve("light", NEED, WINDOW_START, 8 * HOUR)
    light_jobs = [Job(user="L", home="light", demand_seconds=4 * HOUR)
                  for _ in range(NEED)]
    for job in light_jobs:
        sim.schedule(WINDOW_START, system.submit, job)
    acquired_at = {}

    def probe():
        running = sum(1 for j in light_jobs if j.state == "running")
        for count in range(1, running + 1):
            acquired_at.setdefault(count, sim.now)

    PeriodicSampler(sim, probe, interval=MINUTE).start()
    sim.run(until=WINDOW_START + 10 * HOUR)
    full_at = acquired_at.get(NEED)
    return {"minutes": (full_at - WINDOW_START) / MINUTE if full_at else None,
            "completed": sum(1 for j in light_jobs if j.finished)}


@row(table(
    "Extension - advance reservations on a saturated pool", "mode",
    {f"minutes to {NEED} machines": "minutes",
     "light jobs done": "completed"},
    reservation_capacity,
    {"with reservation": True, "without reservation": False}))
def extension_reservations(r):
    with_r, without = r["with reservation"], r["without reservation"]
    assert with_r["minutes"] is not None
    assert with_r["minutes"] <= 15.0
    if without["minutes"] is not None:
        assert with_r["minutes"] < without["minutes"]


def mixed_architectures(architectures):
    """24 two-hour jobs built for ``architectures`` on 3 VAX + 3 SUN hosts."""
    sim, system = dedicated_pool(["home"], {
        f"{arch}-{i}": arch for arch in ("vax", "sun") for i in range(3)})
    jobs = [Job(user="u", home="home", demand_seconds=2 * HOUR,
                architectures=architectures) for _ in range(24)]
    for job in jobs:
        system.submit(job)
    sim.run(until=2 * DAY)
    done = [j for j in jobs if j.finished]
    used = sorted({j.locked_arch for j in done})
    return {"completed": len(done),
            "makespan_h": (max(j.completed_at for j in done) / HOUR
                           if done else None),
            "avg_wait": job_metrics.average_wait_ratio(done),
            "archs_used": used, "archs": "+".join(used)}


@row(table(
    "Extension - heterogeneous VAX/SUN pool", "binaries",
    {"completed": "completed", "makespan h": "makespan_h",
     "avg wait": "avg_wait", "archs used": "archs"},
    mixed_architectures,
    {"vax-only binaries": ("vax",), "dual binaries": ("vax", "sun")}))
def extension_architectures(r):
    # Twice the usable machines: roughly half the makespan.
    single, dual = r["vax-only binaries"], r["dual binaries"]
    assert dual["makespan_h"] < 0.7 * single["makespan_h"]
    assert dual["archs_used"] == ["sun", "vax"]
    assert single["archs_used"] == ["vax"]


# ----------------------------------------------------------------------
# Robustness, sensitivity and scaling

SEEDS = (101, 202, 303, 404, 505)
WORKERS = min(5, os.cpu_count() or 1)


def build_robustness():
    summary = multi_seed_summary(SEEDS, jobs=WORKERS, days=6, job_scale=0.2)
    rows = [(metric, f"{mean:.3g}", f"+/-{half:.2g}")
            for metric, (mean, half) in sorted(summary.items())]
    targets = {"local_utilization": paper.AVERAGE_LOCAL_UTILIZATION,
               "avg_leverage": paper.AVERAGE_LEVERAGE,
               "completion_rate": 0.95}
    return render_table(
        ["metric", "mean over seeds", "95% CI"], rows,
        title=f"Robustness - {len(SEEDS)} seeds, 6 days at 20% workload "
              f"scale",
    ) + "\n" + render_table(
        ["metric", "paper", "mean", "CI half", "rel err"],
        shape_report(summary, targets), title="Shape targets"), summary


@row(build_robustness)
def robustness_seeds(summary):
    assert 0.15 < summary["local_utilization"][0] < 0.32
    assert 400 < summary["avg_leverage"][0] < 3000
    # Fairness holds on average.
    assert summary["avg_wait_light"][0] < summary["avg_wait_heavy"][0]


@row(sweep(
    "Sensitivity - coordinator poll interval", "poll (min)",
    {"light wait": "avg_wait_light", "all wait": "avg_wait_all",
     "remote h": "remote_hours", "completed": "completed"},
    "poll_interval", (1 * MINUTE, 2 * MINUTE, 5 * MINUTE, 10 * MINUTE),
    lambda value: value / MINUTE))
def sensitivity_poll_interval(r):
    # Slower polling degrades light users' responsiveness monotonically;
    # the paper's 2 minutes keeps >=95% of the 1-minute capacity, while
    # 10 minutes loses a visible chunk.
    series = metric_series(list(r.items()), "avg_wait_light")
    assert monotone(series, increasing=True, tolerance=0.05)
    remote = [s["remote_hours"] for s in r.values()]
    assert remote[1] >= 0.95 * remote[0]
    assert remote[-1] < remote[0]


@row(sweep(
    "Sensitivity - per-station concurrency cap", "cap",
    {"heavy wait": "avg_wait_heavy", "remote h": "remote_hours",
     "completed": "completed"},
    "max_machines_per_station", (2, 4, 8, None),
    lambda value: "uncapped" if value is None else value))
def sensitivity_machine_cap(r):
    # Tighter caps throttle the heavy user: waits fall and harvested
    # hours rise as the cap rises.
    series = metric_series(list(r.items()), "avg_wait_heavy")
    assert series[0][1] > series[-1][1]
    remote = [s["remote_hours"] for s in r.values()]
    assert remote[-1] >= remote[0]


def daemon_overhead(size):
    run = run_month(seed=7, days=4, stations=size, job_scale=0.1)
    host = run.system.coordinator.host_station
    return {"coordinator": host.ledger.totals["coordinator"] / run.horizon,
            "scheduler": max(s.ledger.totals["scheduler"] / run.horizon
                             for s in run.system.stations.values())}


@row(table(
    "Scaling - daemon overhead vs cluster size", "stations",
    {"coordinator CPU frac": "coordinator",
     "max scheduler CPU frac": "scheduler"},
    daemon_overhead, {size: size for size in (10, 23, 40)}))
def scaling_coordinator(r):
    # Section 3.1: each daemon stays under 1% of a CPU at every size.
    for size, fraction in r.items():
        assert fraction["coordinator"] < 0.01, size
        assert fraction["scheduler"] < 0.01, size


SYSCALL_RATES = (0.05, 1.0, 10.0, 50.0, 100.0, 200.0)


def syscall_leverage(rate):
    """Leverage of one 4-hour job making ``rate`` remote calls per CPU-s."""
    sim = Simulation()
    specs = [StationSpec("home", owner_model=AlwaysActiveOwner()),
             StationSpec("host", owner_model=NeverActiveOwner())]
    system = CondorSystem(sim, specs, coordinator_host="home")
    system.start()
    job = Job(user="u", home="home", demand_seconds=4 * HOUR,
              syscall_rate=rate)
    system.submit(job)
    sim.run(until=DAY)
    assert job.finished
    leverage = job.leverage()
    return {"leverage": leverage,
            "verdict": "local better" if leverage < 1 else "remote pays"}


@row(table(
    "Remote-execution break-even vs system-call rate",
    "syscalls per CPU-second", {"leverage": "leverage", "verdict": "verdict"},
    syscall_leverage, {rate: rate for rate in SYSCALL_RATES}))
def syscall_breakeven(r):
    # Each remote call costs 10 ms of home CPU: leverage drops
    # monotonically and crosses 1 near 100 calls per CPU-second.
    lev = {rate: r[rate]["leverage"] for rate in SYSCALL_RATES}
    below = [lev[rate] for rate in SYSCALL_RATES if rate < 100.0]
    assert all(a > b for a, b in zip(below, below[1:]))
    assert lev[0.05] > 1000.0                # compute-bound wins big
    assert lev[200.0] < 1.0                  # I/O-bound loses
    # Beyond break-even the shadow saturates a full home CPU, pinning
    # leverage just under 1 (support = remote time + placement cost).
    assert abs(lev[100.0] - lev[200.0]) <= 1e-6 * abs(lev[200.0])
    assert lev[50.0] > 1.0
    assert breakeven_syscall_rate() == 100.0


POOL_SIZES = (10, 16, 23, 32, 40)


def build_pool_size():
    specs = [month_spec(13, collector="pool", stations=size, days=4,
                        job_scale=0.12) for size in POOL_SIZES]
    results = {size: record["metrics"] for size, record
               in zip(POOL_SIZES, run_specs(specs, jobs=WORKERS))}
    return _table(
        "Pool-size study (same workload, 4 days)", "stations",
        {"remote h": "remote_hours", "completed": "completed",
         "avg wait": "avg_wait", "coordinator frac": "coordinator_fraction"},
        results), results


@row(build_pool_size)
def pool_size(r):
    # More machines help the same workload finish sooner (or no worse),
    # and the coordinator stays under 1% even at 40 stations (3.1).
    assert r[POOL_SIZES[-1]]["avg_wait"] <= r[POOL_SIZES[0]]["avg_wait"]
    for size in POOL_SIZES:
        assert r[size]["coordinator_fraction"] < 0.01


# ----------------------------------------------------------------------
# the command


def _splice(doc, marker, text):
    """(``doc`` with ``text`` in the block after ``marker``, old block)."""
    match = re.search(re.escape(f"<!-- {marker} -->") + r"\n```text\n(.*?)```",
                      doc, re.DOTALL)
    if match is None:
        raise SystemExit(f"EXPERIMENTS.md: no block after <!-- {marker} -->")
    return doc[:match.start(1)] + text + doc[match.end(1):], match.group(1)


def run(ids, write):
    """Build and check each row, then write or compare; return failures."""
    outputs, failures = {}, []   # id -> (text, results file or None)
    for id in ids:
        text, data = ROWS[id].build()
        try:
            ROWS[id].check(data)
        except AssertionError as exc:
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            failures.append(f"{id}: check failed: {frame.line} "
                            f"({frame.name}, line {frame.lineno})")
        else:
            outputs[id] = (text + "\n", RESULTS_DIR / f"{id}.txt")
    if set(ids) & set(ALL_EXHIBITS):
        outputs[RUN_FACTS] = (run_facts() + "\n", None)
    doc = EXPERIMENTS.read_text()
    for id, (text, path) in outputs.items():
        marker = RUN_FACTS if path is None else f"exhibit: {id}"
        doc, documented = _splice(doc, marker, text)
        copies = {"EXPERIMENTS.md": documented}
        if path is not None:
            copies[str(path.relative_to(ROOT))] = (
                path.read_text() if path.exists() else None)
            if write:
                path.write_text(text)
        if not write:
            failures += [f"{id}: differs from {name}"
                         for name, copy in copies.items() if copy != text]
    if write:
        EXPERIMENTS.write_text(doc)
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Regenerate (--write) or verify (--check) the exhibits.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="rewrite results/<id>.txt and EXPERIMENTS.md")
    mode.add_argument("--check", action="store_true",
                      help="write nothing; fail on a check or a stale copy")
    parser.add_argument("ids", nargs="*", metavar="ID",
                        help="rows to run (default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.ids) - set(ROWS))
    if unknown:
        parser.error(f"unknown exhibit id(s) {', '.join(unknown)}; "
                     f"choose from {', '.join(ROWS)}")
    if not __debug__:
        parser.error("row checks are asserts: run without -O")
    failures = run(args.ids or list(ROWS), write=args.write)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
