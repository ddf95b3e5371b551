"""The five workloads: names, why each exists, sizes, pinned answers.

Names are normative — later issues cite ``<metric>`` on ``<workload>``.
``quick`` sizes exist only for the self-test; their numbers are not
comparable with anything.
"""

import os

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")

#: Every simulator pass reports the wall time of this many equal steps
#: of simulated time (the latency samples of a batch simulation).
SIM_STEPS = 240

#: Fixed service knobs, recorded with every result.
SERVE_POLL = 0.01
AGENT_HEARTBEAT = 0.01
AGENTS = 2
OWNERS = 4
JOB_ENTRY = "repro.service.samples:instant"
Q_LIMIT = 50
Q_PERIOD_S = 0.1
WARMUP_JOBS = 20
#: Open-loop arrival rate of ``service_steady``: about a tenth of what
#: two agents taking one job per 10 ms heartbeat can finish.  The four
#: fsync'd commits of a job are serialised by the database lock, and on
#: the shared host an fsync that takes 0.6 ms when calm takes 5-7 ms for
#: seconds at a time: the daemon's capacity then falls to about 32 jobs/s.
#: At 100/s, 60/s and 40/s such episodes tipped whole runs from 10 ms
#: into hundreds of milliseconds (the driver's box spread the 40/s median
#: by 31 % and 78 %); at 20/s the queue stays short through them.
STEADY_RATE_PER_S = 20.0
#: ``service_steady`` reports its latency over the calmest quarter of the
#: run's one-second windows (``stats.calmest_share``): about 20 jobs a
#: window, 20 windows in a 20 s run, so about 100 jobs in the pool.
STEADY_WINDOW_S = 1.0
STEADY_CALM_SHARE = 0.25
#: ``service_steady`` latency limit, on the 95th percentile of
#: submit → done (reported as ``service.e2e.limit_met``).
STEADY_LIMIT_P95_MS = 50.0
STEADY_LIMIT_TAIL_S = 1.0
#: ``service_backlog`` pushes this many jobs per second of ``--seconds``
#: (1500 in a 20 s run; fill + drain then take about 15 s on the
#: reference box).
BACKLOG_JOBS_PER_SECOND = 75
BACKLOG_SUBMITTERS = 2

WORKLOADS = {
    "paper_month": {
        "kind": "sim",
        "why": ("the paper's 23 stations for 30 days: dense per-station "
                "activity, so coordinator, network, workload, metrics and "
                "Up-Down do the work; telemetry hub on its no-subscriber "
                "path"),
        "run": {"days": 30},
        "quick": {"days": 2},
        "recorded": False,
        # seed -> what a full-size pass of that seed must reproduce
        "pinned": {42: {"digest":
            "e3e2f44a1351d866cae2b0cb1d18120a10bfdbdc37baf34c482b1ab837e7dbc8"}},
    },
    "pool_5000": {
        "kind": "sim",
        "why": ("5000 mostly quiet stations for one day: network, machine, "
                "local scheduler and cluster view dominate, the "
                "coordinator recedes; the only workload where the system "
                "builder and memory show"),
        "run": {"days": 1, "stations": 5000, "job_scale": 0.1},
        "quick": {"days": 1, "stations": 300, "job_scale": 0.1},
        "delta_config": True,
        "recorded": False,
        "pinned": {42: {"digest":
            "ae81be0cc3e98388894a8526fded6a90e62c925ba5ab2d5e7e7be1fe79d77010"}},
    },
    "month_recorded": {
        "kind": "sim",
        "why": ("paper_month with a trace recorder subscribed, then sqlite "
                "ingest, summary and replay: same simulator layers with "
                "the hub's subscriber path on, plus the ops store"),
        "run": {"days": 30},
        "quick": {"days": 2},
        "recorded": True,
        "pinned": {42: {
            "digest":
                "e3e2f44a1351d866cae2b0cb1d18120a10bfdbdc37baf34c482b1ab837e7dbc8",
            "trace_sha256":
                "163ca64f3cd3f91973171c8318a25cfafc6115d8e34705ce3e704adb21d01e40",
        }},
    },
    "service_steady": {
        "kind": "service",
        "why": ("real daemon and 2 agents, open loop at 20 submits/s beside "
                "a q poller: shallow queue, so latency (read over the run's "
                "calmest seconds) is round trips, fsync'd commits, place "
                "wake-up and one heartbeat"),
    },
    "service_backlog": {
        "kind": "service",
        "why": ("same daemon, no agents while 2 closed-loop submitters "
                "fill the queue, then 2 agents drain it: deep queue, so "
                "the O(depth) queue read and the place loop dominate and "
                "contend with submits"),
    },
}


def sim_kwargs(name, quick):
    """``ExperimentRun`` keyword arguments of a simulator workload."""
    spec = WORKLOADS[name]
    kwargs = dict(spec["quick" if quick else "run"])
    if spec.get("delta_config"):
        from repro.core.config import CondorConfig
        kwargs["config"] = CondorConfig(max_machines_per_station=6,
                                        coordinator_mode="delta")
    return kwargs
