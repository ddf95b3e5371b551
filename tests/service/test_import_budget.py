"""The live plane's import budget, and the lazy package surfaces behind it.

A station agent runs on someone else's workstation and the daemon must
not carry the simulator (or OpenSSL, for a schema string): the first
test spawns the real processes the way condorbench does — under
``python -X importtime`` — drives one job through them and pins the
``repro.*`` modules each one loaded.  ``-m repro.cli`` runs the CLI as
``__main__``, so ``repro.cli`` itself is not in the lists.

The second test checks that every package surface still exports exactly
what it did when its ``__init__`` imported everything eagerly.
"""

import importlib
import re
import sys
import time

import pytest

from repro.service.client import ServiceClient
from repro.service.harness import Proc, free_port

_SERVICE = {
    "repro", "repro.service", "repro.service.errors",
    "repro.service.protocol",
}
SERVE = _SERVICE | {
    "repro.service.daemon", "repro.service.jobdb",
    "repro.core", "repro.core.policies", "repro.core.updown", "repro.sim",
    "repro.sim.errors",
    "repro.telemetry", "repro.telemetry.schema",
}
AGENT = _SERVICE | {
    "repro.service.agent", "repro.service.samples",
    "repro.core", "repro.core.owner_reaction",
}
SUBMIT = _SERVICE | {"repro.service.client"}
Q = SUBMIT | {"repro.metrics", "repro.metrics.report"}

#: The simulator, the ops plane and the analysis layer.
FORBIDDEN = ("repro.core.condor", "repro.net", "repro.machine",
             "repro.metrics.jobs", "repro.metrics.stats", "repro.workload",
             "repro.faults", "repro.remote_unix", "repro.analysis",
             "repro.telemetry.store", "repro.telemetry.trace")

_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+\d+ \|\s*(\S+)\s*$",
                          re.MULTILINE)


def _repro_modules(log_path):
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        names = _IMPORT_LINE.findall(fh.read())
    return {name for name in names
            if name == "repro" or name.startswith("repro.")}


def _cli(log_path, *argv):
    return Proc([sys.executable, "-X", "importtime", "-m", "repro.cli",
                 *argv], log_path)


def _wait_for(predicate, what, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {what}")


def test_live_processes_load_only_the_live_plane(tmp_path):
    port = free_port()
    endpoint = f"127.0.0.1:{port}"
    client = ServiceClient([("127.0.0.1", port)], retries=60,
                           retry_cap=0.1)
    logs = {name: tmp_path / f"{name}.log"
            for name in ("serve", "agent", "submit", "q")}
    serve = _cli(logs["serve"], "serve", "--db", str(tmp_path / "s.sqlite"),
                 "--port", str(port))
    agent = None
    try:
        client.ping()
        agent = _cli(logs["agent"], "agent", "a0", "--endpoints", endpoint,
                     "--ckpt", str(tmp_path / "ckpt"))
        _wait_for(lambda: client.q(limit=1)["agents"], "the agent")
        # A submit process; the agent resolves the entry point.
        submit = _cli(logs["submit"], "submit",
                      "repro.service.samples:instant",
                      "--endpoints", endpoint)
        assert submit.popen.wait(timeout=20) == 0
        _wait_for(lambda: client.q()["done"] == 1, "the job")
        q = _cli(logs["q"], "q", "--endpoints", endpoint)
        assert q.popen.wait(timeout=20) == 0
        for proc in (submit, q):
            proc.terminate()
    finally:
        if agent is not None:
            agent.terminate()
        serve.terminate()
    loaded = {name: _repro_modules(path) for name, path in logs.items()}
    for name, modules in loaded.items():
        leaked = sorted(m for m in modules
                        if m.startswith(FORBIDDEN))
        assert not leaked, f"{name} loaded {leaked}"
    assert loaded == {"serve": SERVE, "agent": AGENT, "submit": SUBMIT,
                      "q": Q}


#: Every package's ``__all__`` as it was when the package inits imported
#: their leaves eagerly, in order, less the names deleted since (the
#: in-process live cluster, then the whole ``runtime`` package, whose
#: checkpoint store and job context the service agent now holds).
PARENT_ALL = {
    "analysis": [
        "ExperimentRun", "run_month", "cached_month_run", "clear_cache",
        "paper", "table_1", "figure_2", "figure_3", "figure_4",
        "figure_5", "figure_6", "figure_7", "figure_8", "figure_9",
        "headline_scalars", "ALL_EXHIBITS", "baseline_trace",
        "run_variant", "summarize", "export_csvs",
    ],
    "core": [
        "CondorSystem", "StationSpec", "CondorConfig", "Coordinator",
        "PoolCoordinator", "Matchmaker", "federation_pools", "JobDag",
        "GangJob", "LocalScheduler", "Job", "reset_job_ids",
        "BackgroundJobQueue", "UpDownPolicy", "AllocationPolicy",
        "FcfsPolicy", "RoundRobinPolicy",
        "SchedulingError", "SubmissionRefused", "InvariantChecker",
        "InvariantViolation", "Reservation", "ReservationBook", "PENDING",
        "PLACING", "RUNNING", "SUSPENDED", "VACATING", "COMPLETED",
        "REMOVED", "QUEUED_STATES", "FIFO", "SHORTEST_FIRST",
        "REASON_OWNER_RETURNED", "REASON_PRIORITY",
    ],
    "faults": [
        "ChaosContext", "ChaosInjector", "ChaosSchedule",
        "CorruptCheckpoint", "CrashCoordinator", "CrashInjector",
        "CrashMidTransfer", "CrashPoolCoordinator", "CrashStation",
        "DiskFail", "DiskPressure", "FaultAction", "LossBurst",
        "NoLostJobsChecker", "NoLostJobsViolation", "Partition",
        "TornWrite",
    ],
    "machine": [
        "CpuLedger", "Disk", "DiskFailedError", "DiskFullError",
        "Allocation", "Workstation", "OwnerActivityModel",
        "NeverActiveOwner", "AlwaysActiveOwner", "AlternatingOwner",
        "CorrelatedOwner", "TraceOwner", "DiurnalOwner", "sample_busyness",
        "DEFAULT_BUSYNESS_MIX", "DEFAULT_HOUR_WEIGHTS", "DEFAULT_DISK_MB",
        "DEFAULT_ARCH", "OWNER", "REMOTE_JOB", "PLACEMENT", "CHECKPOINT",
        "SYSCALL", "SCHEDULER", "COORDINATOR", "LOCAL_JOB",
        "ALL_CATEGORIES", "SUPPORT_CATEGORIES",
    ],
    "metrics": [
        "HourlyAccumulator", "PeriodicSampler", "UtilizationMonitor",
        "QueueLengthMonitor", "GROUPS", "station_breakdown", "station_row",
        "render_station_breakdown", "stats", "jobs", "report",
    ],
    "net": [
        "Network", "Node", "BulkTransfer", "RpcTicket", "BatchTicket",
        "ReliableSender", "DEFAULT_LATENCY", "DEFAULT_BANDWIDTH_MB_S",
    ],
    "remote_unix": [
        "SegmentLayout", "typical_layout", "KB_PER_MB", "CheckpointImage",
        "CheckpointStore", "CheckpointTornWrite", "checkpoint_cpu_cost",
        "CHECKPOINT_CPU_S_PER_MB", "ShadowProcess", "remote_syscall_load",
        "breakeven_syscall_rate", "REMOTE_SYSCALL_CPU_S",
        "LOCAL_SYSCALL_CPU_S",
    ],
    "service": [
        "CoordinatorDaemon", "FencedCheckpointStore", "JobDatabase",
        "ProtocolError", "ServiceClient", "ServiceError", "StaleEpochError",
        "StandbyCoordinator", "StationAgent",
    ],
    "sim": [
        "Simulation", "Process", "EventHandle", "SimulationError",
        "RandomStream", "Distribution", "Constant", "Uniform", "Exponential",
        "LogNormal", "Mixture",
        "fit_hyperexponential", "SECOND", "MINUTE", "HOUR", "DAY", "WEEK",
    ],
    "telemetry": [
        "kinds", "TelemetryEvent", "TelemetryHub", "SubscriberError",
        "UnknownEventKind", "MetricsRegistry", "Counter", "Gauge",
        "Histogram", "TraceRecorder", "TraceStore", "ingest_trace",
        "TraceSummary", "encode_event", "jsonify", "read_trace",
        "replay_trace", "summarize_trace",
    ],
    "workload": [
        "UserProfile", "paper_profiles", "TABLE_1", "DEMAND_CV2",
        "HEAVY_STANDING_TARGET", "WorkloadGenerator", "build_cluster_specs",
        "default_user_homes", "station_name", "PAPER_STATION_COUNT",
        "DEFAULT_SESSION_MEAN", "TraceReplayer", "export_trace",
        "dump_trace", "load_trace", "job_to_record", "record_to_job",
    ],
}


@pytest.mark.parametrize("package", sorted(PARENT_ALL))
def test_package_surface_is_unchanged(package):
    name = f"repro.{package}"
    pkg = importlib.import_module(name)
    assert pkg.__all__ == PARENT_ALL[package]
    for export in pkg.__all__:
        obj = getattr(pkg, export)
        # The identical object a leaf module of the package defines (a
        # submodule export is that submodule).
        leaves = [module for key, module in list(sys.modules.items())
                  if key.startswith(f"{name}.")
                  and (module is obj or vars(module).get(export) is obj)]
        assert leaves, f"{name}.{export} is not from a {name} module"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(pkg.__all__) <= set(namespace)
    assert set(pkg.__all__) <= set(dir(pkg))
    with pytest.raises(AttributeError, match=re.escape(repr(name))):
        pkg.no_such_export
