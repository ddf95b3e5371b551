"""Every metric the benchmark emits: name, unit, direction, bound.

``BENCHMARK.json`` lists exactly these; the self-test keeps the two equal.
Every workload emits every metric.  The end-to-end names are generic
because three different systems share them; README.md says what each one
measures on each workload.
"""

from condorbench.trace import SIM_LAYERS

#: (name, unit, better, regression bound as a share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.05),
    ("latency_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
)

_SIM_COUNTS = (
    ("sim.kernel.events", "count", "lower"),
    ("sim.kernel.events_per_s", "1/s", "higher"),
    ("net.network.messages", "count", "lower"),
    ("net.network.mb_transferred", "MB", "lower"),
    ("core.coordinator.cycles", "count", "lower"),
    ("core.coordinator.station_cycles_per_s", "1/s", "higher"),
    ("core.coordinator.grants", "count", "higher"),
    ("core.coordinator.preemptions", "count", "lower"),
    ("core.coordinator.probes_sent", "count", "lower"),
    ("core.coordinator.updates_applied", "count", "lower"),
    ("core.coordinator.cycle_s_sum", "s", "lower"),
    ("remote_unix.vacate_checkpoints", "count", "lower"),
    ("remote_unix.image_mb_sum", "MB", "lower"),
    ("workload.jobs_submitted", "count", "higher"),
    ("workload.jobs_completed", "count", "higher"),
    ("telemetry.events.emitted", "count", "lower"),
    ("telemetry.trace.records", "count", "lower"),
    ("telemetry.trace.bytes", "B", "lower"),
    ("telemetry.trace.record_s", "s", "lower"),
    ("telemetry.trace.record_tax_ratio", "ratio", "lower"),
    ("telemetry.trace.replay_s", "s", "lower"),
    ("telemetry.store.ingest_s", "s", "lower"),
    ("telemetry.store.ingest_events_per_s", "1/s", "higher"),
    ("telemetry.store.reingest_noop_s", "s", "lower"),
    ("telemetry.store.summary_s", "s", "lower"),
    ("telemetry.store.db_bytes", "B", "lower"),
)

_SERVICE_UNTRACED = (
    ("service.client.submit_rtt_ms_p50", "ms", "lower"),
    ("service.client.submit_rtt_ms_p99", "ms", "lower"),
    ("service.client.q_rtt_ms_p50", "ms", "lower"),
    ("service.client.q_rtt_ms_p99", "ms", "lower"),
    ("service.client.ping_rtt_us_p50", "us", "lower"),
    ("service.loadgen.late_ms_p99", "ms", "lower"),
    ("service.daemon.submit_to_placed_ms_p50", "ms", "lower"),
    ("service.daemon.submit_to_placed_ms_p99", "ms", "lower"),
    ("service.agent.placed_to_done_ms_p50", "ms", "lower"),
    ("service.e2e.submit_to_done_ms_p50", "ms", "lower"),
    ("service.e2e.submit_to_done_ms_p95", "ms", "lower"),
    ("service.e2e.submit_to_done_ms_p99", "ms", "lower"),
    ("service.e2e.submit_per_s", "jobs/s", "higher"),
    ("service.e2e.drain_jobs_per_s", "jobs/s", "higher"),
    ("service.e2e.limit_met", "count", "higher"),
)

_JOBDB_OPS = ("submit", "place", "running", "checkpoint", "complete",
              "queue", "inflight", "job", "counts")
_DAEMON_VERBS = ("submit", "heartbeat", "job_exit", "q")

_SERVICE_TRACED = (
    tuple((f"service.jobdb.{op}_ms_p50", "ms", "lower")
          for op in _JOBDB_OPS)
    + tuple((f"service.jobdb.{op}_calls", "count", "lower")
            for op in _JOBDB_OPS)
    + (("service.jobdb.queue_ms_p99", "ms", "lower"),
       ("service.jobdb.busy_s", "s", "lower"),
       ("service.jobdb.commits_per_job", "ratio", "lower"),
       ("service.daemon.place_thread_db_s", "s", "lower"))
    + tuple((f"service.daemon.{verb}_op_ms_p50", "ms", "lower")
            for verb in _DAEMON_VERBS)
    + tuple((f"service.daemon.{verb}_calls", "count", "lower")
            for verb in _DAEMON_VERBS)
    + (("service.protocol.frames", "count", "lower"),
       ("service.protocol.send_us_p50", "us", "lower"),
       ("service.protocol.roundtrip_us_p50", "us", "lower"),
       ("service.agent.heartbeat_rtt_ms_p50", "ms", "lower"),
       ("service.agent.heartbeats", "count", "lower"))
)

#: (name, unit, better); no bounds — these explain, they do not gate.
PER_LAYER = (
    tuple((f"{layer}.self_s", "s", "lower") for layer in SIM_LAYERS)
    + tuple((f"{layer}.calls", "count", "lower") for layer in SIM_LAYERS)
    + _SIM_COUNTS + _SERVICE_UNTRACED + _SERVICE_TRACED
    + (("trace.overhead_ratio", "ratio", "lower"),
       ("trace.attributed_ratio", "ratio", "higher"),
       ("reference.speed_ratio", "ratio", "higher"),
       ("reference.fsync_ms_p50", "ms", "lower"),
       ("reference.calm_wait_s", "s", "lower"))
)

UNITS = {name: unit for name, unit, *_rest in END_TO_END + PER_LAYER}
