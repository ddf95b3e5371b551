"""Workload modelling: Table 1's users, clusters, generators, traces."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "UserProfile": "users", "paper_profiles": "users", "TABLE_1": "users",
    "DEMAND_CV2": "users", "HEAVY_STANDING_TARGET": "users",
    "WorkloadGenerator": "generator",
    "build_cluster_specs": "cluster", "default_user_homes": "cluster",
    "station_name": "cluster", "PAPER_STATION_COUNT": "cluster",
    "DEFAULT_SESSION_MEAN": "cluster",
    "TraceReplayer": "traces", "export_trace": "traces",
    "dump_trace": "traces", "load_trace": "traces",
    "job_to_record": "traces", "record_to_job": "traces",
})
