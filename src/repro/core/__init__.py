"""The Condor scheduling system: the paper's primary contribution."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CondorSystem": "condor", "StationSpec": "condor",
    "CondorConfig": "config",
    "Coordinator": "coordinator",
    "PoolCoordinator": "federation", "Matchmaker": "federation",
    "federation_pools": "federation",
    "JobDag": "dag",
    "GangJob": "parallel",
    "LocalScheduler": "local_scheduler",
    "Job": "job", "reset_job_ids": "job",
    "BackgroundJobQueue": "queue",
    "UpDownPolicy": "updown",
    "AllocationPolicy": "policies", "FcfsPolicy": "policies",
    "RoundRobinPolicy": "policies",
    "SchedulingError": "errors", "SubmissionRefused": "errors",
    "InvariantChecker": "invariants", "InvariantViolation": "invariants",
    "Reservation": "reservations", "ReservationBook": "reservations",
    "PENDING": "job", "PLACING": "job", "RUNNING": "job",
    "SUSPENDED": "job", "VACATING": "job", "COMPLETED": "job",
    "REMOVED": "job", "QUEUED_STATES": "job",
    "FIFO": "queue", "SHORTEST_FIRST": "queue",
    "REASON_OWNER_RETURNED": "owner_reaction",
    "REASON_PRIORITY": "owner_reaction",
})
