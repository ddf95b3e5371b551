"""The Condor scheduling system: the paper's primary contribution."""

from repro.core.condor import CondorSystem, StationSpec
from repro.core.config import CondorConfig
from repro.core.coordinator import Coordinator
from repro.core.dag import JobDag
from repro.core.errors import SchedulingError, SubmissionRefused
from repro.core.federation import Matchmaker, PoolCoordinator, federation_pools
from repro.core.invariants import InvariantChecker, InvariantViolation
from repro.core.job import (
    COMPLETED,
    PENDING,
    PLACING,
    QUEUED_STATES,
    REMOVED,
    RUNNING,
    SUSPENDED,
    VACATING,
    Job,
    reset_job_ids,
)
from repro.core.parallel import GangJob
from repro.core.local_scheduler import (
    REASON_OWNER_RETURNED,
    REASON_PRIORITY,
    LocalScheduler,
)
from repro.core.policies import (
    AllocationPolicy,
    FcfsPolicy,
    RandomPolicy,
    RoundRobinPolicy,
)
from repro.core.queue import FIFO, SHORTEST_FIRST, BackgroundJobQueue
from repro.core.reservations import Reservation, ReservationBook
from repro.core.updown import UpDownPolicy

__all__ = [
    "CondorSystem",
    "StationSpec",
    "CondorConfig",
    "Coordinator",
    "PoolCoordinator",
    "Matchmaker",
    "federation_pools",
    "JobDag",
    "GangJob",
    "LocalScheduler",
    "Job",
    "reset_job_ids",
    "BackgroundJobQueue",
    "UpDownPolicy",
    "AllocationPolicy",
    "FcfsPolicy",
    "RandomPolicy",
    "RoundRobinPolicy",
    "SchedulingError",
    "SubmissionRefused",
    "InvariantChecker",
    "InvariantViolation",
    "Reservation",
    "ReservationBook",
    "PENDING",
    "PLACING",
    "RUNNING",
    "SUSPENDED",
    "VACATING",
    "COMPLETED",
    "REMOVED",
    "QUEUED_STATES",
    "FIFO",
    "SHORTEST_FIRST",
    "REASON_OWNER_RETURNED",
    "REASON_PRIORITY",
]
