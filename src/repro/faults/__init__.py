"""Fault injection and recovery validation (the chaos subsystem).

Declarative seed-deterministic chaos schedules, the injectors that run
them, and the standing no-lost-jobs invariant checker that validates the
paper's §2 fault-tolerance promise against the telemetry spine.
"""

from repro.faults.injector import ChaosContext, ChaosInjector, CrashInjector
from repro.faults.invariants import NoLostJobsChecker, NoLostJobsViolation
from repro.faults.schedule import (
    ChaosSchedule,
    CrashCoordinator,
    CrashMidTransfer,
    CrashPoolCoordinator,
    CrashStation,
    FaultAction,
    LossBurst,
    Partition,
)
from repro.faults.storage import (
    CorruptCheckpoint,
    DiskFail,
    DiskPressure,
    TornWrite,
)

__all__ = [
    "ChaosContext",
    "ChaosInjector",
    "ChaosSchedule",
    "CorruptCheckpoint",
    "CrashCoordinator",
    "CrashInjector",
    "CrashMidTransfer",
    "CrashPoolCoordinator",
    "CrashStation",
    "DiskFail",
    "DiskPressure",
    "FaultAction",
    "LossBurst",
    "NoLostJobsChecker",
    "NoLostJobsViolation",
    "Partition",
    "TornWrite",
]
