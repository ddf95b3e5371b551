"""Fault injection and recovery validation (the chaos subsystem).

Declarative seed-deterministic chaos schedules, the injectors that run
them, and the standing no-lost-jobs invariant checker that validates the
paper's §2 fault-tolerance promise against the telemetry spine.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ChaosContext": "injector", "ChaosInjector": "injector",
    "ChaosSchedule": "schedule",
    "CorruptCheckpoint": "storage",
    "CrashCoordinator": "schedule",
    "CrashInjector": "injector",
    "CrashMidTransfer": "schedule", "CrashPoolCoordinator": "schedule",
    "CrashStation": "schedule",
    "DiskFail": "storage", "DiskPressure": "storage",
    "FaultAction": "schedule", "LossBurst": "schedule",
    "NoLostJobsChecker": "invariants", "NoLostJobsViolation": "invariants",
    "Partition": "schedule",
    "TornWrite": "storage",
})
