"""Workstation substrate: CPU accounting, disks, owners, stations."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CpuLedger": "accounting",
    "Disk": "disk", "DiskFailedError": "disk", "DiskFullError": "disk",
    "Allocation": "disk",
    "Workstation": "workstation",
    "OwnerActivityModel": "owner", "NeverActiveOwner": "owner",
    "AlwaysActiveOwner": "owner", "AlternatingOwner": "owner",
    "CorrelatedOwner": "owner", "TraceOwner": "owner",
    "DiurnalOwner": "owner", "sample_busyness": "owner",
    "DEFAULT_BUSYNESS_MIX": "owner", "DEFAULT_HOUR_WEIGHTS": "owner",
    "DEFAULT_DISK_MB": "workstation", "DEFAULT_ARCH": "workstation",
    "OWNER": "accounting", "REMOTE_JOB": "accounting",
    "PLACEMENT": "accounting", "CHECKPOINT": "accounting",
    "SYSCALL": "accounting", "SCHEDULER": "accounting",
    "COORDINATOR": "accounting", "LOCAL_JOB": "accounting",
    "ALL_CATEGORIES": "accounting", "SUPPORT_CATEGORIES": "accounting",
})
