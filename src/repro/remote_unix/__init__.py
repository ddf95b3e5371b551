"""The Remote Unix (RU) facility model: segments, checkpoints, shadows."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "SegmentLayout": "segments", "typical_layout": "segments",
    "KB_PER_MB": "segments",
    "CheckpointImage": "checkpoint", "CheckpointStore": "checkpoint",
    "CheckpointTornWrite": "checkpoint",
    "checkpoint_cpu_cost": "checkpoint",
    "CHECKPOINT_CPU_S_PER_MB": "checkpoint",
    "ShadowProcess": "shadow", "remote_syscall_load": "shadow",
    "breakeven_syscall_rate": "shadow",
    "REMOTE_SYSCALL_CPU_S": "shadow", "LOCAL_SYSCALL_CPU_S": "shadow",
})
