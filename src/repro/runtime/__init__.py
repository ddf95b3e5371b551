"""The cooperative-checkpoint contract the station agent runs jobs under.

The documented substitution for the paper's transparent 4.3BSD process
checkpointing (see DESIGN.md): jobs checkpoint cooperatively at safe
points with identical recovery semantics — at most the work since the
last checkpoint is repeated when a station's owner reclaims it.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CheckpointContext": "job",
    "LiveCheckpointStore": "checkpoint",
    "LiveRuntimeError": "errors", "VacateRequested": "errors",
})
