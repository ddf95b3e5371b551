"""Checkpointable job factories submittable over the wire.

A service job travels as an *entry point* (``"module:factory"``) plus a
JSON payload of keyword arguments.  The agent imports the factory and
calls it with the payload; the factory returns the actual job function.

The 1988 system checkpointed arbitrary 4.3BSD processes transparently
(text/data/bss/stack).  Transparent process checkpointing is not portable
Python, so the live plane substitutes the closest cooperative
equivalent with the same recovery contract — *at most the work since the
last checkpoint is repeated*:

* a job is a function ``fn(ctx, state)`` where ``state`` is the last
  checkpointed state (``None`` on first start);
* the function calls ``ctx.checkpoint(state)`` at safe points; the state
  is pickled durably;
* when the hosting agent wants the job gone, the next ``checkpoint()``
  call persists the state and raises
  :class:`~repro.service.errors.VacateRequested`, unwinding the
  function; the job later resumes *elsewhere* from exactly that state.

The factories here are the service plane's stock workloads — used by
the chaos suite, the CI smoke job, and the benchmarks — and double as
the reference for writing your own.
"""

import importlib
import time

from repro.service.errors import ServiceError


def resolve_entry(entry, payload):
    """``"module:factory"`` + payload dict → job function."""
    module_name, sep, factory_name = entry.partition(":")
    if not sep or not module_name or not factory_name:
        raise ServiceError(f"entry {entry!r} is not 'module:factory'")
    try:
        module = importlib.import_module(module_name)
        factory = getattr(module, factory_name)
    except (ImportError, AttributeError) as exc:
        raise ServiceError(f"cannot resolve entry {entry!r}: {exc}") from exc
    fn = factory(**payload)
    if not callable(fn):
        raise ServiceError(f"entry {entry!r} returned non-callable {fn!r}")
    return fn


def count_steps(steps=1000, step_sleep=0.0, checkpoint_every=10):
    """Count to ``steps``, checkpointing the counter periodically.

    The state *is* the progress watermark (an int), which is what lets
    the chaos suite assert monotone checkpoint progress end to end.
    """

    def fn(ctx, state):
        i = int(state or 0)
        while i < steps:
            i += 1
            if step_sleep:
                time.sleep(step_sleep)
            if i % checkpoint_every == 0:
                ctx.checkpoint(i)
        return i

    return fn


def instant(value=0):
    """Complete immediately — submission-throughput benchmark fodder."""

    def fn(ctx, state):
        return value

    return fn


def always_fails(message="intentional failure"):
    """Raise on first step — exercises the failed-terminal path."""

    def fn(ctx, state):
        raise RuntimeError(message)

    return fn
