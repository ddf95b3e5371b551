"""Spans around the calls into each layer, recorded from outside.

The traced pass times calls *into* the public functions of ``repro`` from
wrappers that live here; nothing under ``src/`` knows it is being
measured.  Two recorders:

* :class:`SimTracer` — the simulator is single-threaded, so spans nest on
  one stack.  ``Simulation.schedule|schedule_at|spawn`` wrap the callback
  or generator they are handed in a span attributed to the module that
  defines it, so every kernel dispatch is a timed call into a layer;
  nested spans at the network, cluster-view, Up-Down, checkpoint-store and
  telemetry boundaries move time to the layer that spent it.  A layer's
  self time is its spans' duration minus the part their child spans cover.
* :class:`ServiceTracer` — the daemon and the agents are threaded, so
  spans are flat ``(layer, name, thread, start, end, trace id)`` records:
  every public ``JobDatabase`` method, every frame sent or received, and
  the request → reply interval on each serving (or calling) thread.

Spans stay in memory until the pass ends; ``dump`` writes them out.
"""

import functools
import json
import threading
import time

_perf = time.perf_counter

#: module prefix -> layer, longest prefix wins.  The 15 layers are the
#: module names later issues cite; modules outside them fall to the
#: nearest owner so no dispatched callback goes unattributed.
_LAYER_PREFIXES = (
    ("repro.sim.kernel", "sim.kernel"),
    ("repro.sim", "sim.process"),
    ("repro.net", "net.network"),
    ("repro.core.coordinator", "core.coordinator"),
    ("repro.core.federation", "core.coordinator"),
    ("repro.core.reservations", "core.coordinator"),
    ("repro.core.cluster_view", "core.cluster_view"),
    ("repro.core.updown", "core.updown"),
    ("repro.core.policies", "core.updown"),
    ("repro.core.local_scheduler", "core.local_scheduler"),
    ("repro.core.local_runner", "core.local_scheduler"),
    ("repro.core.queue", "core.local_scheduler"),
    ("repro.core.job", "core.local_scheduler"),
    ("repro.core", "core.condor"),
    ("repro.machine", "machine"),
    ("repro.remote_unix", "remote_unix"),
    ("repro.workload", "workload"),
    ("repro.metrics", "metrics"),
    ("repro.telemetry.trace", "telemetry.trace"),
    ("repro.telemetry.store", "telemetry.store"),
    ("repro.telemetry", "telemetry.events"),
)

SIM_LAYERS = (
    "sim.kernel", "sim.process", "net.network", "core.coordinator",
    "core.cluster_view", "core.updown", "core.local_scheduler",
    "core.condor", "machine", "remote_unix", "workload", "metrics",
    "telemetry.events", "telemetry.trace", "telemetry.store",
)

#: Raw simulator spans kept besides the per-(layer, name) aggregate.
RAW_SPAN_LIMIT = 10_000


def layer_of_module(module):
    """The layer that owns ``module``, or ``None`` outside ``repro``."""
    if not module or not module.startswith("repro"):
        return None
    for prefix, layer in _LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def _owner(fn):
    """``(cache key, module, qualified name)`` of the code behind ``fn``."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    key = getattr(fn, "__code__", None) or fn
    name = getattr(fn, "__qualname__", None) or type(fn).__name__
    return key, getattr(fn, "__module__", None), name


class _Patcher:
    """Replaces attributes of classes and modules, and puts them back."""

    def __init__(self):
        self._undo = []

    def _patch(self, owner, name, replacement):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def remove(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class SimTracer(_Patcher):
    """Nested spans over the single-threaded simulator stack."""

    def __init__(self):
        super().__init__()
        #: (layer, name) -> [calls, self seconds, total seconds]
        self.aggregate = {}
        #: first RAW_SPAN_LIMIT spans by start order:
        #: (id, parent id, layer, name, start, end)
        self.raw = []
        self._stack = []            # open frames: [child seconds, span id]
        self._spans = 0
        self._owners = {}           # code object -> (layer, aggregate row)
        self._subscriptions = {}    # (hub id, kind, callback) -> wrapper

    # -- recording -----------------------------------------------------

    def _row(self, layer, name):
        row = self.aggregate.get((layer, name))
        if row is None:
            row = self.aggregate[(layer, name)] = [0, 0.0, 0.0]
        return row

    def span(self, layer, name, fn):
        """``fn`` wrapped in a span owned by ``layer``."""
        row = self._row(layer, name)
        stack = self._stack
        raw = self.raw

        def traced(*args, **kwargs):
            span_id = self._spans
            self._spans = span_id + 1
            frame = [0.0, span_id]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                stack.pop()
                if parent is not None:
                    parent[0] += elapsed
                row[0] += 1
                row[1] += elapsed - frame[0]
                row[2] += elapsed
                if span_id < RAW_SPAN_LIMIT:
                    raw.append((span_id,
                                None if parent is None else parent[1],
                                layer, name, start, start + elapsed))

        return traced

    def owned(self, fn):
        """``fn`` in a span of the layer whose module defines it;
        callables from outside ``repro`` are returned untouched."""
        key, module, name = _owner(fn)
        known = self._owners.get(key)
        if known is None:
            known = self._owners[key] = (layer_of_module(module), name)
        layer, name = known
        if layer is None:
            return fn
        return self.span(layer, name, fn)

    # -- installation --------------------------------------------------

    def _wrap(self, owner, name, layer):
        original = owner.__dict__[name]
        self._patch(owner, name,
                    self.span(layer, original.__qualname__, original))

    def install(self):
        """Patch the layer boundaries; :meth:`remove` restores them."""
        from repro.analysis import experiment
        from repro.core.cluster_view import ClusterView
        from repro.core.condor import CondorSystem
        from repro.core.coordinator import Coordinator
        from repro.core.local_scheduler import LocalScheduler
        from repro.core.updown import UpDownPolicy
        from repro.machine.workstation import Workstation
        from repro.metrics.queues import QueueLengthMonitor
        from repro.metrics.utilization import UtilizationMonitor
        from repro.net.network import Network, Node
        from repro.remote_unix.checkpoint import CheckpointStore
        from repro.sim.kernel import Simulation
        from repro.telemetry.events import TelemetryHub
        from repro.telemetry.store import TraceStore
        from repro.telemetry.trace import TraceRecorder
        from repro.workload.generator import WorkloadGenerator

        owned = self.owned
        schedule = Simulation.schedule
        schedule_at = Simulation.schedule_at
        spawn = Simulation.spawn

        def traced_schedule(sim, delay, callback, *args, locus=None):
            return schedule(sim, delay, owned(callback), *args, locus=locus)

        def traced_schedule_at(sim, when, callback, *args, locus=None):
            return schedule_at(sim, when, owned(callback), *args,
                               locus=locus)

        def traced_spawn(sim, generator, name=None):
            return spawn(sim, _TracedGenerator(self, generator), name=name)

        self._patch(Simulation, "schedule", traced_schedule)
        self._patch(Simulation, "schedule_at", traced_schedule_at)
        self._patch(Simulation, "spawn", traced_spawn)
        self._wrap(Simulation, "run", "sim.kernel")

        # The network hands replies to the caller's callback from inside
        # its own delivery closure: wrap the callback so the reply
        # handler's time goes to the layer that owns it.
        rpc = self.span("net.network", "Network.rpc", Network.rpc)
        rpc_batch = self.span("net.network", "Network.rpc_batch",
                              Network.rpc_batch)

        def traced_rpc(net, dst_name, op, payload=None, timeout=1.0,
                       callback=None, src=None):
            if callback is not None:
                callback = owned(callback)
            return rpc(net, dst_name, op, payload=payload, timeout=timeout,
                       callback=callback, src=src)

        def traced_rpc_batch(net, targets, op, payload=None, callback=None,
                             src=None):
            if callback is not None:
                callback = owned(callback)
            return rpc_batch(net, targets, op, payload=payload,
                             callback=callback, src=src)

        self._patch(Network, "rpc", traced_rpc)
        self._patch(Network, "rpc_batch", traced_rpc_batch)
        self._wrap(Network, "message", "net.network")
        self._wrap(Network, "transfer", "net.network")

        register_handler = Node.register_handler

        def traced_register_handler(node, op, handler):
            return register_handler(node, op, owned(handler))

        self._patch(Node, "register_handler", traced_register_handler)

        for owner, names, layer in (
            (ClusterView, ("apply",), "core.cluster_view"),
            (UpDownPolicy, ("update", "rank_requesters"), "core.updown"),
            (CheckpointStore, ("store", "fetch_verified"), "remote_unix"),
            (TelemetryHub, ("emit",), "telemetry.events"),
            (TraceStore, ("ingest", "summary"), "telemetry.store"),
            # Construction and the start/finalize calls execute() makes,
            # so set-up and the edges of the run are attributed too.
            (CondorSystem, ("__init__", "start", "finalize"), "core.condor"),
            (Coordinator, ("__init__",), "core.coordinator"),
            (LocalScheduler, ("__init__",), "core.local_scheduler"),
            (Workstation, ("__init__",), "machine"),
            (Network, ("__init__",), "net.network"),
            (WorkloadGenerator, ("__init__", "start"), "workload"),
            # the names experiment.py bound at import time
            (experiment, ("build_cluster_specs", "paper_profiles"),
             "workload"),
            (UtilizationMonitor, ("__init__",), "metrics"),
            (QueueLengthMonitor, ("__init__", "start"), "metrics"),
            (TraceRecorder, ("__init__", "close"), "telemetry.trace"),
        ):
            for name in names:
                self._wrap(owner, name, layer)

        subscribe = TelemetryHub.subscribe
        subscribe_all = TelemetryHub.subscribe_all
        unsubscribe = TelemetryHub.unsubscribe
        unsubscribe_all = TelemetryHub.unsubscribe_all
        wrappers = self._subscriptions

        def traced_subscribe(hub, kind, callback):
            wrapper = wrappers[(id(hub), kind, callback)] = owned(callback)
            return subscribe(hub, kind, wrapper)

        def traced_subscribe_all(hub, callback):
            wrapper = wrappers[(id(hub), None, callback)] = owned(callback)
            return subscribe_all(hub, wrapper)

        def traced_unsubscribe(hub, kind, callback):
            return unsubscribe(hub, kind, wrappers.pop(
                (id(hub), kind, callback), callback))

        def traced_unsubscribe_all(hub, callback):
            return unsubscribe_all(hub, wrappers.pop(
                (id(hub), None, callback), callback))

        self._patch(TelemetryHub, "subscribe", traced_subscribe)
        self._patch(TelemetryHub, "subscribe_all", traced_subscribe_all)
        self._patch(TelemetryHub, "unsubscribe", traced_unsubscribe)
        self._patch(TelemetryHub, "unsubscribe_all", traced_unsubscribe_all)
        return self

    # -- results -------------------------------------------------------

    def layers(self):
        """``{layer: (calls, self seconds)}`` over every simulator layer."""
        totals = {layer: [0, 0.0] for layer in SIM_LAYERS}
        for (layer, _name), (calls, self_s, _total) in self.aggregate.items():
            if layer in totals:     # the benchmark's own spans are not one
                totals[layer][0] += calls
                totals[layer][1] += self_s
        return {layer: tuple(row) for layer, row in totals.items()}

    def dump(self, path):
        """Aggregate rows, then the first raw spans, one JSON per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for (layer, name), (calls, self_s, total_s) in sorted(
                    self.aggregate.items()):
                fh.write(json.dumps({
                    "aggregate": name, "layer": layer, "calls": calls,
                    "self_s": self_s, "total_s": total_s}) + "\n")
            for span_id, parent, layer, name, start, end in sorted(self.raw):
                fh.write(json.dumps({
                    "span": span_id, "parent": parent, "layer": layer,
                    "name": name, "start": start, "end": end}) + "\n")


class _TracedGenerator:
    """Stands in for a process generator; each resume is a span of the
    layer whose module defines the generator function."""

    __slots__ = ("__name__", "send", "throw", "close")

    def __init__(self, tracer, generator):
        self.__name__ = getattr(generator, "__name__", "process")
        module = generator.gi_frame.f_globals.get("__name__")
        layer = layer_of_module(module)
        self.close = generator.close
        if layer is None:
            self.send = generator.send
            self.throw = generator.throw
        else:
            name = generator.gi_code.co_qualname
            self.send = tracer.span(layer, name, generator.send)
            self.throw = tracer.span(layer, name, generator.throw)


# ----------------------------------------------------------------------
# service plane

#: ``JobDatabase`` methods that commit a transaction.
JOBDB_WRITES = frozenset((
    "bump_epoch", "submit", "place", "running", "checkpoint", "complete",
    "fail", "vacate", "stop", "save_owner_indices", "register_agent",
    "count_stale_result", "count_stale_epoch", "count_agent_expiry",
))
JOBDB_READS = frozenset((
    "queue", "inflight", "job", "counts", "counter", "load_owner_indices",
))


class ServiceTracer(_Patcher):
    """Flat spans inside one daemon or agent process."""

    def __init__(self):
        super().__init__()
        #: (layer, name, thread, start, end, trace id)
        self.spans = []
        self._pending = threading.local()

    def install(self):
        from repro.service import protocol
        from repro.service.jobdb import JobDatabase

        spans = self.spans
        thread_name = threading.current_thread

        def traced_db(name, method):
            def call(db, *args, **kwargs):
                start = _perf()
                try:
                    return method(db, *args, **kwargs)
                finally:
                    key = args[0] if args and isinstance(args[0], str) \
                        else None
                    spans.append(("service.jobdb", name,
                                  thread_name().name, start, _perf(), key))
            return call

        for name in sorted(JOBDB_WRITES | JOBDB_READS):
            self._patch(JobDatabase, name,
                        traced_db(name, JobDatabase.__dict__[name]))

        send_frame = protocol.send_frame
        recv_frame = protocol.recv_frame
        pending = self._pending

        # A frame with an ``op`` is a request.  On the thread that
        # received one, the interval up to the reply's send is the
        # daemon's handling of that verb; on the thread that sent one,
        # the interval up to the reply's arrival is the caller's round
        # trip.
        def traced_send(sock, obj):
            start = _perf()
            thread = thread_name().name
            served = getattr(pending, "served", None)
            if served is not None and "op" not in obj:
                pending.served = None
                spans.append(("service.daemon", served[0], thread,
                              served[1], start, None))
            try:
                return send_frame(sock, obj)
            finally:
                end = _perf()
                spans.append(("service.protocol", "send_frame", thread,
                              start, end, None))
                if "op" in obj:
                    pending.asked = (obj["op"], start)

        def traced_recv(sock):
            start = _perf()
            obj = None
            try:
                obj = recv_frame(sock)
                return obj
            finally:
                end = _perf()
                thread = thread_name().name
                spans.append(("service.protocol", "recv_frame", thread,
                              start, end, None))
                asked = getattr(pending, "asked", None)
                if isinstance(obj, dict):
                    if "op" in obj:
                        pending.served = (obj["op"], end)
                    elif asked is not None:
                        pending.asked = None
                        spans.append(("service.agent", asked[0], thread,
                                      asked[1], end, None))

        self._patch(protocol, "send_frame", traced_send)
        self._patch(protocol, "recv_frame", traced_recv)
        return self

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for layer, name, thread, start, end, key in list(self.spans):
                fh.write(json.dumps({
                    "layer": layer, "name": name, "thread": thread,
                    "start": start, "end": end, "trace": key}) + "\n")
