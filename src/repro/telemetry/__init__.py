"""The telemetry spine: typed events, metrics, deterministic traces.

Every layer of the reproduction reports through this package:

* :mod:`repro.telemetry.kinds` — the one event vocabulary;
* :class:`TelemetryHub` — typed pub/sub with subscriber isolation;
* :class:`MetricsRegistry` — counters/gauges/histograms by name;
* :class:`TraceRecorder` / :func:`replay_trace` — byte-deterministic
  JSONL traces and offline reconstruction of the headline metrics.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "kinds": "kinds",
    "TelemetryEvent": "events", "TelemetryHub": "events",
    "SubscriberError": "events", "UnknownEventKind": "events",
    "MetricsRegistry": "metrics", "Counter": "metrics", "Gauge": "metrics",
    "Histogram": "metrics",
    "TraceRecorder": "trace",
    "TraceStore": "store", "ingest_trace": "store",
    "TraceSummary": "trace", "encode_event": "trace", "jsonify": "trace",
    "read_trace": "trace", "replay_trace": "trace",
    "summarize_trace": "trace",
})
