"""Measurement layer: time series, utilisation, job metrics, reports."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "HourlyAccumulator": "timeseries", "PeriodicSampler": "timeseries",
    "UtilizationMonitor": "utilization",
    "QueueLengthMonitor": "queues",
    "GROUPS": "utilization",
    "station_breakdown": "stations", "station_row": "stations",
    "render_station_breakdown": "stations",
    "stats": "stats", "jobs": "jobs", "report": "report",
})
