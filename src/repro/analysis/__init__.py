"""Experiment harness and per-exhibit analysis (Table 1, Figs. 2-9)."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ExperimentRun": "experiment", "run_month": "experiment",
    "cached_month_run": "experiment", "clear_cache": "experiment",
    "paper": "paper",
    "table_1": "exhibits", "figure_2": "exhibits", "figure_3": "exhibits",
    "figure_4": "exhibits", "figure_5": "exhibits", "figure_6": "exhibits",
    "figure_7": "exhibits", "figure_8": "exhibits", "figure_9": "exhibits",
    "headline_scalars": "exhibits", "ALL_EXHIBITS": "exhibits",
    "baseline_trace": "ablation",
    "run_variant": "ablation", "summarize": "ablation",
    "export_csvs": "export",
})
