"""Analysis: run metrics, aggregate statistics, and report rendering.

* :mod:`repro.analysis.metrics` -- per-run and per-campaign measurements
  (messages sent/delivered/dropped, completion time, per-item overhead).
* :mod:`repro.analysis.stats` -- the small statistics toolkit the tables
  use (mean, median, percentiles, min/max summaries).
* :mod:`repro.analysis.tables` -- deterministic ASCII tables and series,
  the output format of every benchmark.
* :mod:`repro.analysis.perfreport` -- wall-clock perf records in the
  ``repro-perf/1`` JSON artifact that ``chaos`` and ``stabilize`` write
  (with ``spans:``/``metrics:`` sections from :mod:`repro.obs`).
* :mod:`repro.analysis.cache` -- the content-addressed on-disk result
  cache (exploration reports, campaign run metrics, corrupted-start
  stabilization verdicts).
"""

from repro.analysis.cache import (
    ResultCache,
    cached_explore,
    cached_stabilize,
    fingerprint,
)
from repro.analysis.campaign import Campaign, CampaignOutcome
from repro.analysis.diagram import sequence_diagram
from repro.analysis.metrics import (
    CampaignSummary,
    RunMetrics,
    measure_run,
    summarize,
)
from repro.analysis.perfreport import PerfRecord, PerfReport
from repro.analysis.stats import Summary, five_number, mean, median, percentile
from repro.analysis.tables import format_cell, render_series, render_table

__all__ = [
    "ResultCache",
    "cached_explore",
    "cached_stabilize",
    "fingerprint",
    "RunMetrics",
    "measure_run",
    "CampaignSummary",
    "summarize",
    "mean",
    "median",
    "percentile",
    "Summary",
    "five_number",
    "render_table",
    "render_series",
    "format_cell",
    "Campaign",
    "CampaignOutcome",
    "sequence_diagram",
    "PerfRecord",
    "PerfReport",
]
