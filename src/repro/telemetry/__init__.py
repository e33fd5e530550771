"""Streaming telemetry: metric registry, exporters, SLO burn-rate tracking.

The observability layer for *running* experiments, complementing the
post-hoc summaries in :mod:`repro.metrics` and the decision traces in
:mod:`repro.obs`:

* :class:`MetricRegistry` — instrument namespace per run, passed as
  ``Observe(telemetry=...)``; a run without one builds no telemetry.
* :class:`Counter` / :class:`Gauge` / :class:`Histogram` and their
  families — the three OpenMetrics instrument kinds, sim-time only,
  fixed declared histogram buckets.
* :class:`RunTelemetry` — the standard instrument catalogue, the
  engine's sampling actor and its step-counting observer (wired by
  ``Simulation.build(observe=Observe(telemetry=...))``).
* :class:`SloTracker` / :class:`BurnWindow` / :class:`SloAlert` —
  error-budget accounting with multiwindow burn-rate alerts.
* :func:`render_openmetrics` / :func:`write_snapshot_jsonl` and friends —
  byte-deterministic exporters (and their strict parsers).
* :func:`render_top` / :func:`run_top` — the live ``top`` dashboard.
* :class:`SamplingController` / :func:`resolve_sampling` — adaptive
  sampling policies (``full``, ``adaptive``, ``threshold-aware``) that
  charge a :class:`MonitorBudget` at the prices in
  :mod:`repro.telemetry.cost`.

See ``docs/telemetry.md`` for the instrument catalogue and conventions,
including the "Scaling the observer" section for sampling.
"""

from repro.telemetry.cost import MonitorBudget
from repro.telemetry.hub import RunTelemetry
from repro.telemetry.instruments import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    CounterFamily,
    Gauge,
    GaugeFamily,
    Histogram,
    HistogramFamily,
    MetricFamily,
)
from repro.telemetry.openmetrics import (
    parse_openmetrics,
    render_openmetrics,
    write_openmetrics,
)
from repro.telemetry.registry import MetricRegistry
from repro.telemetry.sampling import (
    AdaptiveSamplingController,
    SamplingController,
    ThresholdAwareSamplingController,
    registered_sampling_policies,
    resolve_sampling,
)
from repro.telemetry.slo import (
    DEFAULT_BURN_WINDOWS,
    BurnWindow,
    SloAlert,
    SloTracker,
)
from repro.telemetry.snapshot import (
    TELEMETRY_SCHEMA,
    read_snapshot_jsonl,
    snapshot_to_jsonl,
    write_snapshot_jsonl,
)
from repro.telemetry.top import render_top, run_top

__all__ = [
    "Counter",
    "CounterFamily",
    "Gauge",
    "GaugeFamily",
    "Histogram",
    "HistogramFamily",
    "MetricFamily",
    "DEFAULT_LATENCY_BUCKETS",
    "MetricRegistry",
    "RunTelemetry",
    "SloTracker",
    "SloAlert",
    "BurnWindow",
    "DEFAULT_BURN_WINDOWS",
    "TELEMETRY_SCHEMA",
    "render_openmetrics",
    "write_openmetrics",
    "parse_openmetrics",
    "snapshot_to_jsonl",
    "write_snapshot_jsonl",
    "read_snapshot_jsonl",
    "render_top",
    "run_top",
    "MonitorBudget",
    "SamplingController",
    "AdaptiveSamplingController",
    "ThresholdAwareSamplingController",
    "registered_sampling_policies",
    "resolve_sampling",
]
