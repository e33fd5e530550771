"""Decision-trace observability and phase profiling.

The paper's MONITOR is an arbiter whose scaling decisions *are* the
contribution (Section V); this package makes those decisions auditable and
the simulator's wall-time measurable:

* :mod:`repro.obs.tracer` — the :class:`Tracer` protocol and the recording
  :class:`DecisionTracer` (an untraced run holds no tracer at all).
* :mod:`repro.obs.spans` — the plain-data span records one tick produces.
* :mod:`repro.obs.export` — deterministic JSONL persistence.
* :mod:`repro.obs.explain` — the operator-facing "why did it scale?" view.
* :mod:`repro.obs.profiler` — per-engine-phase wall-time accumulation.

Wiring: pass ``observe=Observe(tracer=DecisionTracer(),
profiler=PhaseProfiler())`` (either field alone works too) to
:meth:`repro.Simulation.build` (or use the CLI's ``run --trace-out`` /
``explain`` / ``profile`` verbs).  See ``docs/observability.md``.
"""

from repro.obs.explain import render_explain, render_span
from repro.obs.export import (
    TRACE_SCHEMA,
    parse_trace_line,
    read_trace_jsonl,
    span_to_json_line,
    spans_to_jsonl,
    write_trace_jsonl,
)
from repro.obs.profiler import PhaseProfiler
from repro.obs.spans import (
    ActionRecord,
    DecisionSpan,
    LedgerStep,
    MetricSample,
    span_from_dict,
    span_to_dict,
)
from repro.obs.tracer import DecisionTracer, Tracer

__all__ = [
    # the contract
    "Tracer",
    "DecisionTracer",
    # span records
    "DecisionSpan",
    "MetricSample",
    "LedgerStep",
    "ActionRecord",
    "span_to_dict",
    "span_from_dict",
    # persistence
    "TRACE_SCHEMA",
    "span_to_json_line",
    "spans_to_jsonl",
    "write_trace_jsonl",
    "parse_trace_line",
    "read_trace_jsonl",
    # rendering
    "render_span",
    "render_explain",
    # profiling
    "PhaseProfiler",
]
