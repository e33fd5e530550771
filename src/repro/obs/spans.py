"""Structured records of one autoscaling decision round.

A :class:`DecisionSpan` captures *why* the MONITOR did what it did on one
tick: the view it saw (summarized by a content digest), the per-service
metric comparisons the policy evaluated, the provisional
:class:`~repro.core.policy.NodeLedger` bookkeeping it performed while
planning, and the actions it emitted — each annotated with the triggering
metric value and the threshold it was compared against.

Everything here is plain, JSON-serializable data.  The span types
deliberately do not reference simulator objects (views, actions, clusters),
so traces can be exported, re-read, and diffed without importing the rest
of the library — and so ``repro.obs`` stays a leaf package that the policy
layer can depend on without cycles.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Mapping

from repro.codec import decode_record, list_of, record_of
from repro.errors import ObservabilityError


@dataclass(frozen=True)
class MetricSample:
    """One policy-side comparison of a service metric against its threshold."""

    service: str
    #: Which signal was compared ("cpu", "memory", "network", "missing-cpu", ...).
    metric: str
    #: The observed value the policy acted on.
    value: float
    #: The threshold (target utilization, watermark, zero-deficit line, ...).
    threshold: float
    #: The policy's conclusion ("acquire", "reclaim", "within-tolerance", ...).
    verdict: str


@dataclass(frozen=True)
class LedgerStep:
    """One provisional mutation of the planning ledger."""

    #: Ledger operation: "take", "release", or "plan-placement".
    op: str
    node: str
    service: str = ""
    cpu: float = 0.0
    memory: float = 0.0
    network: float = 0.0


@dataclass(frozen=True)
class ActionRecord:
    """One emitted scaling action, with the evidence that triggered it."""

    #: Action kind: "add-replica", "remove-replica", "vertical-scale", "migrate-replica".
    kind: str
    service: str
    #: Container id (or target node for placements), when applicable.
    target: str = ""
    #: The policy's reason string ("acquire", "spill", "max-replicas", ...).
    reason: str = ""
    #: The metric whose value triggered the action.
    metric: str = ""
    #: The triggering metric value.
    value: float = 0.0
    #: The threshold the value was compared against.
    threshold: float = 0.0
    #: Free-form human detail ("cpu 0.50->1.25 on worker-03").
    detail: str = ""


@dataclass(frozen=True)
class DecisionSpan:
    """One complete monitor tick: view in, reasoning, actions out."""

    #: Simulated time of the tick.
    now: float
    #: Name of the deciding policy ("hybrid", "kubernetes", ...).
    policy: str
    #: Content digest of the :class:`~repro.core.view.ClusterView` consumed.
    digest: str
    #: View shape: service/node/replica counts at snapshot time.
    services: int
    nodes: int
    replicas: int
    #: Per-service metric comparisons, in evaluation order.
    metrics: tuple[MetricSample, ...] = ()
    #: Ledger planning steps, in execution order.
    ledger: tuple[LedgerStep, ...] = ()
    #: Emitted actions with their triggers, in emission order.
    actions: tuple[ActionRecord, ...] = ()
    #: Actions emitted by the policy this tick.
    emitted: int = 0
    #: Actions the monitor applied successfully / skipped as failed.
    applied: int = 0
    failed: int = 0


def span_to_dict(span: DecisionSpan) -> dict[str, Any]:
    """Flatten one span into plain dict/list/scalar data (JSON-ready)."""
    return asdict(span)


def span_from_dict(payload: Mapping[str, Any]) -> DecisionSpan:
    """Rebuild a :class:`DecisionSpan` from :func:`span_to_dict` output;
    raises :class:`~repro.errors.ObservabilityError` naming the bad field."""
    nested = {
        "metrics": list_of(record_of(MetricSample)),
        "ledger": list_of(record_of(LedgerStep)),
        "actions": list_of(record_of(ActionRecord)),
    }
    return decode_record(DecisionSpan, payload, ObservabilityError, "span", nested)
