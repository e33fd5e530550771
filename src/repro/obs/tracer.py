"""The :class:`Tracer` contract and its recording implementation.

The MONITOR and every policy emit decision evidence through a tracer.  An
untraced run holds ``None`` instead, and instrumented code skips building
evidence entirely (``if tracer is not None: ...``), so runs without
tracing pay nothing measurable.  :class:`DecisionTracer` records one
:class:`~repro.obs.spans.DecisionSpan` per monitor tick, suitable for
JSONL export (:mod:`repro.obs.export`) and human rendering
(:mod:`repro.obs.explain`).

Span lifecycle is strictly bracketed: ``begin_tick`` opens a span, the
``record_*`` hooks append evidence to it, ``end_tick`` freezes and stores
it.  Out-of-order calls raise :class:`~repro.errors.ObservabilityError`
rather than silently mis-attributing evidence.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.errors import ObservabilityError
from repro.obs.spans import ActionRecord, DecisionSpan, LedgerStep, MetricSample


@runtime_checkable
class Tracer(Protocol):
    """What the platform requires of a decision tracer.

    Any object with these members plugs into ``Observe(tracer=...)``.
    All hooks are keyword-only so traces stay self-describing and
    implementations can evolve without positional breakage.
    """

    def begin_tick(
        self, *, now: float, policy: str, digest: str, services: int, nodes: int, replicas: int
    ) -> None:
        """Open the span for one monitor tick."""
        ...  # pragma: no cover - protocol stub

    def record_metric(
        self, *, service: str, metric: str, value: float, threshold: float, verdict: str
    ) -> None:
        """Record one service-level metric-vs-threshold comparison."""
        ...  # pragma: no cover - protocol stub

    def record_ledger(
        self,
        *,
        op: str,
        node: str,
        service: str = "",
        cpu: float = 0.0,
        memory: float = 0.0,
        network: float = 0.0,
    ) -> None:
        """Record one provisional ledger mutation (take/release/plan)."""
        ...  # pragma: no cover - protocol stub

    def record_action(
        self,
        *,
        kind: str,
        service: str,
        target: str = "",
        reason: str = "",
        metric: str = "",
        value: float = 0.0,
        threshold: float = 0.0,
        detail: str = "",
    ) -> None:
        """Record one emitted action and the evidence that triggered it."""
        ...  # pragma: no cover - protocol stub

    def end_tick(self, *, emitted: int, applied: int, failed: int) -> None:
        """Close the span with the monitor's execution tallies."""
        ...  # pragma: no cover - protocol stub


class DecisionTracer:
    """Records one :class:`DecisionSpan` per monitor tick."""

    def __init__(self) -> None:
        self._spans: list[DecisionSpan] = []
        self._open: DecisionSpan | None = None
        self._metrics: list[MetricSample] = []
        self._ledger: list[LedgerStep] = []
        self._actions: list[ActionRecord] = []

    # ------------------------------------------------------------------
    # Tracer hooks
    # ------------------------------------------------------------------
    def begin_tick(
        self, *, now: float, policy: str, digest: str, services: int, nodes: int, replicas: int
    ) -> None:
        """Open the span for one monitor tick (must not already be open)."""
        if self._open is not None:
            raise ObservabilityError(
                f"begin_tick at t={now} while the t={self._open.now} span is still open"
            )
        self._open = DecisionSpan(
            now=now, policy=policy, digest=digest, services=services, nodes=nodes, replicas=replicas
        )
        self._metrics.clear()
        self._ledger.clear()
        self._actions.clear()

    def record_metric(
        self, *, service: str, metric: str, value: float, threshold: float, verdict: str
    ) -> None:
        """Append one metric comparison to the open span."""
        self._require_open("record_metric")
        self._metrics.append(
            MetricSample(
                service=service, metric=metric, value=value, threshold=threshold, verdict=verdict
            )
        )

    def record_ledger(
        self,
        *,
        op: str,
        node: str,
        service: str = "",
        cpu: float = 0.0,
        memory: float = 0.0,
        network: float = 0.0,
    ) -> None:
        """Append one ledger step to the open span."""
        self._require_open("record_ledger")
        self._ledger.append(
            LedgerStep(op=op, node=node, service=service, cpu=cpu, memory=memory, network=network)
        )

    def record_action(
        self,
        *,
        kind: str,
        service: str,
        target: str = "",
        reason: str = "",
        metric: str = "",
        value: float = 0.0,
        threshold: float = 0.0,
        detail: str = "",
    ) -> None:
        """Append one emitted action to the open span."""
        self._require_open("record_action")
        self._actions.append(
            ActionRecord(
                kind=kind,
                service=service,
                target=target,
                reason=reason,
                metric=metric,
                value=value,
                threshold=threshold,
                detail=detail,
            )
        )

    def end_tick(self, *, emitted: int, applied: int, failed: int) -> None:
        """Freeze the open span and append it to :meth:`spans`."""
        head = self._require_open("end_tick")
        self._spans.append(
            DecisionSpan(
                now=head.now,
                policy=head.policy,
                digest=head.digest,
                services=head.services,
                nodes=head.nodes,
                replicas=head.replicas,
                metrics=tuple(self._metrics),
                ledger=tuple(self._ledger),
                actions=tuple(self._actions),
                emitted=emitted,
                applied=applied,
                failed=failed,
            )
        )
        self._open = None
        self._metrics.clear()
        self._ledger.clear()
        self._actions.clear()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def spans(self) -> tuple[DecisionSpan, ...]:
        """All completed spans, in tick order."""
        return tuple(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def clear(self) -> None:
        """Drop all completed spans (an open span, if any, stays open)."""
        self._spans.clear()

    # ------------------------------------------------------------------
    def _require_open(self, hook: str) -> DecisionSpan:
        if self._open is None:
            raise ObservabilityError(f"{hook} called outside a begin_tick/end_tick bracket")
        return self._open
