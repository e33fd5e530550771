"""The metric registry: one namespace of instrument families per run.

Families are registered idempotently (asking again with the same schema
returns the same family; a conflicting re-declaration raises), children
accumulate, and :meth:`~MetricRegistry.capture` appends each series'
current value to a ring buffer stamped with *simulated* time.  A run
records telemetry only when one is passed as ``Observe(telemetry=...)``;
without one it builds no registry and no instrument at all.

Retention is ring-buffered per series: ``MetricRegistry(retention=240)``
keeps the last 240 capture points of every series, enough for the live
``top`` dashboard's rate windows without unbounded growth on long runs.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import TelemetryError
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

#: Family kinds a registry can hold (exporters switch on this).
FAMILY_KINDS = ("counter", "gauge", "histogram")


class MetricRegistry:
    """Registry of metric families for one simulation run."""

    def __init__(self, *, retention: int = 240) -> None:
        if retention < 2:
            raise TelemetryError(f"retention must be >= 2 capture points, got {retention}")
        #: Capture points kept per series (ring buffer length).
        self.retention = retention
        self._families: dict[str, MetricFamily[Counter] | MetricFamily[Gauge] | MetricFamily[Histogram]] = {}
        #: Simulated time of the most recent :meth:`capture` (-1 before any).
        self.last_capture = -1.0

    # ------------------------------------------------------------------
    # Registration (idempotent per name)
    # ------------------------------------------------------------------
    def counter(
        self,
        name: str,
        help: str,
        *,
        unit: str = "",
        labels: tuple[str, ...] = (),
    ) -> CounterFamily:
        """Register (or fetch) a counter family."""
        return self._register(CounterFamily(name, help, unit=unit, label_names=labels))

    def gauge(
        self,
        name: str,
        help: str,
        *,
        unit: str = "",
        labels: tuple[str, ...] = (),
    ) -> GaugeFamily:
        """Register (or fetch) a gauge family."""
        return self._register(GaugeFamily(name, help, unit=unit, label_names=labels))

    def histogram(
        self,
        name: str,
        help: str,
        *,
        unit: str = "",
        labels: tuple[str, ...] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> HistogramFamily:
        """Register (or fetch) a histogram family with fixed bucket bounds."""
        return self._register(
            HistogramFamily(name, help, unit=unit, label_names=labels, buckets=buckets)
        )

    def _register(self, family):  # type: ignore[no-untyped-def]
        existing = self._families.get(family.name)
        if existing is None:
            self._families[family.name] = family
            return family
        if (
            type(existing) is not type(family)
            or existing.label_names != family.label_names
            or existing.unit != family.unit
            or getattr(existing, "buckets", None) != getattr(family, "buckets", None)
        ):
            raise TelemetryError(
                f"metric {family.name!r} re-registered with a different schema "
                f"(kind/labels/unit/buckets must match the first declaration)"
            )
        return existing

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, name: str) -> MetricFamily[Counter] | MetricFamily[Gauge] | MetricFamily[Histogram] | None:
        """The family registered under ``name``, or ``None``."""
        return self._families.get(name)

    def families(
        self,
    ) -> tuple[MetricFamily[Counter] | MetricFamily[Gauge] | MetricFamily[Histogram], ...]:
        """All families, sorted by name (the canonical export order)."""
        return tuple(family for _, family in sorted(self._families.items()))

    def __len__(self) -> int:
        return len(self._families)

    def series_count(self) -> int:
        """Series across every family (no sort: the count has no order)."""
        return sum(len(family) for family in self._families.values())

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def capture(self, now: float) -> None:
        """Append every series' current value to its ring, stamped ``now``.

        ``now`` is simulated time supplied by the caller (normally the
        telemetry sampling actor) — this module never reads a clock.
        """
        if now < self.last_capture:
            raise TelemetryError(
                f"capture at t={now} after t={self.last_capture}: time must not go backwards"
            )
        self.last_capture = now
        limit = self.retention
        for family in self._families.values():
            for _, child in family.children():
                history = child.history
                if isinstance(child, Histogram):
                    history.append((now, child.count, child.sum))
                else:
                    history.append((now, child.value))
                while len(history) > limit:
                    history.popleft()
