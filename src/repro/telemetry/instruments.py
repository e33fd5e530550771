"""Metric instruments: counters, gauges, and fixed-bucket histograms.

Three instrument kinds, deliberately mirroring the OpenMetrics data model so
the exposition layer (:mod:`repro.telemetry.openmetrics`) is a straight
rendering pass:

* :class:`Counter` — monotone accumulation (requests routed, actions applied).
* :class:`Gauge` — last-written value (backlog depth, per-node utilization).
* :class:`Histogram` — fixed, *declared* bucket bounds.  Bounds are part of
  the instrument's identity and never adapt to the data, so two same-seed
  runs bucket identically and snapshots are byte-reproducible.

Instruments are grouped into *families* (one per metric name); a family with
declared label names hands out one child instrument per label-value tuple.
Children are plain mutable objects with ``__slots__`` — the hot path is an
attribute add, nothing more.

Timestamps never originate here: series history is only written by
:meth:`repro.telemetry.MetricRegistry.capture`, which is handed the *sim*
clock's ``now`` by the caller.  Wall-clock reads inside this package are
forbidden outright (lint rule OBS001).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Generic, Iterator, Sequence, TypeVar

from repro.errors import TelemetryError

#: Resolved label values of one child, in the family's declared name order.
LabelValues = tuple[str, ...]

#: Default response-time bucket bounds (seconds).  Chosen to straddle the
#: paper's SLA targets (5 s default, 8 s in the cost experiments) and the
#: 30 s client timeout that turns a slow request into a connection failure.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value", "history")

    def __init__(self) -> None:
        self.value = 0.0
        #: Ring of ``(time, value)`` capture points (see ``MetricRegistry.capture``).
        self.history: deque[tuple[float, float]] = deque()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0: counters never go down)."""
        if amount < 0:
            raise TelemetryError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def scalar(self) -> float:
        """The value captured into the series history."""
        return self.value


class Gauge:
    """A value that can go up and down; reads report the last write."""

    __slots__ = ("value", "history")

    def __init__(self) -> None:
        self.value = 0.0
        self.history: deque[tuple[float, float]] = deque()

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = value

    def add(self, delta: float) -> None:
        """Shift the gauge by ``delta`` (may be negative)."""
        self.value += delta

    def scalar(self) -> float:
        """The value captured into the series history."""
        return self.value


class Histogram:
    """Cumulative histogram over fixed, declared bucket bounds.

    ``bounds`` are the finite upper edges; an implicit ``+Inf`` bucket
    catches everything above the last bound.  ``counts[i]`` is the number of
    observations in ``(bounds[i-1], bounds[i]]`` — *non*-cumulative
    internally; the exporters accumulate at render time.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "history")

    def __init__(self, bounds: Sequence[float]) -> None:
        edges = tuple(float(b) for b in bounds)
        if not edges:
            raise TelemetryError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(edges, edges[1:])):
            raise TelemetryError(f"histogram bounds must strictly increase: {edges}")
        self.bounds = edges
        self.counts = [0] * (len(edges) + 1)  # +1: the +Inf bucket
        self.sum = 0.0
        self.count = 0
        #: Ring of ``(time, count, sum)`` capture points.
        self.history: deque[tuple[float, int, float]] = deque()

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> tuple[int, ...]:
        """Cumulative counts per bound, ending with the ``+Inf`` total."""
        out = []
        running = 0
        for count in self.counts:
            running += count
            out.append(running)
        return tuple(out)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile by linear interpolation within buckets.

        The estimate is exact at bucket edges and linear between them — the
        standard Prometheus ``histogram_quantile`` construction.  Values in
        the ``+Inf`` bucket are reported as the largest finite bound (the
        estimator cannot extrapolate past its declared range).  Returns 0.0
        for an empty histogram.
        """
        if not 0 <= q <= 1:
            raise TelemetryError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        running = 0.0
        lower = 0.0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                if index < len(self.bounds):
                    lower = self.bounds[index]
                continue
            if running + bucket_count >= rank:
                if index >= len(self.bounds):  # +Inf bucket: clamp
                    return self.bounds[-1]
                upper = self.bounds[index]
                fraction = (rank - running) / bucket_count
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
            running += bucket_count
            if index < len(self.bounds):
                lower = self.bounds[index]
        return self.bounds[-1]

    def scalar(self) -> tuple[int, float]:
        """``(count, sum)`` — the pair captured into the series history."""
        return (self.count, self.sum)


InstrumentT = TypeVar("InstrumentT", Counter, Gauge, Histogram)

#: Family name grammar (OpenMetrics metric-name subset).  The ``_total``
#: suffix is reserved: the exporter appends it to counter sample names, so a
#: family declared with it would double up.
_NAME_OK = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_")


def validate_metric_name(name: str) -> str:
    """Check a family name against the naming convention; returns it."""
    if not name or name[0] not in frozenset("abcdefghijklmnopqrstuvwxyz"):
        raise TelemetryError(f"metric name must start with a lowercase letter: {name!r}")
    if not set(name) <= _NAME_OK:
        raise TelemetryError(f"metric name may only use [a-z0-9_]: {name!r}")
    if name.endswith("_total"):
        raise TelemetryError(
            f"metric name must not end in '_total' (the exporter adds it): {name!r}"
        )
    return name


class MetricFamily(Generic[InstrumentT]):
    """All series of one metric name: metadata plus labelled children.

    Construction goes through :class:`~repro.telemetry.MetricRegistry`; the
    family keeps one child per label-value tuple, created on first use and
    iterated in sorted label order so exports are deterministic.
    """

    #: Overridden by the concrete family ("counter" / "gauge" / "histogram").
    kind = ""

    def __init__(
        self,
        name: str,
        help: str,
        *,
        unit: str = "",
        label_names: tuple[str, ...] = (),
    ) -> None:
        self.name = validate_metric_name(name)
        self.help = help
        self.unit = unit
        self.label_names = tuple(label_names)
        self._children: dict[LabelValues, InstrumentT] = {}

    # ------------------------------------------------------------------
    # Child resolution
    # ------------------------------------------------------------------
    def labels(self, *values: str, **named: str) -> InstrumentT:
        """The child instrument for one label-value assignment.

        Accepts either positional values in declared order or keyword
        arguments; the resolved child is cached, so hot paths should hold
        the returned handle rather than re-resolving every call.
        """
        resolved = self._resolve_values(values, named)
        child = self._children.get(resolved)
        if child is None:
            child = self._make()
            self._children[resolved] = child
        return child

    def _resolve_values(self, values: tuple, named: dict) -> LabelValues:
        """Validate one label-value assignment into canonical tuple form."""
        if named:
            if values:
                raise TelemetryError("pass label values positionally or by name, not both")
            try:
                values = tuple(str(named[name]) for name in self.label_names)
            except KeyError as exc:
                raise TelemetryError(
                    f"{self.name}: missing label {exc.args[0]!r} "
                    f"(declared: {', '.join(self.label_names) or 'none'})"
                ) from None
            if len(named) != len(self.label_names):
                extra = sorted(set(named) - set(self.label_names))
                raise TelemetryError(f"{self.name}: unknown labels {extra}")
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.label_names):
            raise TelemetryError(
                f"{self.name} declares {len(self.label_names)} label(s) "
                f"({', '.join(self.label_names) or 'none'}), got {len(values)} value(s)"
            )
        return values

    def _make(self) -> InstrumentT:
        raise NotImplementedError  # pragma: no cover - abstract

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def peek(self, *values: str) -> InstrumentT | None:
        """The child for ``values`` if it already exists — never creates.

        Read-only consumers (the ``top`` renderer) use this so rendering a
        frame cannot mint empty series into the registry.
        """
        return self._children.get(tuple(str(v) for v in values))

    def children(self) -> Iterator[tuple[LabelValues, InstrumentT]]:
        """``(label_values, instrument)`` pairs in sorted label order."""
        return iter(sorted(self._children.items()))

    def __len__(self) -> int:
        return len(self._children)


class CounterFamily(MetricFamily[Counter]):
    """Family of :class:`Counter` series."""

    kind = "counter"

    def _make(self) -> Counter:
        return Counter()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Convenience: resolve the child and increment in one call."""
        self.labels(**labels).inc(amount)


class GaugeFamily(MetricFamily[Gauge]):
    """Family of :class:`Gauge` series."""

    kind = "gauge"

    def _make(self) -> Gauge:
        return Gauge()

    def set(self, value: float, **labels: str) -> None:
        """Convenience: resolve the child and set in one call."""
        self.labels(**labels).set(value)


class HistogramFamily(MetricFamily[Histogram]):
    """Family of :class:`Histogram` series sharing one set of bucket bounds."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        *,
        unit: str = "",
        label_names: tuple[str, ...] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, unit=unit, label_names=label_names)
        #: Shared bucket bounds — fixed at declaration, identical across children.
        self.buckets = tuple(float(b) for b in buckets)
        Histogram(self.buckets)  # validate the bounds once, up front

    def _make(self) -> Histogram:
        return Histogram(self.buckets)

    def observe(self, value: float, **labels: str) -> None:
        """Convenience: resolve the child and observe in one call."""
        self.labels(**labels).observe(value)
