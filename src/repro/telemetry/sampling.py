"""Adaptive sampling: decide *which nodes* the telemetry actor collects.

At fleet scale the per-interval pull pass (every node, every container —
see :meth:`repro.telemetry.RunTelemetry.sample`) is the observer's hot
loop.  A :class:`SamplingController` sits in front of it and decides,
node by node and deterministically, whether this pass collects fresh
values or keeps the last-known ones:

* ``full`` — every node, every pass: byte-identical to the pre-sampling
  telemetry layer, and the default everywhere.
* ``adaptive`` — full cadence for nodes whose utilization sits inside a
  guard band (:data:`GUARD_BAND`) around the scaling thresholds, or with
  recent OOM/boot/scale activity; exponentially decayed cadence (x2 per
  quiet observation, capped at :data:`MAX_BACKOFF`) elsewhere.
* ``threshold-aware`` — ``adaptive`` whose guard-band edges are derived
  from the deployed services' declared ``target_utilization`` instead of
  fixed bounds, so the controller watches exactly where the autoscaling
  policies make decisions.

Skipped nodes keep **last-known values**: their gauges are not rewritten,
and ``capture`` re-records the stale value, so every series stays dense.
Staleness is *bounded*: a node is re-collected after at most
:data:`MAX_BACKOFF` sampling intervals (:meth:`SamplingController.max_staleness`
reports the bound).  Activity hotness is *targeted*: a node that showed
boot/stop/OOM churn keeps full cadence for :data:`HOT_SECONDS` (an applied
scale action surfaces as churn on the affected node within the staleness
bound), and an OOM kill — rare and correctness-critical — additionally
forces one fleet-wide sweep so the reaped container's node is rediscovered
immediately rather than at its next due pass.

Every pass is charged to a :class:`~repro.telemetry.cost.MonitorBudget`
at the prices in :mod:`repro.telemetry.cost`, so the observer's cost is a
simulated quantity ``run --sampling`` reports and policies can be
compared on.  Decisions are pure functions of simulated state — no
clocks, no randomness — so sampled runs stay byte-deterministic.

The three policies sit in a :class:`~repro.names.NameRegistry`, the
table type every name kind uses: :func:`registered_sampling_policies`
lists them and :func:`resolve_sampling` (the one coercion point behind
every API accepting a policy name) builds a fresh controller by name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import TelemetryError
from repro.names import NameRegistry
from repro.telemetry.cost import MonitorBudget

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.cluster.cluster import Cluster
    from repro.telemetry.registry import MetricRegistry

#: A node whose cpu/mem/net utilization is within this distance of a
#: threshold edge keeps full cadence.
GUARD_BAND = 0.1
#: The fixed threshold edges ``adaptive`` watches (``threshold-aware``
#: derives its edges from the fleet instead).
HOT_LOW = 0.2
HOT_HIGH = 0.8
#: Cadence decays x2 per quiet observation up to this multiplier of the
#: sampling interval (the staleness bound).
MAX_BACKOFF = 8
#: How long boot/stop/OOM churn keeps the affected node at full cadence.
HOT_SECONDS = 10.0


class SamplingController:
    """The ``full`` controller: collect everything, every pass.

    Also the base class for the decaying controllers — the shared parts
    are the cost ledger, the activity window, and the instrument
    publishing; subclasses override :meth:`node_due` and the hotness
    decision.  One controller instance belongs to one run (it carries
    per-node cadence state), so ``Simulation.build`` resolves a fresh one
    per simulation.
    """

    #: Registry name (overridden by subclasses).
    name = "full"
    #: Whether this controller mints ``monitoring_*`` families.  ``full``
    #: does not: the default export byte-layout must match a build that
    #: never heard of sampling.
    exports_metrics = False

    def __init__(self) -> None:
        self.budget = MonitorBudget()
        self._registry: "MetricRegistry | None" = None
        self._sample_every = 5.0
        #: Simulated time each node was last freshly collected.
        self._last_observed: dict[str, float] = {}
        #: ``True`` while the current pass is a forced fleet-wide sweep.
        self._sweep = False
        self._prev_ooms = 0.0
        self._max_stale = 0.0
        self._published = MonitorBudget()
        self._instruments: dict[str, object] | None = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(
        self,
        *,
        cluster: "Cluster",
        registry: "MetricRegistry",
        sample_every: float,
    ) -> None:
        """Attach the run's data sources (called once by the hub)."""
        _ = cluster
        self._registry = registry
        self._sample_every = sample_every
        if self.exports_metrics:
            cost = registry.counter(
                "monitoring_collection_cost_seconds",
                "Simulated collector CPU charged by the observation-cost model.",
                unit="seconds",
            )
            observed = registry.counter(
                "monitoring_nodes_observed", "Nodes freshly collected by the sampler."
            )
            skipped = registry.counter(
                "monitoring_nodes_skipped",
                "Node collection passes skipped (last-known values kept).",
            )
            containers = registry.counter(
                "monitoring_containers_observed",
                "Active containers touched by fresh collection passes.",
            )
            series = registry.counter(
                "monitoring_series_captured", "Series points written into retention."
            )
            stale = registry.gauge(
                "monitoring_staleness_seconds_max",
                "Oldest last-known value served in the latest sampling pass.",
                unit="seconds",
            )
            # Mint the children now so the series set is fixed from the
            # first capture (deterministic export layout).
            self._instruments = {
                "cost": cost.labels(),
                "nodes_observed": observed.labels(),
                "nodes_skipped": skipped.labels(),
                "containers": containers.labels(),
                "series": series.labels(),
                "staleness": stale.labels(),
            }

    # ------------------------------------------------------------------
    # Per-pass protocol (driven by RunTelemetry.sample)
    # ------------------------------------------------------------------
    def begin_sample(self, now: float, *, oom_kills: float, actions_applied: float) -> None:
        """Open one sampling pass; an OOM kill forces a fleet-wide sweep.

        Applied scale actions deliberately do *not* force a sweep — the
        affected nodes surface as churn within the staleness bound, and a
        busy autoscaler would otherwise pin the whole fleet at full
        cadence.  OOM kills are rare and correctness-critical, so they
        re-sync every node immediately.
        """
        _ = now, actions_applied
        self._sweep = oom_kills > self._prev_ooms
        self._prev_ooms = oom_kills
        self._max_stale = 0.0

    def node_due(self, node: str, now: float) -> bool:
        """Should this pass freshly collect ``node``?  ``full``: always."""
        _ = node, now
        return True

    def observe_node(
        self,
        node: str,
        now: float,
        *,
        cpu: float,
        memory: float,
        network: float,
        containers: int,
        churn: int,
    ) -> None:
        """Account one fresh collection and update the node's cadence."""
        _ = cpu, memory, network, churn
        self.budget.charge_node(containers)
        self._last_observed[node] = now

    def skip_node(self, node: str, now: float) -> None:
        """Account one skipped node; its series keep last-known values."""
        self.budget.charge_skip()
        stale = now - self._last_observed.get(node, now)
        if stale > self._max_stale:
            self._max_stale = stale

    def finish_sample(self, now: float) -> None:
        """Close the pass: charge the capture, publish cost instruments."""
        _ = now
        registry = self._registry
        series = 0
        if registry is not None:
            series = registry.series_count()
        budget = self.budget
        budget.charge_capture(series)
        published = self._published
        cost_delta = budget.collection_cost_seconds - published.collection_cost_seconds
        observed_delta = budget.nodes_observed - published.nodes_observed
        skipped_delta = budget.nodes_skipped - published.nodes_skipped
        containers_delta = budget.containers_observed - published.containers_observed
        series_delta = budget.series_captured - published.series_captured
        published.collection_cost_seconds = budget.collection_cost_seconds
        published.nodes_observed = budget.nodes_observed
        published.nodes_skipped = budget.nodes_skipped
        published.containers_observed = budget.containers_observed
        published.series_captured = budget.series_captured
        if self._instruments is not None:
            self._instruments["cost"].inc(cost_delta)  # type: ignore[attr-defined]
            self._instruments["nodes_observed"].inc(observed_delta)  # type: ignore[attr-defined]
            self._instruments["nodes_skipped"].inc(skipped_delta)  # type: ignore[attr-defined]
            self._instruments["containers"].inc(containers_delta)  # type: ignore[attr-defined]
            self._instruments["series"].inc(series_delta)  # type: ignore[attr-defined]
            self._instruments["staleness"].set(self._max_stale)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def max_staleness(self) -> float:
        """Upper bound on how old a served last-known value can be."""
        return MAX_BACKOFF * self._sample_every

    def last_pass_staleness(self) -> float:
        """Oldest last-known value actually served in the latest pass."""
        return self._max_stale


class AdaptiveSamplingController(SamplingController):
    """Guard-band adaptive cadence with exponential decay (``adaptive``)."""

    name = "adaptive"
    exports_metrics = True

    def __init__(self) -> None:
        super().__init__()
        #: Current cadence multiplier per node (1 = every pass).
        self._interval: dict[str, int] = {}
        #: Simulated time each node's next fresh collection is due.
        self._due: dict[str, float] = {}
        #: Per-node activity window: churn keeps full cadence until then.
        self._node_hot: dict[str, float] = {}
        self._edges: tuple[float, ...] = (HOT_LOW, HOT_HIGH)

    def node_due(self, node: str, now: float) -> bool:
        if self._sweep:
            return True
        return now + 1e-9 >= self._due.get(node, 0.0)

    def _hot(self, node: str, now: float, cpu: float, memory: float, network: float, churn: int) -> bool:
        if churn:
            self._node_hot[node] = now + HOT_SECONDS
            return True
        if now < self._node_hot.get(node, -1.0):
            return True
        edges = self._edges
        if not edges:
            return True
        band = GUARD_BAND
        ceiling = edges[-1] - band
        for value in (cpu, memory, network):
            if value >= ceiling:
                return True
            for edge in edges:
                if abs(value - edge) <= band:
                    return True
        return False

    def observe_node(
        self,
        node: str,
        now: float,
        *,
        cpu: float,
        memory: float,
        network: float,
        containers: int,
        churn: int,
    ) -> None:
        self.budget.charge_node(containers)
        self._last_observed[node] = now
        if self._hot(node, now, cpu, memory, network, churn):
            interval = 1
        else:
            interval = min(self._interval.get(node, 1) * 2, MAX_BACKOFF)
        self._interval[node] = interval
        self._due[node] = now + interval * self._sample_every


class ThresholdAwareSamplingController(AdaptiveSamplingController):
    """``adaptive`` with edges read from the fleet's declared targets."""

    name = "threshold-aware"

    def bind(
        self,
        *,
        cluster: "Cluster",
        registry: "MetricRegistry",
        sample_every: float,
    ) -> None:
        super().bind(cluster=cluster, registry=registry, sample_every=sample_every)
        targets = sorted(
            {service.spec.target_utilization for service in cluster.services.values()}
        )
        if targets:
            self._edges = tuple(targets)


# ----------------------------------------------------------------------
# The name registry
# ----------------------------------------------------------------------
_SAMPLINGS: NameRegistry[type[SamplingController]] = NameRegistry(
    "sampling policy",
    TelemetryError,
    callable,
    "a controller class",
    {
        "full": SamplingController,
        "adaptive": AdaptiveSamplingController,
        "threshold-aware": ThresholdAwareSamplingController,
    },
)


def registered_sampling_policies() -> tuple[str, ...]:
    """Every resolvable sampling-policy name, sorted."""
    return _SAMPLINGS.names()


def resolve_sampling(sampling: str | None) -> SamplingController:
    """A fresh controller for one run (the one coercion point).

    ``sampling`` is a registered policy name; ``None`` means ``full``,
    whose runs are byte-identical to builds that never passed
    ``sampling`` at all.
    """
    if sampling is None:
        return SamplingController()
    if not isinstance(sampling, str):
        raise TelemetryError(
            f"expected a sampling-policy name, got {type(sampling).__name__}"
        )
    return _SAMPLINGS.resolve(sampling)()
