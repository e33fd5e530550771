"""Adaptive sampling: decide *which nodes* the telemetry actor collects.

At fleet scale the per-interval pull pass (every node, every container —
see :meth:`repro.telemetry.RunTelemetry.sample`) is the observer's hot
loop.  A :class:`SamplingController` sits in front of it and decides,
node by node and deterministically, whether this pass collects fresh
values or keeps the last-known ones:

* ``full`` — every node, every pass: byte-identical to the pre-sampling
  telemetry layer, and the default everywhere.
* ``adaptive`` — full cadence for nodes whose utilization sits inside a
  configurable guard band around the scaling thresholds, or with recent
  OOM/boot/scale activity; exponentially decayed cadence (x2 per quiet
  observation, capped at ``max_backoff``) elsewhere.
* ``threshold-aware`` — ``adaptive`` whose guard-band edges are derived
  from the deployed services' declared ``target_utilization`` instead of
  fixed bounds, so the controller watches exactly where the autoscaling
  policies make decisions.

Skipped nodes keep **last-known values**: their gauges are not rewritten,
and ``capture`` re-records the stale value, so every series stays dense.
Staleness is *bounded*: a node is re-collected after at most
``max_backoff`` sampling intervals (:meth:`SamplingController.max_staleness`
reports the bound).  Activity hotness is *targeted*: a node that showed
boot/stop/OOM churn keeps full cadence for ``hot_seconds`` (an applied
scale action surfaces as churn on the affected node within the staleness
bound), and an OOM kill — rare and correctness-critical — additionally
forces one fleet-wide sweep so the reaped container's node is rediscovered
immediately rather than at its next due pass.

Every pass is charged to a :class:`~repro.telemetry.cost.MonitorBudget`
using an :class:`~repro.telemetry.cost.ObservationCostModel`, so the
observer's cost is a simulated quantity the scale bench can compare
across policies.  Decisions are pure functions of simulated state — no
clocks, no randomness — so sampled runs stay byte-deterministic.

Policies are pluggable behind a :class:`~repro.names.NameRegistry`, the
table type every name kind uses: :func:`registered_sampling_policies`,
:func:`register_sampling_policy`, and :func:`resolve_sampling` (the one
coercion point behind every API accepting a policy name).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from repro.errors import TelemetryError
from repro.names import NameRegistry
from repro.telemetry.cost import DEFAULT_COST_MODEL, MonitorBudget, ObservationCostModel

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.cluster.cluster import Cluster
    from repro.obs.profiler import PhaseProfiler
    from repro.telemetry.registry import MetricRegistry


@dataclass(frozen=True)
class SamplingSpec:
    """Declarative sampling configuration (frozen, shareable).

    ``policy`` names the controller (see
    :func:`registered_sampling_policies`); the remaining knobs tune the
    decaying controllers and are ignored by ``full``:

    * ``guard_band`` — a node whose cpu/mem/net utilization is within
      this distance of a threshold edge keeps full cadence;
    * ``hot_low`` / ``hot_high`` — the fixed threshold edges used by
      ``adaptive`` (``threshold-aware`` derives edges from the fleet);
    * ``max_backoff`` — cadence decays x2 per quiet observation up to
      this multiplier of the sampling interval (the staleness bound);
    * ``hot_seconds`` — how long boot/stop/OOM churn keeps the affected
      node at full cadence.
    """

    policy: str = "full"
    guard_band: float = 0.1
    hot_low: float = 0.2
    hot_high: float = 0.8
    max_backoff: int = 8
    hot_seconds: float = 10.0
    cost: ObservationCostModel = DEFAULT_COST_MODEL

    def __post_init__(self) -> None:
        if not 0.0 <= self.guard_band <= 1.0:
            raise TelemetryError(f"guard_band must be in [0, 1], got {self.guard_band}")
        if not 0.0 <= self.hot_low <= self.hot_high <= 1.0:
            raise TelemetryError(
                f"need 0 <= hot_low <= hot_high <= 1, got {self.hot_low}/{self.hot_high}"
            )
        if self.max_backoff < 1:
            raise TelemetryError(f"max_backoff must be >= 1, got {self.max_backoff}")
        if self.hot_seconds < 0:
            raise TelemetryError(f"hot_seconds must be >= 0, got {self.hot_seconds}")


class SamplingController:
    """The ``full`` controller: collect everything, every pass.

    Also the base class for the decaying controllers — the shared parts
    are the cost ledger, the activity window, and the instrument
    publishing; subclasses override :meth:`node_due` and the hotness
    decision.  One controller instance belongs to one run (it carries
    per-node cadence state), so ``Simulation.build`` resolves a fresh one
    per simulation.
    """

    #: Registry name (overridden by subclasses / set by factories).
    name = "full"
    #: Whether this controller mints ``monitoring_*`` families.  ``full``
    #: does not: the default export byte-layout must match a build that
    #: never heard of sampling.
    exports_metrics = False

    def __init__(self, spec: SamplingSpec | None = None) -> None:
        self.spec = spec if spec is not None else SamplingSpec(policy=self.name)
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
        self.budget.charge_node(self.spec.cost, containers)
        self._last_observed[node] = now

    def skip_node(self, node: str, now: float) -> None:
        """Account one skipped node; its series keep last-known values."""
        self.budget.charge_skip(self.spec.cost)
        stale = now - self._last_observed.get(node, now)
        if stale > self._max_stale:
            self._max_stale = stale

    def finish_sample(self, now: float, *, profiler: "PhaseProfiler | None" = None) -> None:
        """Close the pass: charge the capture, publish cost instruments."""
        _ = now
        registry = self._registry
        series = 0
        if registry is not None:
            series = sum(len(family) for family in registry.families())
        budget = self.budget
        budget.charge_capture(self.spec.cost, series)
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
        if profiler is not None:
            profiler.increment("telemetry.nodes_observed", observed_delta)
            profiler.increment("telemetry.nodes_skipped", skipped_delta)
            profiler.increment("telemetry.series_captured", series_delta)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def max_staleness(self) -> float:
        """Upper bound on how old a served last-known value can be."""
        return self.spec.max_backoff * self._sample_every

    def last_pass_staleness(self) -> float:
        """Oldest last-known value actually served in the latest pass."""
        return self._max_stale


class AdaptiveSamplingController(SamplingController):
    """Guard-band adaptive cadence with exponential decay (``adaptive``)."""

    name = "adaptive"
    exports_metrics = True

    def __init__(self, spec: SamplingSpec | None = None) -> None:
        super().__init__(spec if spec is not None else SamplingSpec(policy="adaptive"))
        #: Current cadence multiplier per node (1 = every pass).
        self._interval: dict[str, int] = {}
        #: Simulated time each node's next fresh collection is due.
        self._due: dict[str, float] = {}
        #: Per-node activity window: churn keeps full cadence until then.
        self._node_hot: dict[str, float] = {}
        self._edges: tuple[float, ...] = (self.spec.hot_low, self.spec.hot_high)

    def node_due(self, node: str, now: float) -> bool:
        if self._sweep:
            return True
        return now + 1e-9 >= self._due.get(node, 0.0)

    def _hot(self, node: str, now: float, cpu: float, memory: float, network: float, churn: int) -> bool:
        if churn:
            self._node_hot[node] = now + self.spec.hot_seconds
            return True
        if now < self._node_hot.get(node, -1.0):
            return True
        edges = self._edges
        if not edges:
            return True
        band = self.spec.guard_band
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
        self.budget.charge_node(self.spec.cost, containers)
        self._last_observed[node] = now
        if self._hot(node, now, cpu, memory, network, churn):
            interval = 1
        else:
            interval = min(self._interval.get(node, 1) * 2, self.spec.max_backoff)
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
#: A factory builds a fresh controller for one run from its spec.
SamplingFactory = Callable[[SamplingSpec], SamplingController]

_SAMPLINGS: NameRegistry[SamplingFactory] = NameRegistry(
    "sampling policy",
    TelemetryError,
    callable,
    "a controller factory (callable)",
    {
        "full": SamplingController,
        "adaptive": AdaptiveSamplingController,
        "threshold-aware": ThresholdAwareSamplingController,
    },
)


def registered_sampling_policies() -> tuple[str, ...]:
    """Every resolvable sampling-policy name, sorted."""
    return _SAMPLINGS.names()


def register_sampling_policy(
    name: str, factory: SamplingFactory, *, replace: bool = False
) -> None:
    """Add a sampling policy under ``name`` (see ``docs/telemetry.md``)."""
    _SAMPLINGS.register(name, factory, replace=replace)


def make_sampling(name: str, spec: SamplingSpec | None = None) -> SamplingController:
    """Build a fresh controller by name, configured by ``spec``."""
    factory = _SAMPLINGS.resolve(name)
    if spec is None:
        spec = SamplingSpec(policy=name)
    elif spec.policy != name:
        spec = replace(spec, policy=name)
    return factory(spec)


def resolve_sampling(
    sampling: "SamplingController | SamplingSpec | str | None",
) -> SamplingController:
    """Coerce ``sampling`` to a fresh controller (the one coercion point).

    ``None`` means the legacy default: a ``full`` controller whose runs
    are byte-identical to builds that never passed ``sampling`` at all.
    Controller instances pass through untouched (they carry per-run
    state, so reusing one across runs is the caller's responsibility).
    """
    if sampling is None:
        return SamplingController()
    if isinstance(sampling, SamplingController):
        return sampling
    if isinstance(sampling, SamplingSpec):
        return make_sampling(sampling.policy, sampling)
    if isinstance(sampling, str):
        return make_sampling(sampling)
    raise TelemetryError(
        f"expected a SamplingController, SamplingSpec, or policy name, "
        f"got {type(sampling).__name__}"
    )
