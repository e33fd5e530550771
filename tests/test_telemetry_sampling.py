"""Tests for the scalable-monitoring layer (``repro.telemetry.sampling``).

Covers the observation-cost model and its budget ledger, the sampling
policy names, the decay/hotness/staleness semantics of the adaptive
controllers, and the contract the defaults must keep: ``full`` sampling
is byte-identical to a build that never heard of sampling, and sampling
never perturbs the simulated run — up to 200 nodes, where ``adaptive``
must also collect at least 5x cheaper than ``full``.  The nine-policy pin
at 24 nodes lives in ``tests/test_determinism_end_to_end.py``.
"""

from types import SimpleNamespace

import pytest

from repro.cluster import MicroserviceSpec
from repro.cluster.node import Node
from repro.cluster.placement import PlacementStrategy
from repro.cluster.resources import ResourceVector
from repro.config import ClusterConfig, SimulationConfig
from repro.core.hyscale_mem import HyScaleCpuMem
from repro.errors import ExperimentError, TelemetryError
from repro.experiments.runner import Simulation
from repro.instrument import Observe
from repro.telemetry import (
    AdaptiveSamplingController,
    MetricRegistry,
    MonitorBudget,
    SamplingController,
    ThresholdAwareSamplingController,
    registered_sampling_policies,
    render_openmetrics,
    resolve_sampling,
    snapshot_to_jsonl,
)
from repro.telemetry.cost import (
    PER_CAPTURE_SECONDS,
    PER_CONTAINER_SECONDS,
    PER_NODE_SECONDS,
    PER_SERIES_SECONDS,
    PER_SKIP_SECONDS,
)
from repro.telemetry.sampling import HOT_HIGH, HOT_LOW, MAX_BACKOFF
from repro.workloads import CPU_BOUND, HighBurstLoad, ServiceLoad


class TestObservationCostModel:
    def test_node_cost_is_linear_in_containers(self):
        empty, busy = MonitorBudget(), MonitorBudget()
        empty.charge_node(containers=0)
        busy.charge_node(containers=4)
        assert empty.collection_cost_seconds == pytest.approx(PER_NODE_SECONDS)
        assert busy.collection_cost_seconds == pytest.approx(
            PER_NODE_SECONDS + 4 * PER_CONTAINER_SECONDS
        )

    def test_capture_cost_is_linear_in_series(self):
        empty, busy = MonitorBudget(), MonitorBudget()
        empty.charge_capture(series=0)
        busy.charge_capture(series=8)
        assert empty.collection_cost_seconds == pytest.approx(PER_CAPTURE_SECONDS)
        assert busy.collection_cost_seconds == pytest.approx(
            PER_CAPTURE_SECONDS + 8 * PER_SERIES_SECONDS
        )


class TestMonitorBudget:
    def test_ledger_accumulates(self):
        budget = MonitorBudget()
        budget.charge_node(containers=3)
        budget.charge_node(containers=5)
        budget.charge_skip()
        budget.charge_capture(series=10)
        assert budget.nodes_observed == 2
        assert budget.containers_observed == 8
        assert budget.nodes_skipped == 1
        assert budget.captures == 1
        assert budget.series_captured == 10
        expected = (
            2 * PER_NODE_SECONDS
            + 8 * PER_CONTAINER_SECONDS
            + PER_SKIP_SECONDS
            + PER_CAPTURE_SECONDS
            + 10 * PER_SERIES_SECONDS
        )
        assert budget.collection_cost_seconds == pytest.approx(expected)


class TestPolicyRegistry:
    def test_builtin_policies_registered_sorted(self):
        names = registered_sampling_policies()
        assert names == tuple(sorted(names))
        assert {"full", "adaptive", "threshold-aware"} <= set(names)

    def test_resolve_unknown_name_raises(self):
        with pytest.raises(TelemetryError, match="unknown sampling policy"):
            resolve_sampling("psychic")

    def test_resolve_none_is_full(self):
        controller = resolve_sampling(None)
        assert type(controller) is SamplingController
        assert controller.exports_metrics is False

    def test_resolve_builds_a_fresh_controller_per_name(self):
        assert type(resolve_sampling("adaptive")) is AdaptiveSamplingController
        aware = resolve_sampling("threshold-aware")
        assert isinstance(aware, ThresholdAwareSamplingController)
        assert resolve_sampling("threshold-aware") is not aware

    def test_resolve_rejects_other_types(self):
        with pytest.raises(TelemetryError):
            resolve_sampling(42)  # type: ignore[arg-type]
        with pytest.raises(TelemetryError):
            resolve_sampling(AdaptiveSamplingController())  # type: ignore[arg-type]


#: Utilization far from the default (0.2, 0.8) edges and their guard band.
COLD = dict(cpu=0.5, memory=0.5, network=0.5)


def _observe(controller, node, now, *, churn=0, containers=1, **values):
    merged = {**COLD, **values}
    controller.observe_node(
        node, now, containers=containers, churn=churn, **merged
    )


class TestAdaptiveController:
    def test_quiet_node_cadence_decays_exponentially(self):
        controller = AdaptiveSamplingController()
        now = 0.0
        intervals = []
        for _ in range(6):
            assert controller.node_due("n0", now)
            _observe(controller, "n0", now)
            interval = controller._interval["n0"]
            intervals.append(interval)
            now = controller._due["n0"]
        # x2 per quiet observation, capped at MAX_BACKOFF.
        assert MAX_BACKOFF == 8
        assert intervals == [2, 4, 8, 8, 8, 8]

    def test_not_due_between_collections(self):
        controller = AdaptiveSamplingController()
        _observe(controller, "n0", 0.0)  # quiet: next due at 2 * sample_every
        assert not controller.node_due("n0", 5.0)
        assert controller.node_due("n0", 10.0)

    def test_guard_band_keeps_full_cadence(self):
        controller = AdaptiveSamplingController()
        _observe(controller, "n0", 0.0, cpu=0.78)  # within 0.1 of the 0.8 edge
        assert controller._interval["n0"] == 1
        _observe(controller, "n1", 0.0, memory=0.25)  # within 0.1 of the 0.2 edge
        assert controller._interval["n1"] == 1

    def test_above_ceiling_is_always_hot(self):
        controller = AdaptiveSamplingController()
        _observe(controller, "n0", 0.0, network=0.95)
        assert controller._interval["n0"] == 1

    def test_churn_opens_a_per_node_hot_window(self):
        controller = AdaptiveSamplingController()  # HOT_SECONDS = 10
        _observe(controller, "n0", 0.0, churn=2)
        assert controller._interval["n0"] == 1
        # Still inside the window: cold values, yet full cadence holds.
        _observe(controller, "n0", 5.0)
        assert controller._interval["n0"] == 1
        # Window lapsed: the node starts decaying again.
        _observe(controller, "n0", 11.0)
        assert controller._interval["n0"] == 2
        # Other nodes never saw the churn and decay independently.
        _observe(controller, "n1", 5.0)
        assert controller._interval["n1"] == 2

    def test_oom_kill_forces_a_fleet_wide_sweep(self):
        controller = AdaptiveSamplingController()
        _observe(controller, "n0", 0.0)  # quiet: not due again until t=10
        controller.begin_sample(5.0, oom_kills=1.0, actions_applied=0.0)
        assert controller.node_due("n0", 5.0)
        # The sweep is one pass only: the same counter value next pass
        # does not re-trigger it.
        controller.begin_sample(7.0, oom_kills=1.0, actions_applied=0.0)
        assert not controller.node_due("n0", 7.0)

    def test_scale_actions_do_not_force_a_sweep(self):
        # A busy autoscaler applies actions nearly every pass; pinning the
        # whole fleet on them would degenerate to full cadence.
        controller = AdaptiveSamplingController()
        _observe(controller, "n0", 0.0)
        controller.begin_sample(5.0, oom_kills=0.0, actions_applied=3.0)
        assert not controller.node_due("n0", 5.0)

    def test_skipped_nodes_report_bounded_staleness(self):
        controller = AdaptiveSamplingController()
        assert controller.max_staleness() == pytest.approx(MAX_BACKOFF * 5.0)
        _observe(controller, "n0", 0.0)
        controller.begin_sample(8.0, oom_kills=0.0, actions_applied=0.0)
        controller.skip_node("n0", 8.0)
        assert controller.last_pass_staleness() == pytest.approx(8.0)

    def test_skips_are_charged_to_the_budget(self):
        controller = AdaptiveSamplingController()
        controller.skip_node("n0", 5.0)
        assert controller.budget.nodes_skipped == 1
        assert controller.budget.collection_cost_seconds == pytest.approx(PER_SKIP_SECONDS)


def _fake_cluster(*targets: float) -> SimpleNamespace:
    services = {
        f"svc-{i}": SimpleNamespace(spec=SimpleNamespace(target_utilization=t))
        for i, t in enumerate(targets)
    }
    return SimpleNamespace(services=services)


class TestThresholdAwareController:
    def test_edges_come_from_the_fleet(self):
        controller = ThresholdAwareSamplingController()
        controller.bind(
            cluster=_fake_cluster(0.7, 0.5, 0.7),
            registry=MetricRegistry(),
            sample_every=5.0,
        )
        assert controller._edges == (0.5, 0.7)

    def test_empty_fleet_keeps_the_spec_edges(self):
        controller = ThresholdAwareSamplingController()
        controller.bind(cluster=_fake_cluster(), registry=MetricRegistry(), sample_every=5.0)
        assert controller._edges == (HOT_LOW, HOT_HIGH)


class TestInstrumentExports:
    def test_full_controller_mints_no_monitoring_families(self):
        registry = MetricRegistry()
        controller = SamplingController()
        controller.bind(cluster=_fake_cluster(0.5), registry=registry, sample_every=5.0)
        assert len(registry) == 0

    def test_adaptive_controller_mints_cost_families(self):
        registry = MetricRegistry()
        controller = AdaptiveSamplingController()
        controller.bind(cluster=_fake_cluster(0.5), registry=registry, sample_every=5.0)
        names = {family.name for family in registry.families()}
        assert "monitoring_collection_cost_seconds" in names
        assert "monitoring_nodes_observed" in names
        assert "monitoring_staleness_seconds_max" in names

    def test_finish_sample_publishes_budget_deltas(self):
        registry = MetricRegistry()
        controller = AdaptiveSamplingController()
        controller.bind(cluster=_fake_cluster(0.5), registry=registry, sample_every=5.0)
        controller.begin_sample(0.0, oom_kills=0.0, actions_applied=0.0)
        _observe(controller, "n0", 0.0, containers=3)
        controller.skip_node("n1", 0.0)
        controller.finish_sample(0.0)
        observed = registry.get("monitoring_nodes_observed").labels()
        skipped = registry.get("monitoring_nodes_skipped").labels()
        containers = registry.get("monitoring_containers_observed").labels()
        assert observed.value == 1.0
        assert skipped.value == 1.0
        assert containers.value == 3.0
        # Deltas, not totals: a second pass adds only its own work.
        controller.begin_sample(5.0, oom_kills=0.0, actions_applied=0.0)
        _observe(controller, "n1", 5.0, containers=2)
        controller.finish_sample(5.0)
        assert observed.value == 2.0
        assert containers.value == 5.0


def _fresh_simulation(seed: int, **observe) -> Simulation:
    """A small busy run, mirroring the determinism-suite probe."""
    config = SimulationConfig(cluster=ClusterConfig(worker_nodes=4), seed=seed)
    specs = [
        MicroserviceSpec(
            name=f"svc-{i}", cpu_request=0.5, mem_limit=512.0, net_rate=50.0, max_replicas=8
        )
        for i in range(2)
    ]
    loads = [
        ServiceLoad(
            service=spec.name,
            profile=CPU_BOUND,
            pattern=HighBurstLoad(base=4.0, peak=14.0, period=40.0, duty=0.4),
        )
        for spec in specs
    ]
    return Simulation.build(
        config=config,
        specs=specs,
        loads=loads,
        policy=HyScaleCpuMem(),
        workload_label="sampling-probe",
        observe=Observe(**observe),
    )


def _exports(simulation: Simulation, registry: MetricRegistry) -> tuple[str, str]:
    now = simulation.engine.clock.now
    return render_openmetrics(registry), snapshot_to_jsonl(registry, now=now)


class TestEndToEndContracts:
    def test_sampling_requires_a_recording_registry(self):
        with pytest.raises(ExperimentError, match="recording telemetry registry"):
            _fresh_simulation(7, sampling="adaptive")

    def test_full_sampling_is_byte_identical_to_the_default_build(self):
        default_registry = MetricRegistry()
        default = _fresh_simulation(7, telemetry=default_registry)
        default_summary = default.run(60.0).to_dict()

        full_registry = MetricRegistry()
        full = _fresh_simulation(7, telemetry=full_registry, sampling="full")
        full_summary = full.run(60.0).to_dict()

        assert full_summary == default_summary
        assert _exports(full, full_registry) == _exports(default, default_registry)

    def test_adaptive_sampling_does_not_perturb_the_run(self):
        bare = _fresh_simulation(7)
        bare_summary = bare.run(60.0).to_dict()
        bare_events = list(bare.collector.events.events())

        sampled = _fresh_simulation(7, telemetry=MetricRegistry(), sampling="adaptive")
        sampled_summary = sampled.run(60.0).to_dict()
        sampled_events = list(sampled.collector.events.events())

        assert sampled_summary == bare_summary
        assert sampled_events == bare_events

    def test_adaptive_run_exports_monitoring_families_and_charges_budget(self):
        registry = MetricRegistry()
        simulation = _fresh_simulation(7, telemetry=registry, sampling="adaptive")
        simulation.run(60.0)
        controller = simulation.telemetry.sampling
        assert isinstance(controller, AdaptiveSamplingController)
        budget = controller.budget
        assert budget.captures > 0
        assert budget.nodes_observed > 0
        assert budget.collection_cost_seconds > 0.0
        text = render_openmetrics(registry)
        assert "monitoring_collection_cost_seconds" in text
        assert "monitoring_nodes_skipped" in text

    def test_full_run_keeps_the_legacy_export_namespace(self):
        registry = MetricRegistry()
        simulation = _fresh_simulation(7, telemetry=registry, sampling="full")
        simulation.run(60.0)
        # The ledger still exists (comparable across policies)...
        assert simulation.telemetry.sampling.budget.captures > 0
        # ...but no monitoring_* series leak into the default export.
        assert "monitoring_" not in render_openmetrics(registry)


# ----------------------------------------------------------------------
# Scaling the observer: one hot service on a sea of quiet fill replicas
# ----------------------------------------------------------------------
class _RoundRobinPlacement(PlacementStrategy):
    """O(1)-amortized deterministic spread: first fit from a moving cursor."""

    def __init__(self) -> None:
        self._cursor = 0

    def choose(
        self,
        nodes: list[Node],
        request: ResourceVector,
        *,
        exclude_service: str | None = None,
    ) -> Node | None:
        count = len(nodes)
        for probe in range(count):
            node = nodes[(self._cursor + probe) % count]
            if node.can_fit(request):
                self._cursor = (self._cursor + probe + 1) % count
                return node
        return None

    def rank(self, candidates: list[Node], request: ResourceVector) -> Node:
        return candidates[0]


def _fleet_simulation(policy: str, nodes: int, fill_services: int, replicas: int) -> Simulation:
    """~18 idle fill containers per node put every fill node at cpu ~0.09 /
    memory ~0.33, outside the default guard band on every axis, so the
    quiet majority is observably quiet and the decaying policies back off."""
    specs = [
        MicroserviceSpec(
            name="hot", cpu_request=0.5, mem_limit=512.0, net_rate=50.0, max_replicas=16
        )
    ]
    specs += [
        MicroserviceSpec(
            name=f"fill-{i:03d}",
            cpu_request=0.05,
            mem_limit=128.0,
            net_rate=1.0,
            min_replicas=replicas,
            max_replicas=replicas,
        )
        for i in range(fill_services)
    ]
    loads = [
        ServiceLoad(
            service="hot",
            profile=CPU_BOUND,
            pattern=HighBurstLoad(base=4.0, peak=14.0, period=40.0, duty=0.4),
        )
    ]
    return Simulation.build(
        config=SimulationConfig(cluster=ClusterConfig(worker_nodes=nodes), seed=7),
        specs=specs,
        loads=loads,
        policy="hybrid",
        workload_label="observer-at-scale",
        placement=_RoundRobinPlacement(),
        timeline_every=2.0,
        observe=Observe(telemetry=MetricRegistry(), sampling=policy),
    )


class TestObserverAtScale:
    """Sampling policies never change the run, and ``adaptive`` collects
    the fleet at least 5x cheaper than ``full`` once it is big enough
    for the quiet majority to matter (docs/telemetry.md)."""

    WARMUP = 30.0  # boots finish, churn windows lapse, quiet nodes decay
    WINDOW = 60.0

    def _run(self, policy: str, shape: tuple[int, int, int]) -> tuple[dict, list, float]:
        simulation = _fleet_simulation(policy, *shape)
        simulation.run(self.WARMUP)
        budget = simulation.telemetry.sampling.budget
        warm_cost = budget.collection_cost_seconds
        summary = simulation.run(self.WINDOW)
        events = list(simulation.collector.events.events())
        return summary.to_dict(), events, budget.collection_cost_seconds - warm_cost

    @pytest.mark.parametrize(
        "shape", [(24, 12, 36), (200, 20, 180)], ids=["24-nodes", "200-nodes"]
    )
    def test_policies_agree_and_adaptive_collects_cheaper(self, shape):
        summary, events, full_cost = self._run("full", shape)
        costs = {}
        for policy in ("adaptive", "threshold-aware"):
            sampled_summary, sampled_events, costs[policy] = self._run(policy, shape)
            assert sampled_summary == summary, policy
            assert sampled_events == events, policy
        if shape[0] >= 200:
            assert full_cost / costs["adaptive"] >= 5.0, (full_cost, costs)
