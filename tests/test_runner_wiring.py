"""Tests for the experiment runner's wiring (phase order, defaults)."""

import pytest

from repro import HyScaleCpu, Simulation, SimulationConfig
from repro.cluster import MicroserviceSpec
from repro.cluster.placement import BinPackPlacement
from repro.config import ClusterConfig
from repro.platform.load_balancer import RoutingPolicy
from repro.workloads import CPU_BOUND, ConstantLoad, ServiceLoad


def build(**kwargs):
    config = SimulationConfig(cluster=ClusterConfig(worker_nodes=3), seed=0)
    specs = [MicroserviceSpec(name="svc")]
    loads = [ServiceLoad("svc", CPU_BOUND, ConstantLoad(4.0))]
    return Simulation.build(
        config=config, specs=specs, loads=loads, policy=HyScaleCpu(), **kwargs
    )


class TestPhaseOrder:
    def test_actor_order_matches_design(self):
        """DESIGN.md §4 / runner docstring: faults -> arrivals -> routing ->
        compute -> sampling -> decisions -> metrics."""
        sim = build()
        assert sim.engine.actor_names == [
            "faults",
            "generator",
            "lb",
            "cluster",
            "node-managers",
            "monitor",
            "metrics",
        ]

    def test_monitor_runs_after_sampling(self):
        names = build().engine.actor_names
        assert names.index("node-managers") < names.index("monitor")

    def test_metrics_last(self):
        assert build().engine.actor_names[-1] == "metrics"


class TestDefaults:
    def test_default_routing_capacity_weighted(self):
        """Heterogeneous replica sizes (vertical scaling!) make plain
        round-robin pathological, so the platform defaults to
        capacity-weighted routing."""
        sim = build()
        assert sim.load_balancer.policy is RoutingPolicy.WEIGHTED_CPU

    def test_routing_override(self):
        sim = build(routing=RoutingPolicy.ROUND_ROBIN)
        assert sim.load_balancer.policy is RoutingPolicy.ROUND_ROBIN

    def test_placement_override_used_for_initial_deployment(self):
        sim = build(placement=BinPackPlacement())
        # BinPack stacks the initial replica deterministically on one node.
        hosting = [n for n in sim.cluster.sorted_nodes() if n.containers]
        assert len(hosting) == 1

    def test_initial_replicas_start_warm(self):
        sim = build()
        assert all(
            c.is_serving for c in sim.cluster.service("svc").active_replicas()
        )

    def test_summary_carries_labels(self):
        sim = build()
        summary = sim.run(10.0)
        assert summary.algorithm == "hybrid"
        assert summary.workload == "custom"
        assert summary.duration == pytest.approx(10.0)

    def test_timeline_cadence(self):
        sim = build(timeline_every=2.0)
        summary = sim.run(10.0)
        times = [p.time for p in summary.timeline]
        assert times == sorted(times)
        assert len(times) >= 5


class TestTimestepRobustness:
    def test_orderings_stable_under_finer_dt(self):
        """Halving the step width must not flip who wins — results reflect
        the modeled system, not the integrator."""
        from dataclasses import replace
        from repro.experiments.configs import cpu_bound

        def run(dt: float, algorithm: str):
            spec = cpu_bound("high")
            small = replace(spec, duration=60.0, specs=spec.specs[:3], loads=spec.loads[:3])
            config = small.config.with_overrides(dt=dt)
            return Simulation.build(
                config=config, specs=list(small.specs), loads=list(small.loads), policy=algorithm
            ).run(small.duration)

        for dt in (0.5, 0.25):
            k8s = run(dt, "kubernetes")
            hybrid = run(dt, "hybrid")
            assert hybrid.avg_response_time < k8s.avg_response_time, f"flip at dt={dt}"

    def test_tier_round_robin_in_full_simulation(self):
        """The distributed LB tier with per-proxy round-robin state runs a
        whole experiment cleanly."""
        from repro import HyScaleCpu, Simulation, SimulationConfig
        from repro.cluster import MicroserviceSpec
        from repro.config import ClusterConfig
        from repro.platform.load_balancer import RoutingPolicy
        from repro.workloads import CPU_BOUND, ConstantLoad, ServiceLoad

        config = SimulationConfig(
            cluster=ClusterConfig(worker_nodes=3, load_balancers=4), seed=2
        )
        sim = Simulation.build(
            config=config,
            specs=[MicroserviceSpec(name="svc", max_replicas=6)],
            loads=[ServiceLoad("svc", CPU_BOUND, ConstantLoad(8.0))],
            policy=HyScaleCpu(),
            routing=RoutingPolicy.ROUND_ROBIN,
        )
        assert len(sim.load_balancer.balancers) == 4
        summary = sim.run(45.0)
        assert summary.availability > 0.95
        routed = [b.total_routed for b in sim.load_balancer.balancers]
        assert all(count > 0 for count in routed)
