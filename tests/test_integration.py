"""End-to-end integration tests: full simulations through the public API."""

import pytest

from repro import (
    HyScaleCpu,
    HyScaleCpuMem,
    KubernetesHpa,
    NetworkHpa,
    Simulation,
    SimulationConfig,
)
from repro.cluster import MicroserviceSpec
from repro.config import ClusterConfig
from repro.errors import ExperimentError
from repro.workloads import CPU_BOUND, MEMORY_BOUND, ConstantLoad, ServiceLoad


def small_setup(n_services=2, rate=6.0, profile=CPU_BOUND, worker_nodes=4, seed=0):
    config = SimulationConfig(cluster=ClusterConfig(worker_nodes=worker_nodes), seed=seed)
    specs = [
        MicroserviceSpec(name=f"svc-{i}", cpu_request=0.5, mem_limit=512.0, net_rate=50.0, max_replicas=8)
        for i in range(n_services)
    ]
    loads = [
        ServiceLoad(service=spec.name, profile=profile, pattern=ConstantLoad(rate))
        for spec in specs
    ]
    return config, specs, loads


class TestEndToEnd:
    @pytest.mark.parametrize(
        "policy_cls", [KubernetesHpa, HyScaleCpu, HyScaleCpuMem, NetworkHpa]
    )
    def test_every_algorithm_completes_a_run(self, policy_cls):
        config, specs, loads = small_setup()
        summary = Simulation.build(
            config=config, specs=specs, loads=loads, policy=policy_cls()
        ).run(60.0)
        assert summary.total_requests > 200
        assert summary.algorithm == policy_cls().name
        assert 0.0 <= summary.percent_failed <= 100.0
        assert summary.avg_response_time >= 0.0

    def test_hybrid_performs_vertical_scaling(self):
        config, specs, loads = small_setup(rate=10.0)
        summary = Simulation.build(
            config=config, specs=specs, loads=loads, policy=HyScaleCpu()
        ).run(60.0)
        assert summary.vertical_scale_ops > 0

    def test_kubernetes_only_horizontal(self):
        config, specs, loads = small_setup(rate=10.0)
        summary = Simulation.build(
            config=config, specs=specs, loads=loads, policy=KubernetesHpa()
        ).run(60.0)
        assert summary.vertical_scale_ops == 0
        assert summary.horizontal_scale_ups > 0

    def test_overloaded_service_scales_and_recovers(self):
        """Demand beyond one replica's capacity must trigger scaling and
        still complete the bulk of the traffic."""
        config, specs, loads = small_setup(n_services=1, rate=14.0)
        summary = Simulation.build(
            config=config, specs=specs, loads=loads, policy=HyScaleCpu()
        ).run(90.0)
        assert summary.availability > 0.95

    def test_memory_blind_policy_fails_memory_load(self):
        """Section VI: Kubernetes and HYSCALE_CPU 'are unable to handle
        memory-bound loads and crash' — here: OOM kills and failures."""
        config, specs, loads = small_setup(rate=30.0, profile=MEMORY_BOUND)
        blind = Simulation.build(
            config=config, specs=specs, loads=loads, policy=HyScaleCpu()
        ).run(120.0)
        aware = Simulation.build(
            config=config, specs=specs, loads=loads, policy=HyScaleCpuMem()
        ).run(120.0)
        assert blind.percent_failed > 1.0
        assert aware.percent_failed < blind.percent_failed

    def test_timeline_sampled(self):
        config, specs, loads = small_setup()
        simulation = Simulation.build(
            config=config, specs=specs, loads=loads, policy=HyScaleCpu()
        )
        summary = simulation.run(30.0)
        assert summary.timeline
        assert summary.timeline[-1].total_replicas >= len(specs)

    def test_initial_deployment_honours_min_replicas(self):
        config, specs, loads = small_setup()
        specs = [
            MicroserviceSpec(name="svc-0", min_replicas=3, max_replicas=8),
        ]
        loads = [ServiceLoad("svc-0", CPU_BOUND, ConstantLoad(1.0))]
        simulation = Simulation.build(config=config, specs=specs, loads=loads, policy=HyScaleCpu())
        assert simulation.cluster.service("svc-0").replica_count == 3


class TestDeterminism:
    def test_same_seed_same_summary(self):
        config, specs, loads = small_setup(seed=17)
        a = Simulation.build(config=config, specs=specs, loads=loads, policy=HyScaleCpu()).run(45.0)
        b = Simulation.build(config=config, specs=specs, loads=loads, policy=HyScaleCpu()).run(45.0)
        assert a.total_requests == b.total_requests
        assert a.avg_response_time == pytest.approx(b.avg_response_time)
        assert a.vertical_scale_ops == b.vertical_scale_ops
        assert a.horizontal_scale_ups == b.horizontal_scale_ups

    def test_different_seed_different_arrivals(self):
        config, specs, loads = small_setup(seed=1)
        a = Simulation.build(config=config, specs=specs, loads=loads, policy=HyScaleCpu()).run(45.0)
        config2, specs2, loads2 = small_setup(seed=2)
        b = Simulation.build(config=config2, specs=specs2, loads=loads2, policy=HyScaleCpu()).run(45.0)
        assert a.total_requests != b.total_requests


class TestValidation:
    def test_loads_must_reference_specs(self):
        config, specs, _ = small_setup()
        rogue = [ServiceLoad("ghost", CPU_BOUND, ConstantLoad(1.0))]
        with pytest.raises(ExperimentError):
            Simulation.build(config=config, specs=specs, loads=rogue, policy=HyScaleCpu())

    def test_specs_required(self):
        config, _, _ = small_setup()
        with pytest.raises(ExperimentError):
            Simulation.build(config=config, specs=[], loads=[], policy=HyScaleCpu())

    def test_cluster_too_small_rejected(self):
        config = SimulationConfig(cluster=ClusterConfig(worker_nodes=1))
        specs = [MicroserviceSpec(name="big", cpu_request=3.0, min_replicas=3)]
        loads = [ServiceLoad("big", CPU_BOUND, ConstantLoad(1.0))]
        with pytest.raises(ExperimentError):
            Simulation.build(config=config, specs=specs, loads=loads, policy=HyScaleCpu())
