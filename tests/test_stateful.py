"""Tests for stateful-microservice support (extension).

Section IV-B motivates hybrid scaling with them: "horizontally scaling
microservices that need to preserve state is non-trivial as it introduces
the need for a consistency model to maintain state amongst all replicas.
Hence, in these scenarios, the best scaling decisions are those that bring
forth more resources to a particular container (i.e., vertical scaling)."
"""

import pytest

from repro import HyScaleCpu, KubernetesHpa, Simulation, SimulationConfig
from repro.cluster import MicroserviceSpec
from repro.cluster.microservice import MicroserviceSpec as Spec
from repro.config import ClusterConfig
from repro.errors import ClusterError
from repro.workloads import CPU_BOUND, ConstantLoad, ServiceLoad


def build_sim(stateful: bool, policy=None, rate=8.0, seed=0, state_mb=512.0):
    config = SimulationConfig(cluster=ClusterConfig(worker_nodes=4), seed=seed)
    specs = [
        MicroserviceSpec(
            name="ledger", max_replicas=8, stateful=stateful, state_size_mb=state_mb
        )
    ]
    loads = [ServiceLoad("ledger", CPU_BOUND, ConstantLoad(rate))]
    return Simulation.build(
        config=config, specs=specs, loads=loads, policy=policy or KubernetesHpa()
    )


class TestSpec:
    def test_defaults_stateless(self):
        assert not Spec(name="s").stateful

    def test_negative_state_rejected(self):
        with pytest.raises(ClusterError):
            Spec(name="s", stateful=True, state_size_mb=-1.0)


class TestConsistencyOverhead:
    def test_single_replica_free(self):
        sim = build_sim(stateful=True)
        assert sim.load_balancer.consistency_overhead(1) == pytest.approx(1.0)

    def test_linear_in_extra_replicas(self):
        sim = build_sim(stateful=True)
        o3 = sim.load_balancer.consistency_overhead(3)
        o5 = sim.load_balancer.consistency_overhead(5)
        assert o3 == pytest.approx(1.0 + 2 * 0.08)
        assert (o5 - o3) == pytest.approx(2 * 0.08)

    def test_requests_stamped_with_consistency(self):
        from repro.core import AutoscalingPolicy

        class NoOp(AutoscalingPolicy):
            name = "noop"

            def decide(self, view):
                return []

        sim = build_sim(stateful=True, policy=NoOp(), rate=0.0, state_mb=50.0)
        # Force several replicas, then let them boot and pull state.
        for node in ("node-01", "node-02"):
            sim.client.run_replica(
                "ledger", node, cpu_request=0.5, mem_limit=512.0, net_rate=50.0,
                now=0.0, boot_delay=0.0,
            )
        sim.engine.run_for(5.0)
        from repro.workloads.requests import Request

        request = Request(service="ledger", arrival_time=0.0, cpu_work=0.1, timeout=60.0)
        sim.load_balancer.submit(request)
        expected = sim.load_balancer.distribution_overhead(3) * sim.load_balancer.consistency_overhead(3)
        assert request.overhead_factor == pytest.approx(expected)

    def test_stateless_requests_unaffected(self):
        sim = build_sim(stateful=False)
        from repro.workloads.requests import Request

        request = Request(service="ledger", arrival_time=0.0, cpu_work=0.1)
        sim.load_balancer.submit(request)
        assert request.overhead_factor == pytest.approx(
            sim.load_balancer.distribution_overhead(1)
        )


class TestStateTransfer:
    def test_second_replica_pays_transfer(self):
        sim = build_sim(stateful=True, state_mb=500.0)
        container = sim.client.run_replica(
            "ledger", "node-02", cpu_request=0.5, mem_limit=512.0, net_rate=50.0, now=0.0
        )
        # Overhead boot (0 in test fixture's absence — default 2.0) plus
        # 500 MB / 100 MB/s of state pull.
        assert container.boot_remaining >= 5.0

    def test_first_replica_exempt(self):
        config = SimulationConfig(cluster=ClusterConfig(worker_nodes=2), seed=0)
        from repro.cluster.cluster import Cluster
        from repro.dockersim.api import DockerClient

        cluster = Cluster.from_config(config.cluster)
        client = DockerClient(cluster)
        cluster.register_service(Spec(name="ledger", stateful=True, state_size_mb=500.0))
        first = client.run_replica(
            "ledger", "node-00", cpu_request=0.5, mem_limit=512.0, net_rate=50.0, now=0.0
        )
        assert first.boot_remaining <= cluster.overheads.container_boot_delay


class TestVerticalWinsForState:
    def test_hybrid_advantage_grows_with_state(self):
        """The Section IV-B claim, quantified: the hybrid's edge over
        horizontal-only Kubernetes is larger when the service is stateful."""

        def gap(stateful: bool) -> float:
            config = SimulationConfig(cluster=ClusterConfig(worker_nodes=4), seed=3)
            specs = [MicroserviceSpec(name="ledger", max_replicas=8, stateful=stateful)]
            loads = [ServiceLoad("ledger", CPU_BOUND, ConstantLoad(14.0))]
            k8s = Simulation.build(
                config=config, specs=specs, loads=loads, policy=KubernetesHpa()
            ).run(120.0)
            hybrid = Simulation.build(
                config=config, specs=specs, loads=loads, policy=HyScaleCpu()
            ).run(120.0)
            return k8s.avg_response_time / hybrid.avg_response_time

        assert gap(stateful=True) > gap(stateful=False)
