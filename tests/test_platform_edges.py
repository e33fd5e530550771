"""Edge-case tests across the platform: churn, adoption, migration plumbing."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.microservice import MicroserviceSpec
from repro.cluster.node import Node
from repro.cluster.resources import ResourceVector
from repro.cluster.stress import CpuStressContainer
from repro.core.actions import MigrateReplica
from repro.dockersim.api import DockerClient
from repro.dockersim.daemon import DockerDaemon
from repro.errors import ClusterError, ContainerStateError, PolicyError
from repro.platform.load_balancer import LoadBalancer, RoutingPolicy
from repro.platform.registry import ServiceRegistry
from repro.sim.clock import SimClock
from repro.workloads.requests import Request

from tests.conftest import make_container


@pytest.fixture
def platform(overheads):
    cluster = Cluster(overheads)
    for i in range(2):
        cluster.add_node(Node(f"n{i}", ResourceVector(8.0, 16384.0, 1000.0), overheads))
    cluster.register_service(MicroserviceSpec(name="svc"))
    client = DockerClient(cluster)
    return cluster, client


def request(service="svc", timeout=30.0):
    return Request(service=service, arrival_time=0.0, cpu_work=1.0, timeout=timeout)


class TestRoutingChurn:
    def test_round_robin_survives_replica_removal(self, platform, overheads):
        cluster, client = platform
        registry = ServiceRegistry(cluster)
        lb = LoadBalancer(registry, overheads, failure_sink=lambda r: None,
                          policy=RoutingPolicy.ROUND_ROBIN)
        a = client.run_replica("svc", "n0", cpu_request=0.5, mem_limit=512.0, net_rate=0.0, now=0.0)
        b = client.run_replica("svc", "n1", cpu_request=0.5, mem_limit=512.0, net_rate=0.0, now=0.0)
        for _ in range(3):
            lb.submit(request())
        client.remove_replica(b.container_id, 1.0)
        # The stale round-robin counter must not crash or mis-route.
        for _ in range(3):
            lb.submit(request())
        assert len(a.inflight) == 5  # 2 + all 3 after removal; 1 died with b

    def test_routing_resumes_after_scale_from_zero(self, platform, overheads):
        cluster, client = platform
        registry = ServiceRegistry(cluster)
        failures = []
        lb = LoadBalancer(registry, overheads, failure_sink=failures.append)
        first = client.run_replica("svc", "n0", cpu_request=0.5, mem_limit=512.0, net_rate=0.0, now=0.0)
        client.remove_replica(first.container_id, 0.0)
        lb.submit(request(timeout=60.0))
        assert lb.backlog() == 1
        replacement = client.run_replica(
            "svc", "n1", cpu_request=0.5, mem_limit=512.0, net_rate=0.0, now=1.0
        )
        clock = SimClock(dt=1.0)
        clock.advance()
        lb.on_step(clock)
        assert lb.backlog() == 0
        assert len(replacement.inflight) == 1
        assert failures == []


class TestDaemonAdoption:
    def test_adopt_hosts_stress_container(self, overheads):
        node = Node("n0", ResourceVector(4.0, 8192.0, 1000.0), overheads)
        daemon = DockerDaemon(node)
        stress = CpuStressContainer("stress", cpu_request=1.0, overheads=overheads)
        daemon.adopt(stress)
        assert stress in daemon.ps()
        assert node.nic.is_attached(stress.container_id)

    def test_adopt_enforces_capacity(self, overheads):
        node = Node("n0", ResourceVector(4.0, 8192.0, 1000.0), overheads)
        daemon = DockerDaemon(node)
        from repro.errors import CapacityError

        with pytest.raises(CapacityError):
            daemon.adopt(CpuStressContainer("huge", cpu_request=8.0, overheads=overheads))


class TestRegistrySpec:
    def test_spec_lookup(self, platform):
        cluster, _ = platform
        registry = ServiceRegistry(cluster)
        assert registry.service("svc").spec.name == "svc"
        with pytest.raises(ClusterError):
            registry.service("ghost")


class TestMigrationPlumbing:
    def test_action_validation(self):
        with pytest.raises(PolicyError):
            MigrateReplica("", "n1")
        with pytest.raises(PolicyError):
            MigrateReplica("c1", "")

    def test_freeze_validation(self, overheads):
        container = make_container(overheads=overheads)
        with pytest.raises(ContainerStateError):
            container.freeze(-1.0)
        container.terminate(1.0)
        with pytest.raises(ContainerStateError):
            container.freeze(1.0)

    def test_detach_unknown_rejected(self, overheads):
        node = Node("n0", ResourceVector(4.0, 8192.0, 1000.0), overheads)
        with pytest.raises(ClusterError):
            node.detach_container("ghost")

    def test_monitor_counts_migrations(self, overheads):
        import tests.test_monitor as tm

        policy = tm.ScriptedPolicy()
        _, cluster, client, managers, _, monitor = tm.build_platform(overheads, policy)
        container = client.run_replica(
            "svc", "node-00", cpu_request=0.5, mem_limit=512.0, net_rate=50.0, now=0.0
        )
        policy.batches = [[MigrateReplica(container.container_id, "node-01")]]
        clock = SimClock(dt=1.0)
        tm.run_steps(cluster, managers, monitor, clock, 5)
        assert monitor.log.migrations == 1
        assert client.node_name_of(container.container_id) == "node-01"

    def test_migration_keeps_reservation_accounting(self, platform):
        cluster, client = platform
        container = client.run_replica(
            "svc", "n0", cpu_request=2.0, mem_limit=1024.0, net_rate=100.0, now=0.0
        )
        def total_allocated():
            return ResourceVector.sum(node.allocated() for node in cluster.nodes.values())

        before_total = total_allocated()
        client.migrate_replica(container.container_id, "n1", 1.0)
        assert total_allocated() == before_total
        assert cluster.node("n0").allocated().cpu == 0.0
        assert cluster.node("n1").allocated().cpu == pytest.approx(2.0)
