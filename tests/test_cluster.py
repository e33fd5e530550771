"""Tests for the cluster registry and drive loop."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.microservice import MicroserviceSpec
from repro.cluster.node import Node
from repro.cluster.resources import ResourceVector
from repro.config import ClusterConfig
from repro.errors import ClusterError
from repro.sim.clock import SimClock
from repro.workloads.requests import FailureReason, Request

from tests.conftest import make_container


@pytest.fixture
def cluster(overheads):
    cluster = Cluster(overheads)
    for i in range(3):
        cluster.add_node(Node(f"n{i}", ResourceVector(4.0, 8192.0, 1000.0), overheads))
    return cluster


class TestRegistry:
    def test_from_config(self):
        cluster = Cluster.from_config(ClusterConfig(worker_nodes=5))
        assert len(cluster.nodes) == 5
        assert cluster.total_capacity().cpu == 20.0

    def test_duplicate_node_rejected(self, cluster, overheads):
        with pytest.raises(ClusterError):
            cluster.add_node(Node("n0", ResourceVector(4, 8192, 1000), overheads))

    def test_register_service(self, cluster):
        cluster.register_service(MicroserviceSpec(name="svc"))
        assert cluster.service("svc").name == "svc"
        with pytest.raises(ClusterError):
            cluster.register_service(MicroserviceSpec(name="svc"))

    def test_unknown_lookups_raise(self, cluster):
        with pytest.raises(ClusterError):
            cluster.node("ghost")
        with pytest.raises(ClusterError):
            cluster.service("ghost")
        with pytest.raises(ClusterError):
            cluster.node_of("ghost-container")

    def test_node_of(self, cluster, overheads):
        container = make_container(overheads=overheads)
        cluster.node("n1").add_container(container)
        assert cluster.node_of(container.container_id).name == "n1"

    def test_sorted_iteration(self, cluster):
        assert [n.name for n in cluster.sorted_nodes()] == ["n0", "n1", "n2"]


class TestAggregates:
    def test_totals(self, cluster, overheads):
        cluster.node("n0").add_container(make_container(cpu=1.0, mem=1024.0, net=100.0, overheads=overheads))
        assert cluster.total_allocated() == ResourceVector(1.0, 1024.0, 100.0)
        assert cluster.total_capacity() == ResourceVector(12.0, 3 * 8192.0, 3000.0)


class TestDriveLoop:
    def test_on_step_advances_all_nodes(self, cluster, overheads):
        container = make_container(overheads=overheads)
        cluster.node("n2").add_container(container)
        request = Request(service="svc", arrival_time=0.0, cpu_work=0.1)
        container.accept(request, 0.0)
        clock = SimClock(dt=1.0)
        clock.advance()
        cluster.on_step(clock)
        assert cluster.drain_finished() == [request]

    def test_remove_node_fails_running_requests(self, cluster, overheads):
        service = cluster.register_service(MicroserviceSpec(name="svc"))
        container = make_container("svc", overheads=overheads)
        cluster.node("n1").add_container(container)
        service.track(container)
        request = Request(service="svc", arrival_time=0.0, cpu_work=100.0)
        container.accept(request, 0.0)

        casualties = cluster.remove_node("n1", now=5.0)
        assert request in casualties
        assert request.failure_reason is FailureReason.REMOVAL
        assert "n1" not in cluster.nodes
        assert service.replica_count == 0
