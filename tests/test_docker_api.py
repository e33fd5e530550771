"""Tests for the cluster-wide Docker client facade."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.microservice import MicroserviceSpec
from repro.cluster.node import Node
from repro.cluster.resources import ResourceVector
from repro.dockersim.api import DockerClient
from repro.errors import ClusterError, ContainerNotFound
from repro.workloads.requests import Request


@pytest.fixture
def cluster(overheads):
    cluster = Cluster(overheads)
    for i in range(2):
        cluster.add_node(Node(f"n{i}", ResourceVector(4.0, 8192.0, 1000.0), overheads))
    cluster.register_service(MicroserviceSpec(name="svc", max_concurrency=8))
    return cluster


@pytest.fixture
def client(cluster):
    return DockerClient(cluster)


class TestRunReplica:
    def test_tracks_replica_and_location(self, client, cluster):
        container = client.run_replica(
            "svc", "n0", cpu_request=0.5, mem_limit=512.0, net_rate=50.0, now=0.0
        )
        assert container in cluster.service("svc").active_replicas()
        assert client.node_name_of(container.container_id) == "n0"
        assert container.max_concurrency == 8  # from the spec

    def test_replica_indices_increment(self, client):
        a = client.run_replica("svc", "n0", cpu_request=0.5, mem_limit=512.0, net_rate=0.0, now=0.0)
        b = client.run_replica("svc", "n1", cpu_request=0.5, mem_limit=512.0, net_rate=0.0, now=0.0)
        assert a.replica_index == 0 and b.replica_index == 1

    def test_default_boot_delay_from_overheads(self, cluster, client):
        container = client.run_replica(
            "svc", "n0", cpu_request=0.5, mem_limit=512.0, net_rate=0.0, now=0.0
        )
        # Test overheads use boot_delay = 0 -> serving immediately.
        assert container.is_serving

    def test_unknown_node_rejected(self, client):
        with pytest.raises(ClusterError):
            client.run_replica("svc", "ghost", cpu_request=0.5, mem_limit=512.0, net_rate=0.0, now=0.0)

    def test_unknown_service_rejected(self, client):
        with pytest.raises(ClusterError):
            client.run_replica("ghost", "n0", cpu_request=0.5, mem_limit=512.0, net_rate=0.0, now=0.0)


class TestRouting:
    def test_update_routes_to_owning_daemon(self, client):
        container = client.run_replica(
            "svc", "n1", cpu_request=0.5, mem_limit=512.0, net_rate=0.0, now=0.0
        )
        client.update(container.container_id, cpu_request=1.5)
        assert container.cpu_request == 1.5

    def test_stats_routed(self, client):
        container = client.run_replica(
            "svc", "n0", cpu_request=0.5, mem_limit=512.0, net_rate=0.0, now=0.0
        )
        assert client.stats(container.container_id, 1.0).cpu_request == 0.5

    def test_unknown_container_rejected(self, client):
        with pytest.raises(ContainerNotFound):
            client.node_name_of("ghost")


class TestRemoveAndReap:
    def test_remove_deregisters(self, client, cluster):
        container = client.run_replica(
            "svc", "n0", cpu_request=0.5, mem_limit=512.0, net_rate=0.0, now=0.0
        )
        client.remove_replica(container.container_id, 1.0)
        assert cluster.service("svc").replica_count == 0
        with pytest.raises(ContainerNotFound):
            client.node_name_of(container.container_id)

    def test_reap_deregisters_oom_kills(self, client, cluster):
        container = client.run_replica(
            "svc", "n0", cpu_request=0.5, mem_limit=110.0, net_rate=0.0, now=0.0
        )
        for _ in range(8):
            container.accept(
                Request(service="svc", arrival_time=0.0, cpu_work=1000.0, mem_footprint=200.0), 0.0
            )
        cluster.node("n0").step(1.0, 1.0)
        corpses = client.reap(1.0)
        assert [c.container_id for c in corpses] == [container.container_id]
        assert cluster.service("svc").replica_count == 0

    def test_reap_keeps_the_nodes_hosting_order(self, client, cluster):
        """Two kills in one step on one node come back in the order the
        node hosts them, which a migration made differ from id order."""
        # 100 MiB of base memory alone exceeds 2 x 40 MiB: both die idle.
        first = client.run_replica("svc", "n0", cpu_request=0.5, mem_limit=40.0, net_rate=0.0, now=0.0)
        second = client.run_replica("svc", "n1", cpu_request=0.5, mem_limit=40.0, net_rate=0.0, now=0.0)
        client.migrate_replica(first.container_id, "n1", 0.0)
        node = cluster.node("n1")
        assert first.container_id < second.container_id
        assert list(node.containers) == [second.container_id, first.container_id]
        node.step(1.0, 1.0)
        assert node.last_oom_kills == [first, second]
        assert client.reap(1.0) == [second, first]
        assert node.containers == {} and node.last_oom_kills == []
        assert cluster.service("svc").replica_count == 0

    def test_reap_collects_kills_from_every_step_since_the_last(self, client, cluster):
        doomed = client.run_replica("svc", "n0", cpu_request=0.5, mem_limit=40.0, net_rate=0.0, now=0.0)
        later = client.run_replica("svc", "n0", cpu_request=0.5, mem_limit=110.0, net_rate=0.0, now=0.0)
        node = cluster.node("n0")
        node.step(1.0, 1.0)
        for _ in range(8):
            later.accept(Request(service="svc", arrival_time=1.0, cpu_work=1000.0, mem_footprint=200.0), 1.0)
        node.step(2.0, 1.0)
        assert node.last_oom_kills == [doomed, later]
        assert client.reap(2.0) == [doomed, later]
        assert client.reap(2.0) == []


class TestNodeLifecycle:
    def test_track_new_node(self, client, cluster, overheads):
        cluster.add_node(Node("n9", ResourceVector(4.0, 8192.0, 1000.0), overheads))
        client.track_node("n9")
        container = client.run_replica(
            "svc", "n9", cpu_request=0.5, mem_limit=512.0, net_rate=0.0, now=0.0
        )
        assert client.node_name_of(container.container_id) == "n9"

    def test_double_track_rejected(self, client):
        with pytest.raises(ClusterError):
            client.track_node("n0")

    def test_untrack_clears_locations(self, client):
        container = client.run_replica(
            "svc", "n0", cpu_request=0.5, mem_limit=512.0, net_rate=0.0, now=0.0
        )
        client.untrack_node("n0")
        with pytest.raises(ContainerNotFound):
            client.node_name_of(container.container_id)
