"""Tests for cluster snapshots (views)."""

import pytest

from repro.cluster.resources import ResourceVector
from repro.errors import PolicyError

from tests.conftest import make_node_view, make_replica, make_service, make_view


class TestReplicaView:
    def test_utilizations(self):
        replica = make_replica("c1", cpu_request=0.5, cpu_usage=0.25, mem_limit=512.0, mem_usage=256.0)
        assert replica.cpu_utilization == pytest.approx(0.5)
        assert replica.mem_utilization == pytest.approx(0.5)

    def test_zero_allocation_utilization(self):
        replica = make_replica("c1", cpu_request=0.0, net_rate=0.0)
        assert replica.cpu_utilization == 0.0
        assert replica.net_utilization == 0.0


class TestServiceView:
    def test_booting_excluded_from_measurable(self):
        service = make_service(
            replicas=(
                make_replica("a", cpu_usage=1.0),
                make_replica("b", booting=True, cpu_usage=0.0),
            )
        )
        assert service.replica_count == 2
        assert len(service.measurable_replicas()) == 1
        assert service.total_cpu_usage() == pytest.approx(1.0)

    def test_paper_aggregates(self):
        service = make_service(
            replicas=(
                make_replica("a", cpu_request=0.5, cpu_usage=0.4, mem_limit=512, mem_usage=100,
                             net_rate=50, net_usage=5),
                make_replica("b", cpu_request=1.0, cpu_usage=0.6, mem_limit=256, mem_usage=200,
                             net_rate=25, net_usage=20),
            )
        )
        assert service.total_cpu_requested() == pytest.approx(1.5)
        assert service.total_cpu_usage() == pytest.approx(1.0)
        assert service.total_mem_requested() == pytest.approx(768.0)
        assert service.total_mem_usage() == pytest.approx(300.0)


class TestNodeView:
    def test_available_clamped(self):
        node = make_node_view(allocated=ResourceVector(5.0, 1000.0, 100.0))
        assert node.available.cpu == 0.0  # over-allocated clamps to zero

    def test_hosts(self):
        node = make_node_view(services=("svc",))
        assert node.hosts("svc")
        assert not node.hosts("other")


class TestClusterView:
    def test_lookup(self):
        view = make_view(services=(make_service("svc", (make_replica("c1"),)),))
        assert view.service("svc").name == "svc"
        assert view.node("n0").name == "n0"
        assert view.node_of(view.service("svc").replicas[0]).name == "n0"

    def test_unknown_lookup_raises(self):
        view = make_view()
        with pytest.raises(PolicyError):
            view.service("ghost")
        with pytest.raises(PolicyError):
            view.node("ghost")

    def test_default_nodes_derived_from_replicas(self):
        view = make_view(
            services=(
                make_service("a", (make_replica("c1", node="n1", cpu_request=1.0),)),
                make_service("b", (make_replica("c2", node="n2", cpu_request=2.0),)),
            )
        )
        assert view.node("n1").allocated.cpu == pytest.approx(1.0)
        assert view.node("n1").hosts("a")
        assert not view.node("n1").hosts("b")

    def test_duplicate_services_rejected(self):
        from repro.core.view import ClusterView

        with pytest.raises(PolicyError):
            ClusterView(now=0.0, services=(make_service("x"), make_service("x")), nodes=())
