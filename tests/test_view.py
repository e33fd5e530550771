"""Tests for cluster snapshots (views)."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

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

    @settings(max_examples=100, deadline=None)
    @given(
        replicas=st.lists(
            st.tuples(
                st.booleans(),
                st.floats(0.1, 4.0),
                st.floats(0.0, 4.0),
                st.floats(64.0, 1024.0),
                st.floats(0.0, 1024.0),
            ),
            max_size=8,
        )
    )
    def test_aggregates_equal_a_per_call_filter(self, replicas):
        # The measurable replicas are filtered once when the view is built;
        # every aggregate must still equal the filter applied on each call.
        service = make_service(
            replicas=tuple(
                make_replica(f"r{i}", booting=booting, cpu_request=cpu, cpu_usage=used,
                             mem_limit=mem, mem_usage=held)
                for i, (booting, cpu, used, mem, held) in enumerate(replicas)
            )
        )
        measurable = tuple(r for r in service.replicas if not r.booting)
        assert service.measurable_replicas() == measurable
        assert service.total_cpu_usage() == sum(r.cpu_usage for r in measurable)
        assert service.total_cpu_requested() == sum(r.cpu_request for r in measurable)
        assert service.total_mem_usage() == sum(r.mem_usage for r in measurable)
        assert service.total_mem_requested() == sum(r.mem_limit for r in measurable)
        # A copy with other replicas filters its own (the field is derived).
        fewer = dataclasses.replace(service, replicas=measurable[1:])
        assert fewer.measurable_replicas() == measurable[1:]

    def test_filtered_replicas_stay_out_of_equality_and_digest(self):
        replicas = (make_replica("a"), make_replica("b", booting=True))
        service, twin = make_service(replicas=replicas), make_service(replicas=replicas)
        object.__setattr__(twin, "_measurable", ())  # differs in the derived field only
        assert service == twin and hash(service) == hash(twin)
        assert make_view(services=(service,)).digest() == make_view(services=(twin,)).digest()
        assert "_measurable" not in repr(service)


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
