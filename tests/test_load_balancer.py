"""Tests for the service registry and load balancer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.microservice import MicroserviceSpec
from repro.cluster.node import Node
from repro.cluster.resources import ResourceVector
from repro.config import OverheadModel
from repro.errors import ClusterError
from repro.platform.load_balancer import LoadBalancer, RoutingPolicy
from repro.platform.registry import ServiceRegistry
from repro.sim.clock import SimClock
from repro.workloads.requests import FailureReason, Request

from tests.conftest import make_container


@pytest.fixture
def cluster(overheads):
    cluster = Cluster(overheads)
    cluster.add_node(Node("n0", ResourceVector(8.0, 16384.0, 1000.0), overheads))
    cluster.register_service(MicroserviceSpec(name="svc"))
    return cluster


@pytest.fixture
def registry(cluster):
    return ServiceRegistry(cluster)


def add_replica(cluster, overheads, service="svc", cpu=0.5, boot=0.0):
    container = make_container(service, cpu=cpu, overheads=overheads)
    if boot:
        container = make_container(service, cpu=cpu, boot=boot, overheads=overheads)
    cluster.node("n0").add_container(container, enforce_capacity=False)
    cluster.service(service).track(container)
    return container


def make_lb(registry, overheads, policy=RoutingPolicy.ROUND_ROBIN):
    failures = []
    lb = LoadBalancer(registry, overheads, failure_sink=failures.append, policy=policy)
    return lb, failures


def request(service="svc", arrival=0.0, timeout=30.0):
    return Request(service=service, arrival_time=arrival, cpu_work=1.0, timeout=timeout)


class TestRegistry:
    def test_endpoints_exclude_booting(self, cluster, registry, overheads):
        running = add_replica(cluster, overheads)
        add_replica(cluster, overheads, boot=10.0)
        assert registry.service("svc").serving_replicas() == [running]

    def test_unknown_service(self, registry):
        with pytest.raises(ClusterError):
            registry.service("ghost")


class TestRouting:
    def test_round_robin_cycles(self, cluster, registry, overheads):
        a = add_replica(cluster, overheads)
        b = add_replica(cluster, overheads)
        lb, _ = make_lb(registry, overheads)
        for _ in range(4):
            lb.submit(request())
        counts = sorted(len(c.inflight) for c in (a, b))
        assert counts == [2, 2]

    def test_least_outstanding_balances(self, cluster, registry, overheads):
        a = add_replica(cluster, overheads)
        b = add_replica(cluster, overheads)
        a.accept(request(), 0.0)
        a.accept(request(), 0.0)
        lb, _ = make_lb(registry, overheads, RoutingPolicy.LEAST_OUTSTANDING)
        lb.submit(request())
        assert len(b.inflight) == 1

    def test_weighted_cpu_prefers_fat_replicas(self, cluster, registry, overheads):
        add_replica(cluster, overheads, cpu=0.2)
        fat = add_replica(cluster, overheads, cpu=3.0)
        lb, _ = make_lb(registry, overheads, RoutingPolicy.WEIGHTED_CPU)
        for _ in range(4):
            lb.submit(request())
        # The 15x bigger replica should take the bulk of the first burst.
        assert len(fat.inflight) >= 3

    def test_unknown_service_rejected(self, registry, overheads):
        lb, _ = make_lb(registry, overheads)
        with pytest.raises(ClusterError):
            lb.submit(request("ghost"))

    def test_routed_counter(self, cluster, registry, overheads):
        add_replica(cluster, overheads)
        lb, _ = make_lb(registry, overheads)
        lb.submit(request())
        assert lb.total_routed == 1


def _weighted_cpu_key(container):
    return (container.cpu_request / (len(container.inflight) + 1), container.container_id)


def _least_outstanding_key(container):
    return (len(container.inflight), container.container_id)


class TestPickTieBreaks:
    """The picks equal the old key-function picks, ties included."""

    @settings(max_examples=200, deadline=None)
    @given(
        replicas=st.lists(
            st.tuples(st.sampled_from([0.5, 1.0, 2.0]), st.integers(0, 3), st.booleans()),
            min_size=1,
            max_size=6,
        ),
        policy=st.sampled_from([RoutingPolicy.WEIGHTED_CPU, RoutingPolicy.LEAST_OUTSTANDING]),
    )
    def test_pick_is_the_extreme_of_the_old_key(self, replicas, policy):
        overheads = OverheadModel()
        cluster = Cluster(overheads)
        cluster.add_node(Node("n0", ResourceVector(64.0, 65536.0, 1000.0), overheads))
        cluster.register_service(MicroserviceSpec(name="svc"))
        for cpu, inflight, booting in replicas:
            container = add_replica(cluster, overheads, cpu=cpu, boot=5.0 if booting else 0.0)
            if not booting:
                for _ in range(inflight):
                    container.accept(request(), 0.0)
        serving = cluster.service("svc").serving_replicas()
        if policy is RoutingPolicy.WEIGHTED_CPU:
            expected = max(serving, key=_weighted_cpu_key, default=None)
        else:
            expected = min(serving, key=_least_outstanding_key, default=None)
        before = {c.container_id: len(c.inflight) for c in serving}
        lb, _ = make_lb(ServiceRegistry(cluster), overheads, policy)
        lb.submit(request())
        grew = [c for c in serving if len(c.inflight) > before[c.container_id]]
        assert grew == ([] if expected is None else [expected])


class TestBacklog:
    def test_parks_when_no_replica(self, registry, overheads):
        lb, failures = make_lb(registry, overheads)
        lb.submit(request())
        assert lb.backlog() == 1
        assert failures == []

    def test_backlog_drains_when_replica_appears(self, cluster, registry, overheads):
        lb, _ = make_lb(registry, overheads)
        lb.submit(request())
        replica = add_replica(cluster, overheads)
        clock = SimClock(dt=1.0)
        clock.advance()
        lb.on_step(clock)
        assert lb.backlog() == 0
        assert len(replica.inflight) == 1

    def test_backlog_timeout_is_connection_failure(self, registry, overheads):
        lb, failures = make_lb(registry, overheads)
        lb.submit(request(timeout=2.0))
        clock = SimClock(dt=1.0)
        for _ in range(3):
            clock.advance()
            lb.on_step(clock)
        assert lb.backlog() == 0
        assert len(failures) == 1
        assert failures[0].failure_reason is FailureReason.CONNECTION
        assert lb.total_rejected == 1


class TestDistributionOverhead:
    def test_single_replica_no_overhead(self, registry, paper_overheads):
        lb, _ = make_lb(registry, paper_overheads)
        assert lb.distribution_overhead(1) == pytest.approx(1.0)

    def test_logarithmic_growth(self, registry, paper_overheads):
        import math

        lb, _ = make_lb(registry, paper_overheads)
        o2 = lb.distribution_overhead(2)
        o4 = lb.distribution_overhead(4)
        o8 = lb.distribution_overhead(8)
        o16 = lb.distribution_overhead(16)
        assert 1.0 < o2 < o4 < o8 < o16
        # Log shape: doubling the replicas adds a constant increment.
        assert (o4 - o2) == pytest.approx(o8 - o4, abs=1e-9)
        assert o16 == pytest.approx(1.0 + 0.055 * math.log(16))

    def test_requests_stamped_with_overhead(self, cluster, registry, paper_overheads):
        for _ in range(4):
            add_replica(cluster, paper_overheads)
        lb, _ = make_lb(registry, paper_overheads)
        r = request()
        lb.submit(r)
        assert r.overhead_factor == pytest.approx(lb.distribution_overhead(4))

    def test_invalid_replica_count(self, registry, overheads):
        lb, _ = make_lb(registry, overheads)
        with pytest.raises(ClusterError):
            lb.distribution_overhead(0)
