"""Property-based tests on the substrate physics: conservation laws.

Whatever the schedulers decide, the simulator must never mint resources:
compute progress is bounded by the grant, transmitted bits by the NIC,
measured node usage by node capacity.  Hypothesis drives randomized
workloads through single containers and whole nodes and checks the books.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.container import Container
from repro.cluster.grants import ResourceGrants
from repro.cluster.node import Node
from repro.cluster.resources import ResourceVector
from repro.config import OverheadModel
from repro.workloads.requests import Phase, Request

QUIET = OverheadModel(
    colocation_contention=0.0,
    colocation_cap=1.0,
    distribution_log_coeff=0.0,
    container_background_cpu=0.0,
    container_boot_delay=0.0,
    net_cpu_per_mbit=0.0,
)

request_batches = st.lists(
    st.tuples(
        st.floats(0.0, 5.0, allow_nan=False),  # cpu_work
        st.floats(0.0, 20.0, allow_nan=False),  # net_mbits
        st.floats(0.0, 10.0, allow_nan=False),  # disk_mb
    ),
    min_size=1,
    max_size=25,
)


def container_with(batch, concurrency=8):
    container = Container(
        "svc", 0, cpu_request=1.0, mem_limit=4096.0, net_rate=100.0,
        max_concurrency=concurrency, overheads=QUIET,
    )
    requests = []
    for cpu, net, disk in batch:
        request = Request(
            service="svc", arrival_time=0.0, cpu_work=cpu, mem_footprint=1.0,
            net_mbits=net, disk_mb=disk, timeout=1e6,
        )
        container.accept(request, 0.0)
        requests.append(request)
    return container, requests


class TestComputeConservation:
    @given(batch=request_batches, granted=st.floats(0.0, 8.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_progress_bounded_by_grant(self, batch, granted):
        container, requests = container_with(batch)
        before = sum(r.cpu_done for r in requests)
        container.advance(ResourceGrants(cpu=granted), 1.0)
        after = sum(r.cpu_done for r in requests)
        assert after - before <= granted * 1.0 + 1e-6

    @given(batch=request_batches, granted=st.floats(0.5, 8.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_work_conserving_until_done(self, batch, granted):
        """Either the whole grant is consumed or every compute phase ends."""
        container, requests = container_with(batch)
        demand = sum(r.cpu_remaining for r in requests)
        before = sum(r.cpu_done for r in requests)
        container.advance(ResourceGrants(cpu=granted), 1.0)
        consumed = sum(r.cpu_done for r in requests) - before
        if demand >= granted:
            assert consumed == pytest.approx(granted, rel=1e-6, abs=1e-6)
        else:
            assert consumed == pytest.approx(demand, rel=1e-6, abs=1e-6)

    @given(batch=request_batches)
    @settings(max_examples=40, deadline=None)
    def test_usage_never_exceeds_grant(self, batch):
        container, _ = container_with(batch)
        container.advance(ResourceGrants(cpu=2.5), 0.5)
        assert container.cpu_usage <= 2.5 + 1e-6


class TestNetworkConservation:
    @given(batch=request_batches, granted=st.floats(0.0, 200.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_transmitted_bounded_by_grant(self, batch, granted):
        container, requests = container_with(batch)
        for request in requests:
            request.advance(Phase.CPU, request.cpu_remaining)  # skip to net phase
            request.advance(Phase.DISK, request.disk_remaining)
        before = sum(r.net_done for r in requests)
        container.advance(ResourceGrants(net=granted), 1.0)
        sent = sum(r.net_done for r in requests) - before
        assert sent <= granted * 1.0 + 1e-6
        assert container.net_usage == pytest.approx(sent, rel=1e-6, abs=1e-6)

    @given(batch=request_batches, granted=st.floats(0.0, 200.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_work_conserving_until_done(self, batch, granted):
        """Either the whole grant is sent or every payload is out."""
        container, requests = container_with(batch)
        for request in requests:
            request.advance(Phase.CPU, request.cpu_remaining)  # skip to net phase
            request.advance(Phase.DISK, request.disk_remaining)
        outstanding = sum(r.net_remaining for r in requests)
        before = sum(r.net_done for r in requests)
        container.advance(ResourceGrants(net=granted), 1.0)
        sent = sum(r.net_done for r in requests) - before
        assert abs(sent - min(granted * 1.0, outstanding)) <= 1e-6


class TestDiskConservation:
    @given(batch=request_batches, granted=st.floats(0.0, 300.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_served_bounded_by_grant(self, batch, granted):
        container, requests = container_with(batch)
        for request in requests:
            request.advance(Phase.CPU, request.cpu_remaining)
        before = sum(r.disk_done for r in requests)
        container.advance(ResourceGrants(disk=granted), 1.0)
        served = sum(r.disk_done for r in requests) - before
        assert served <= granted + 1e-6

    @given(batch=request_batches, granted=st.floats(0.0, 300.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_work_conserving_until_done(self, batch, granted):
        """Either the whole grant is served or every disk phase ends."""
        container, requests = container_with(batch)
        for request in requests:
            request.advance(Phase.CPU, request.cpu_remaining)
        outstanding = sum(r.disk_remaining for r in requests)
        before = sum(r.disk_done for r in requests)
        container.advance(ResourceGrants(disk=granted), 1.0)
        served = sum(r.disk_done for r in requests) - before
        assert abs(served - min(granted * 1.0, outstanding)) <= 1e-6


class TestNodeConservation:
    @given(
        allocations=st.lists(st.floats(0.2, 1.5, allow_nan=False), min_size=1, max_size=5),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_node_usage_within_capacity(self, allocations, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        node = Node("n0", ResourceVector(4.0, 8192.0, 1000.0), QUIET)
        containers = []
        for i, cpu in enumerate(allocations):
            container = Container(
                f"svc{i}", 0, cpu_request=cpu, mem_limit=512.0, net_rate=50.0,
                overheads=QUIET,
            )
            node.add_container(container, enforce_capacity=False)
            containers.append(container)
            for _ in range(int(rng.integers(0, 6))):
                container.accept(
                    Request(service=f"svc{i}", arrival_time=0.0,
                            cpu_work=float(rng.uniform(0.1, 3.0)),
                            net_mbits=float(rng.uniform(0.0, 30.0)),
                            timeout=1e6),
                    0.0,
                )
        for step in range(1, 4):
            node.step(float(step), 1.0)
            active = node.active_containers()
            assert sum(c.cpu_usage for c in active) <= node.capacity.cpu + 1e-6
            assert sum(c.net_usage for c in active) <= node.capacity.network + 1e-6

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_all_work_eventually_completes(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        node = Node("n0", ResourceVector(4.0, 8192.0, 1000.0), QUIET)
        container = Container("svc", 0, cpu_request=1.0, mem_limit=4096.0,
                              net_rate=100.0, overheads=QUIET)
        node.add_container(container)
        requests = [
            Request(service="svc", arrival_time=0.0,
                    cpu_work=float(rng.uniform(0.0, 1.0)),
                    net_mbits=float(rng.uniform(0.0, 5.0)),
                    disk_mb=float(rng.uniform(0.0, 5.0)),
                    timeout=1e6)
            for _ in range(int(rng.integers(1, 12)))
        ]
        for request in requests:
            container.accept(request, 0.0)
        for step in range(1, 200):
            node.step(float(step), 1.0)
            if all(r.is_finished for r in requests):
                break
        assert all(r.is_finished for r in requests)
