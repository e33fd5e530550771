"""Tests for the disk I/O extension: device, phases, and the disk scaler."""

import pytest

from repro.cluster.disk import DiskDevice
from repro.cluster.grants import ResourceGrants
from repro.cluster.node import Node
from repro.cluster.resources import ResourceVector
from repro.core.disk import DiskHpa
from repro.core.actions import AddReplica
from repro.errors import ClusterError
from repro.workloads.requests import Phase, Request

from tests.conftest import make_container, make_replica, make_service, make_view


def make_request(cpu=0.0, disk=10.0, net=0.0, timeout=60.0) -> Request:
    return Request(
        service="svc", arrival_time=0.0, cpu_work=cpu, mem_footprint=2.0,
        net_mbits=net, disk_mb=disk, timeout=timeout,
    )


class TestDiskDevice:
    def test_single_stream_full_capacity(self):
        device = DiskDevice(capacity=150.0)
        grants = device.transfer({"a": 500.0})
        assert grants["a"] == pytest.approx(150.0)

    def test_grants_capped_by_demand(self):
        device = DiskDevice(capacity=150.0)
        assert device.transfer({"a": 40.0})["a"] == pytest.approx(40.0)

    def test_fair_sharing(self):
        device = DiskDevice(capacity=100.0, seek_penalty=0.0)
        grants = device.transfer({"a": 500.0, "b": 500.0})
        assert grants["a"] == pytest.approx(grants["b"]) == pytest.approx(50.0)

    def test_seek_thrash_reduces_aggregate(self):
        device = DiskDevice(capacity=100.0, seek_penalty=0.2)
        solo = device.transfer({"a": 500.0})["a"]
        duo = sum(device.transfer({"a": 500.0, "b": 500.0}).values())
        assert duo == pytest.approx(solo * 0.8)

    def test_efficiency_floor(self):
        device = DiskDevice(capacity=100.0, seek_penalty=0.2, seek_penalty_cap=0.5)
        assert device.efficiency(100) == 0.5

    def test_work_conserving_when_underloaded(self):
        device = DiskDevice(capacity=100.0, seek_penalty=0.1)
        grants = device.transfer({"a": 10.0, "b": 500.0})
        assert grants["a"] == pytest.approx(10.0)
        assert grants["b"] == pytest.approx(80.0)  # 90 effective - 10

    def test_idle_device(self):
        device = DiskDevice()
        assert device.transfer({"a": 0.0}) == {"a": 0.0}

    def test_validation(self):
        with pytest.raises(ClusterError):
            DiskDevice(capacity=0.0)
        with pytest.raises(ClusterError):
            DiskDevice(seek_penalty=1.0)
        with pytest.raises(ClusterError):
            DiskDevice().transfer({"a": -1.0})


class TestDiskPhase:
    def test_phase_order_cpu_disk_net(self):
        request = Request(service="s", arrival_time=0.0, cpu_work=1.0, disk_mb=5.0, net_mbits=2.0)
        request.assign("c1", 0.0)
        assert request.phase is Phase.CPU
        request.advance(Phase.CPU, 1.0)
        assert request.phase is Phase.DISK
        request.advance(Phase.DISK, 5.0)
        assert request.phase is Phase.NET

    def test_container_disk_progress(self, overheads):
        container = make_container(overheads=overheads)
        request = make_request(disk=10.0)
        container.accept(request, 0.0)
        assert container.disk_demand(1.0) == pytest.approx(10.0)
        container.advance(ResourceGrants(disk=10.0), 1.0)
        assert request.remaining(Phase.DISK) == 0.0
        assert container.disk_usage == pytest.approx(10.0)

    def test_node_schedules_disk(self, overheads):
        node = Node("d0", ResourceVector(4.0, 8192.0, 1000.0), overheads, disk_capacity=100.0)
        container = make_container(overheads=overheads)
        node.add_container(container)
        request = make_request(disk=50.0)
        container.accept(request, 0.0)
        node.step(1.0, 1.0)
        assert request.disk_done == pytest.approx(100.0 * 1.0, abs=51.0)
        node.step(2.0, 1.0)
        assert request.is_finished or request.remaining(Phase.DISK) == 0.0

    def test_disk_requests_complete(self, overheads):
        node = Node("d0", ResourceVector(4.0, 8192.0, 1000.0), overheads, disk_capacity=150.0)
        container = make_container(overheads=overheads)
        node.add_container(container)
        requests = [make_request(disk=5.0) for _ in range(10)]
        for request in requests:
            container.accept(request, 0.0)
        for t in range(1, 5):
            node.step(float(t), 1.0)
        assert all(r.is_finished for r in requests)

    def test_disk_usage_in_stats(self, overheads):
        from repro.dockersim.daemon import DockerDaemon

        node = Node("d0", ResourceVector(4.0, 8192.0, 1000.0), overheads)
        daemon = DockerDaemon(node)
        container = daemon.run(
            "svc", 0, cpu_request=0.5, mem_limit=512.0, net_rate=10.0, now=0.0, disk_quota=40.0
        )
        container.accept(make_request(disk=100.0), 0.0)
        node.step(1.0, 1.0)
        stats = daemon.stats(container.container_id, 1.0)
        assert stats.disk_usage > 0.0
        assert stats.disk_quota == 40.0
        assert stats.disk_utilization == pytest.approx(stats.disk_usage / 40.0)


class TestDiskHpa:
    def test_scales_on_disk_utilization(self):
        view = make_view(
            services=(
                make_service(
                    "db",
                    (
                        make_replica(
                            "d1",
                            cpu_request=0.5,
                            cpu_usage=0.01,  # CPU idle
                            disk_quota=50.0,
                            disk_usage=75.0,  # 150 % of quota
                        ),
                    ),
                ),
            )
        )
        adds = [a for a in DiskHpa().decide(view) if isinstance(a, AddReplica)]
        assert len(adds) == 2  # util 1.5 / 0.5 target -> 3 desired

    def test_ignores_cpu(self):
        view = make_view(
            services=(
                make_service(
                    "db",
                    (
                        make_replica(
                            "d1", cpu_request=0.5, cpu_usage=4.0,
                            disk_quota=50.0, disk_usage=25.0,
                        ),
                    ),
                ),
            )
        )
        assert DiskHpa().decide(view) == []

    def test_name_and_metric(self):
        assert DiskHpa().name == "disk"
        assert DiskHpa().metric == "disk"


class TestDiskIntegration:
    def test_disk_scaler_beats_hybrid_on_disk_load(self):
        """The extension's headline: spindle bandwidth only grows by
        replication, which only the disk scaler performs."""
        from repro.experiments.configs import disk_bound

        spec = disk_bound("high")
        from dataclasses import replace

        small = replace(spec, duration=120.0, specs=spec.specs[:3], loads=spec.loads[:3])
        disk = small.run("disk")
        hybrid = small.run("hybrid")
        assert disk.avg_response_time < hybrid.avg_response_time
        assert disk.horizontal_scale_ups > 0
        assert hybrid.horizontal_scale_ups == 0
