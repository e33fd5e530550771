"""Tests for the Section III stress containers."""

import pytest

from repro.cluster.grants import ResourceGrants
from repro.cluster.stress import CpuStressContainer, NetStressContainer
from repro.workloads.requests import Request

from tests.conftest import make_container


class TestCpuStress:
    def test_always_saturates(self, overheads):
        stress = CpuStressContainer("stress", cpu_request=1.0, overheads=overheads)
        assert stress.cpu_demand(4.0) == 4.0

    def test_burns_whatever_granted(self, overheads):
        stress = CpuStressContainer("stress", cpu_request=1.0, overheads=overheads)
        stress.advance(ResourceGrants(cpu=2.5), 1.0)
        assert stress.cpu_usage == 2.5

    def test_contends_with_microservice(self, node, overheads):
        service = make_container("svc", cpu=1.0, overheads=overheads)
        stress = CpuStressContainer("stress", cpu_request=1.0, overheads=overheads)
        node.add_container(service, enforce_capacity=False)
        node.add_container(stress, enforce_capacity=False)
        request = Request(service="svc", arrival_time=0.0, cpu_work=100.0)
        service.accept(request, 0.0)
        node.step(1.0, 1.0)
        # Equal shares: the microservice gets half of the 4 cores.
        assert request.cpu_done == pytest.approx(2.0)

    def test_share_ratio_respected(self, node, overheads):
        """Paper example: microservice 1024 shares vs stress 5120 => 1/6."""
        service = make_container("svc", cpu=1.0, overheads=overheads)
        stress = CpuStressContainer("stress", cpu_request=5.0, overheads=overheads)
        node.add_container(service, enforce_capacity=False)
        node.add_container(stress, enforce_capacity=False)
        request = Request(service="svc", arrival_time=0.0, cpu_work=100.0)
        service.accept(request, 0.0)
        node.step(1.0, 1.0)
        assert request.cpu_done == pytest.approx(4.0 / 6.0, rel=0.01)


class TestNetStress:
    def test_constant_offered_load(self, overheads):
        stress = NetStressContainer("net", net_rate=100.0, offered_mbps=500.0, overheads=overheads)
        assert stress.net_demand(1.0) == 500.0
        assert stress.net_demand(0.25) == 500.0

    def test_tracks_granted_throughput(self, overheads):
        stress = NetStressContainer("net", net_rate=100.0, offered_mbps=500.0, overheads=overheads)
        stress.advance(ResourceGrants(net=80.0), 1.0)
        assert stress.net_usage == 80.0

    def test_hogs_free_bandwidth_on_node(self, node, overheads):
        stress = NetStressContainer("net", net_rate=900.0, offered_mbps=2000.0, overheads=overheads)
        node.add_container(stress, enforce_capacity=False)
        node.step(1.0, 1.0)
        assert stress.net_usage > 800.0

    def test_stopped_stress_demands_nothing(self, overheads):
        stress = NetStressContainer("net", net_rate=100.0, offered_mbps=500.0, overheads=overheads)
        stress.terminate(1.0)
        assert stress.net_demand(1.0) == 0.0
        cpu_stress = CpuStressContainer("s", cpu_request=1.0, overheads=overheads)
        cpu_stress.terminate(1.0)
        assert cpu_stress.cpu_demand(4.0) == 0.0
