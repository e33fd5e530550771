"""The ``Container.advance``/:class:`ResourceGrants` surface.

The node's schedulers hand each container one frozen grant bundle per
phase through a single ``advance(grants, dt)`` entry point.
"""

import dataclasses

import pytest

from repro.cluster import ResourceGrants
from repro.workloads.requests import Phase, Request

from tests.conftest import make_container


def make_request(cpu=0.5, mem=10.0, net=0.0, disk=0.0, timeout=30.0) -> Request:
    kwargs = dict(
        service="svc",
        arrival_time=0.0,
        cpu_work=cpu,
        mem_footprint=mem,
        net_mbits=net,
        timeout=timeout,
    )
    if disk:
        kwargs["disk_mb"] = disk
    return Request(**kwargs)


class TestResourceGrants:
    def test_frozen(self):
        grants = ResourceGrants(cpu=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            grants.cpu = 2.0

    def test_defaults_grant_nothing(self):
        grants = ResourceGrants()
        assert grants.cpu is None
        assert grants.disk is None
        assert grants.net is None
        assert grants.contention == 1.0

    def test_exported_from_top_level(self):
        import repro

        assert repro.ResourceGrants is ResourceGrants


class TestAdvanceDispatch:
    def test_cpu_grant_drives_compute(self, overheads):
        container = make_container(overheads=overheads)
        request = make_request(cpu=0.5)
        container.accept(request, 0.0)
        container.advance(ResourceGrants(cpu=1.0), dt=1.0)
        assert request.remaining(Phase.CPU) == 0.0

    def test_empty_grants_touch_nothing(self, overheads):
        container = make_container(overheads=overheads)
        request = make_request(cpu=0.5)
        container.accept(request, 0.0)
        container.advance(ResourceGrants(), dt=1.0)
        assert request.remaining(Phase.CPU) == 0.5
        assert container.disk_usage == 0.0
        assert container.net_usage == 0.0

    def test_net_grant_drives_transfer(self, overheads):
        container = make_container(overheads=overheads)
        request = make_request(cpu=0.0, net=10.0)
        container.accept(request, 0.0)
        container.advance(ResourceGrants(net=10.0), dt=1.0)
        assert container.net_usage == 10.0
