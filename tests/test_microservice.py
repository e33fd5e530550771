"""Tests for microservice specs and replica sets."""

import pytest

from repro.cluster.microservice import Microservice, MicroserviceSpec
from repro.cluster.resources import ResourceVector
from repro.errors import ClusterError

from tests.conftest import make_container


class TestSpecValidation:
    def test_valid_spec(self):
        spec = MicroserviceSpec(name="svc")
        assert spec.initial_allocation() == ResourceVector(0.5, 512.0, 50.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "s", "cpu_request": 0.0},
            {"name": "s", "mem_limit": 0.0},
            {"name": "s", "net_rate": -1.0},
            {"name": "s", "min_replicas": 0},
            {"name": "s", "min_replicas": 5, "max_replicas": 3},
            {"name": "s", "target_utilization": 0.0},
            {"name": "s", "target_utilization": 1.5},
            {"name": "s", "max_concurrency": 0},
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ClusterError):
            MicroserviceSpec(**kwargs)


class TestReplicaRegistry:
    def test_track_and_forget(self, overheads):
        service = Microservice(MicroserviceSpec(name="svc"))
        container = make_container("svc", overheads=overheads)
        service.track(container)
        assert service.replica_count == 1
        assert service.forget(container.container_id) is container
        assert service.replica_count == 0

    def test_track_wrong_service_rejected(self, overheads):
        service = Microservice(MicroserviceSpec(name="svc"))
        with pytest.raises(ClusterError):
            service.track(make_container("other", overheads=overheads))

    def test_double_track_rejected(self, overheads):
        service = Microservice(MicroserviceSpec(name="svc"))
        container = make_container("svc", overheads=overheads)
        service.track(container)
        with pytest.raises(ClusterError):
            service.track(container)

    def test_forget_unknown_rejected(self):
        service = Microservice(MicroserviceSpec(name="svc"))
        with pytest.raises(ClusterError):
            service.forget("ghost")

    def test_replica_indices_monotonic(self):
        service = Microservice(MicroserviceSpec(name="svc"))
        assert [service.next_replica_index() for _ in range(3)] == [0, 1, 2]

    def test_serving_excludes_booting(self, overheads):
        service = Microservice(MicroserviceSpec(name="svc"))
        running = make_container("svc", overheads=overheads)
        booting = make_container("svc", boot=5.0, overheads=overheads)
        service.track(running)
        service.track(booting)
        assert len(service.active_replicas()) == 2
        assert service.serving_replicas() == [running] if running.container_id < booting.container_id else [running]

    def test_stopped_excluded_from_active(self, overheads):
        service = Microservice(MicroserviceSpec(name="svc"))
        container = make_container("svc", overheads=overheads)
        service.track(container)
        container.terminate(1.0)
        assert service.replica_count == 0


class TestAggregates:
    def test_totals(self, overheads):
        service = Microservice(MicroserviceSpec(name="svc"))
        a = make_container("svc", cpu=0.5, mem=512.0, net=50.0, overheads=overheads)
        b = make_container("svc", cpu=1.5, mem=256.0, net=25.0, overheads=overheads)
        service.track(a)
        service.track(b)
        assert service.total_requested() == ResourceVector(2.0, 768.0, 75.0)
