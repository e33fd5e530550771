"""Tests for microservice resource profiles."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.profiles import (
    CPU_BOUND,
    MEMORY_BOUND,
    MIXED,
    NETWORK_BOUND,
    MicroserviceProfile,
)
from repro.workloads.registry import registered_profiles, resolve_profile


class TestCanonicalProfiles:
    def test_registry_complete(self):
        # The paper's four profiles plus the disk extension.
        assert set(registered_profiles()) == {
            "cpu_bound",
            "memory_bound",
            "network_bound",
            "mixed",
            "disk_bound",
        }

    def test_resolve_profile(self):
        assert resolve_profile("cpu_bound") is CPU_BOUND
        with pytest.raises(WorkloadError):
            resolve_profile("gpu_bound")

    def test_cpu_bound_is_cpu_dominant(self):
        assert CPU_BOUND.cpu_per_request > MEMORY_BOUND.cpu_per_request
        assert CPU_BOUND.mem_per_request < MEMORY_BOUND.mem_per_request

    def test_network_bound_is_network_dominant(self):
        assert NETWORK_BOUND.net_per_request > CPU_BOUND.net_per_request * 10

    def test_mixed_uses_both(self):
        assert MIXED.cpu_per_request > 0.05
        assert MIXED.mem_per_request > 30.0


class TestRequestStamping:
    def test_demands_near_profile_means(self):
        rng = np.random.default_rng(0)
        requests = [MIXED.make_request("svc", 0.0, rng) for _ in range(2000)]
        assert np.mean([r.cpu_work for r in requests]) == pytest.approx(
            MIXED.cpu_per_request, rel=0.05
        )
        assert np.mean([r.mem_footprint for r in requests]) == pytest.approx(
            MIXED.mem_per_request, rel=0.05
        )

    def test_demands_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            request = CPU_BOUND.make_request("svc", 0.0, rng)
            assert request.cpu_work > 0
            assert request.mem_footprint > 0

    def test_zero_mean_stays_zero(self):
        profile = MicroserviceProfile(name="p", cpu_per_request=0.0, mem_per_request=1.0, net_per_request=0.0)
        rng = np.random.default_rng(2)
        request = profile.make_request("svc", 0.0, rng)
        assert request.cpu_work == 0.0
        assert request.net_mbits == 0.0

    def test_no_jitter_is_exact(self):
        profile = MicroserviceProfile(
            name="p", cpu_per_request=0.25, mem_per_request=10.0, net_per_request=1.0, jitter_sigma=0.0
        )
        rng = np.random.default_rng(3)
        request = profile.make_request("svc", 0.0, rng)
        assert request.cpu_work == 0.25

    def test_timeout_propagates(self):
        profile = MicroserviceProfile(
            name="p", cpu_per_request=0.1, mem_per_request=1.0, net_per_request=0.0, timeout=7.0
        )
        request = profile.make_request("svc", 0.0, np.random.default_rng(0))
        assert request.timeout == 7.0

    def test_arrival_time_stamped(self):
        request = CPU_BOUND.make_request("svc", 42.0, np.random.default_rng(0))
        assert request.arrival_time == 42.0
        assert request.service == "svc"


class TestValidation:
    def test_negative_demand_rejected(self):
        with pytest.raises(WorkloadError):
            MicroserviceProfile(name="p", cpu_per_request=-1.0, mem_per_request=0.0, net_per_request=0.0)

    def test_negative_jitter_rejected(self):
        with pytest.raises(WorkloadError):
            MicroserviceProfile(
                name="p", cpu_per_request=1.0, mem_per_request=0.0, net_per_request=0.0, jitter_sigma=-0.5
            )

    def test_bad_timeout_rejected(self):
        with pytest.raises(WorkloadError):
            MicroserviceProfile(
                name="p", cpu_per_request=1.0, mem_per_request=0.0, net_per_request=0.0, timeout=0.0
            )

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field",
        ["cpu_per_request", "mem_per_request", "net_per_request", "disk_per_request", "jitter_sigma", "timeout"],
    )
    def test_non_finite_rejected(self, field, value):
        kwargs = dict(name="p", cpu_per_request=1.0, mem_per_request=1.0, net_per_request=1.0)
        with pytest.raises(WorkloadError):
            MicroserviceProfile(**{**kwargs, field: value})
