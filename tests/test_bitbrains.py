"""Tests for the synthetic Bitbrains trace generator."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.bitbrains import (
    BitbrainsTrace,
    VmTrace,
    bitbrains_service_loads,
    generate_bitbrains_trace,
)


@pytest.fixture(scope="module")
def trace():
    return generate_bitbrains_trace(n_vms=40, duration=1200.0, interval=30.0, seed=7)


class TestGeneration:
    def test_shape(self, trace):
        assert trace.n_vms == 40
        assert trace.n_samples == 40  # 1200 / 30
        assert trace.duration == 1200.0

    def test_deterministic(self):
        a = generate_bitbrains_trace(n_vms=5, duration=300.0, interval=30.0, seed=3)
        b = generate_bitbrains_trace(n_vms=5, duration=300.0, interval=30.0, seed=3)
        for va, vb in zip(a.vms, b.vms):
            assert np.array_equal(va.cpu_pct, vb.cpu_pct)
            assert np.array_equal(va.mem_frac, vb.mem_frac)

    def test_seed_changes_trace(self):
        a = generate_bitbrains_trace(n_vms=5, duration=300.0, interval=30.0, seed=1)
        b = generate_bitbrains_trace(n_vms=5, duration=300.0, interval=30.0, seed=2)
        assert not np.array_equal(a.vms[0].cpu_pct, b.vms[0].cpu_pct)

    def test_cpu_within_bounds(self, trace):
        for vm in trace.vms:
            assert vm.cpu_pct.min() >= 0.0
            assert vm.cpu_pct.max() <= 100.0

    def test_mem_within_bounds(self, trace):
        for vm in trace.vms:
            assert vm.mem_frac.min() >= 0.05
            assert vm.mem_frac.max() <= 0.95

    def test_figure9_shape_cpu_spikier_than_mem(self, trace):
        """Figure 9: aggregate CPU is jagged, memory is smooth — compare
        normalized step-to-step variation."""
        cpu = trace.aggregate_cpu()
        mem = trace.aggregate_mem()
        cpu_roughness = np.abs(np.diff(cpu)).mean() / max(cpu.mean(), 1e-9)
        mem_roughness = np.abs(np.diff(mem)).mean() / max(mem.mean(), 1e-9)
        assert cpu_roughness > 2.0 * mem_roughness

    def test_correlated_bursts_keep_aggregate_spiky(self, trace):
        cpu = trace.aggregate_cpu()
        assert cpu.max() > 1.5 * np.median(cpu)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            generate_bitbrains_trace(n_vms=0)
        with pytest.raises(WorkloadError):
            generate_bitbrains_trace(n_vms=1, duration=10.0, interval=20.0)
        # Non-finite spans are rejected too, not turned into a ValueError.
        for duration, interval in ((float("nan"), 30.0), (600.0, float("nan")), (float("inf"), 30.0)):
            with pytest.raises(WorkloadError):
                generate_bitbrains_trace(n_vms=1, duration=duration, interval=interval)


class TestDataclasses:
    def test_vm_trace_validation(self):
        with pytest.raises(WorkloadError):
            VmTrace(vm_id=0, interval=30.0, cpu_pct=np.array([1.0]), mem_frac=np.array([0.5, 0.6]))
        with pytest.raises(WorkloadError):
            VmTrace(vm_id=0, interval=0.0, cpu_pct=np.array([1.0]), mem_frac=np.array([0.5]))

    def test_trace_validation(self):
        vm = VmTrace(vm_id=0, interval=30.0, cpu_pct=np.array([1.0]), mem_frac=np.array([0.5]))
        other = VmTrace(vm_id=1, interval=30.0, cpu_pct=np.array([1.0, 2.0]), mem_frac=np.array([0.5, 0.5]))
        with pytest.raises(WorkloadError):
            BitbrainsTrace(vms=(), interval=30.0)
        with pytest.raises(WorkloadError):
            BitbrainsTrace(vms=(vm, other), interval=30.0)

    def test_times(self, trace):
        times = trace.times()
        assert times[0] == 0.0
        assert times[1] == 30.0


class TestServiceLoads:
    def test_partitions_all_vms(self, trace):
        loads = bitbrains_service_loads(trace, n_services=8, base_rate=4.0)
        assert len(loads) == 8
        assert len({l.service for l in loads}) == 8

    def test_rates_follow_group_cpu(self, trace):
        loads = bitbrains_service_loads(trace, n_services=4, base_rate=4.0)
        for load in loads:
            # At 25% group CPU the rate should be the base rate.
            rates = [load.pattern.rate(t) for t in trace.times()]
            assert all(r >= 0 for r in rates)
            assert max(rates) > 0

    def test_memory_scaled_by_group_appetite(self, trace):
        loads = bitbrains_service_loads(trace, n_services=4, base_rate=4.0)
        footprints = {load.profile.mem_per_request for load in loads}
        assert len(footprints) > 1  # groups differ

    def test_validation(self, trace):
        with pytest.raises(WorkloadError):
            bitbrains_service_loads(trace, n_services=0)
        with pytest.raises(WorkloadError):
            bitbrains_service_loads(trace, n_services=trace.n_vms + 1)
        with pytest.raises(WorkloadError):
            bitbrains_service_loads(trace, n_services=2, base_rate=0.0)
