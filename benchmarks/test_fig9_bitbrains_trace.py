"""Figure 9 — the Bitbrains Rnd workload trace (CPU and memory aggregate).

The paper plots the trace's CPU % and memory usage "averaged over all
microservices": CPU is jagged with repeated spikes (high-burst-like),
memory is smoother.  This benchmark regenerates our synthetic stand-in and
asserts those published characteristics.
"""

import numpy as np
import pytest

from repro.experiments.configs import Scale
from repro.experiments.report import trace_series_table
from repro.workloads.bitbrains import generate_bitbrains_trace


@pytest.fixture(scope="module")
def trace():
    scale = Scale.current()
    return generate_bitbrains_trace(
        n_vms=scale.bitbrains_vms,
        duration=scale.duration,
        interval=max(10.0, scale.duration / 120.0),
        seed=0,
    )


def test_fig9_regenerate(trace):
    cpu = trace.aggregate_cpu()
    mem = trace.aggregate_mem()
    print()
    print(
        trace_series_table(
            list(trace.times()),
            list(cpu),
            list(mem),
            stride=max(1, trace.n_samples // 20),
            title=f"Figure 9: Bitbrains Rnd aggregate ({trace.n_vms} VMs, synthetic)",
        )
    )


def test_fig9_cpu_is_bursty(trace):
    cpu = trace.aggregate_cpu()
    assert cpu.max() > 1.5 * np.median(cpu), "aggregate CPU must show spikes"


def test_fig9_memory_smoother_than_cpu(trace):
    cpu = trace.aggregate_cpu()
    mem = trace.aggregate_mem()
    cpu_roughness = np.abs(np.diff(cpu)).mean() / max(float(cpu.mean()), 1e-9)
    mem_roughness = np.abs(np.diff(mem)).mean() / max(float(mem.mean()), 1e-9)
    assert cpu_roughness > 2.0 * mem_roughness


def test_fig9_levels_plausible(trace):
    """Managed-hosting VMs idle low on CPU with moderate memory residency."""
    assert 3.0 < float(trace.aggregate_cpu().mean()) < 60.0
    assert 0.2 < float(trace.aggregate_mem().mean()) < 0.8
