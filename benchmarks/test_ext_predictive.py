"""Extension — predictive scaling (the paper's "machine learning aspect").

Two findings, both honest:

1. **Where vertical scaling is instant, forecasting buys nothing.**  On the
   paper's stateless CPU workload, reactive HyScale already closes the loop
   within one monitor period (``docker update`` has no lead time), so the
   Holt forecaster lands within a few percent of the reactive baseline —
   prediction cannot beat a zero-lead-time actuator.
2. **Where capacity has a lead time, forecasting pays.**  Stateful replicas
   must transfer their state before serving (~7 s here), so the reactive
   scaler always eats the spike front; the predictor starts the spill
   during the ramp and arrives provisioned.
"""

import pytest

from repro import SimulationConfig
from repro.analysis.speedup import response_speedup
from repro.cluster import MicroserviceSpec
from repro.config import ClusterConfig
from repro.experiments.configs import ExperimentSpec, cpu_bound
from repro.experiments.report import format_table
from repro.workloads import CPU_BOUND, HighBurstLoad, ServiceLoad


def stateful_spikes() -> ExperimentSpec:
    specs = tuple(
        MicroserviceSpec(name=f"s{i}", max_replicas=16, stateful=True, state_size_mb=512.0)
        for i in range(6)
    )
    loads = tuple(
        ServiceLoad(
            s.name,
            CPU_BOUND,
            HighBurstLoad(base=5.5, peak=18.0, period=150.0, duty=0.3, phase=i * 25.0, ramp=6.0),
        )
        for i, s in enumerate(specs)
    )
    return ExperimentSpec(
        label="stateful-spikes",
        config=SimulationConfig(cluster=ClusterConfig(worker_nodes=10), seed=6),
        specs=specs,
        loads=loads,
        duration=240.0,
    )


@pytest.fixture(scope="module")
def stateless_runs(run_matrix):
    [runs] = run_matrix([cpu_bound("high")], ("hybridmem", "predictive"))
    return runs


@pytest.fixture(scope="module")
def stateful_runs(run_matrix):
    [runs] = run_matrix([stateful_spikes()], ("hybridmem", "predictive", "kubernetes"))
    return runs


def test_ext_predictive_regenerate(stateless_runs, stateful_runs):
    rows = []
    for scenario, runs in (("stateless cpu/high", stateless_runs), ("stateful spikes", stateful_runs)):
        for name, summary in sorted(runs.items()):
            rows.append(
                [
                    scenario,
                    name,
                    f"{summary.avg_response_time:.3f}",
                    f"{summary.p95_response_time:.2f}",
                    f"{summary.percent_failed:.2f}",
                ]
            )
    print()
    print(format_table(["scenario", "policy", "avg resp (s)", "p95 (s)", "failed %"], rows))

    stateless_ratio = response_speedup(stateless_runs["predictive"], stateless_runs["hybridmem"])
    stateful_ratio = response_speedup(stateful_runs["predictive"], stateful_runs["hybridmem"])
    print()
    print(f"predictive vs reactive, stateless: {stateless_ratio:.2f}x")
    print(f"predictive vs reactive, stateful : {stateful_ratio:.2f}x")
    # Finding 1: no instant-actuator regression worth speaking of.
    assert stateless_ratio > 0.9
    # Finding 2: a real win where capacity has a lead time.
    assert stateful_ratio > 1.05


def test_ext_predictive_fails_less_on_stateful(stateful_runs):
    assert (
        stateful_runs["predictive"].percent_failed
        <= stateful_runs["hybridmem"].percent_failed
    )


def test_ext_predictive_still_a_hyscale(stateful_runs):
    """It inherits the hybrid machinery: verticals plus (pre-)spills."""
    summary = stateful_runs["predictive"]
    assert summary.vertical_scale_ops > 0
    assert summary.horizontal_scale_ups > 0
