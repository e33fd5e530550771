"""Extension — an unannounced flash crowd.

The paper's high-burst pattern repeats, so a scaler (or an operator) can
learn it.  A flash crowd happens once: a viral link sends traffic from
baseline to many times capacity on an exponential ramp and never comes
back.  This stresses pure reaction speed — the regime where the paper's
argument for fast, fine-grained vertical scaling is sharpest — and probes
what the predictive extension can and cannot do without a season to learn.
"""

import pytest

from repro import SimulationConfig
from repro.cluster import MicroserviceSpec
from repro.config import ClusterConfig
from repro.experiments.report import format_table
from repro.experiments.runner import Simulation
from repro.workloads import CPU_BOUND, FlashCrowdLoad, ServiceLoad

ALGORITHMS = ("kubernetes", "hybrid", "hybridmem", "predictive", "elasticdocker")


def crowd_spec():
    config = SimulationConfig(cluster=ClusterConfig(worker_nodes=8), seed=9)
    specs = [MicroserviceSpec(name="frontpage", max_replicas=16)]
    loads = [
        ServiceLoad(
            "frontpage",
            CPU_BOUND,
            # 2 req/s baseline surging toward ~36 req/s (~9 cores of work):
            # far beyond one machine, arriving within ~1 minute.
            FlashCrowdLoad(base=2.0, peak=36.0, onset=60.0, rise_tau=12.0, decay_tau=90.0),
        )
    ]
    return config, specs, loads


@pytest.fixture(scope="module")
def runs():
    config, specs, loads = crowd_spec()
    return {
        name: Simulation.build(
            config=config,
            specs=specs,
            loads=loads,
            policy=name,
            workload_label="flash-crowd",
        ).run(360.0)
        for name in ALGORITHMS
    }


def test_ext_flash_crowd_regenerate(benchmark, runs):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = [
        [name, f"{s.avg_response_time:.3f}", f"{s.p95_response_time:.2f}",
         f"{s.percent_failed:.2f}", str(s.horizontal_scale_ups)]
        for name, s in sorted(runs.items())
    ]
    print()
    print("Extension: unannounced flash crowd (2 -> 36 req/s in ~1 min)")
    print(format_table(["policy", "avg resp (s)", "p95 (s)", "failed %", "scale ups"], rows))
    for name, s in runs.items():
        benchmark.extra_info[f"{name}_rt"] = round(s.avg_response_time, 3)
    # The hybrids ride the ramp better than the baseline.
    assert runs["hybrid"].avg_response_time < runs["kubernetes"].avg_response_time
    assert runs["hybridmem"].avg_response_time < runs["kubernetes"].avg_response_time


def test_ext_flash_crowd_vertical_only_ceiling(runs):
    """A crowd beyond one machine defeats vertical-plus-migration."""
    assert runs["elasticdocker"].percent_failed > runs["hybrid"].percent_failed
    assert runs["elasticdocker"].avg_response_time > runs["hybrid"].avg_response_time


def test_ext_flash_crowd_predictive_rides_the_ramp(runs):
    """With no season to learn, the trend term is all the predictor has —
    it must at least not lose to its reactive parent on the ramp."""
    assert (
        runs["predictive"].avg_response_time
        <= runs["hybridmem"].avg_response_time * 1.10
    )


def test_ext_flash_crowd_everyone_survives(runs):
    for name in ("kubernetes", "hybrid", "hybridmem", "predictive"):
        assert runs[name].availability > 0.9, f"{name} collapsed under the crowd"
