"""Extension — node-failure resilience (dynamic fleet, paper future work).

"We also aim to support features such as the dynamic addition and removal
of machines" (Section VII).  This benchmark kills a loaded machine mid-run
under each algorithm and measures how user-perceived service degrades and
recovers: the in-flight requests on the dead box are lost (removal
failures), and the autoscaler must rebuild capacity elsewhere.
"""

from dataclasses import replace

import pytest

from benchmarks.conftest import print_figure
from repro.experiments.configs import cpu_bound

ALGORITHMS = ("kubernetes", "hybrid", "hybridmem")
CRASH_AT = 80.0


def run_with_crash(algorithm):
    spec = cpu_bound("low")
    shard = replace(spec.to_run_spec(algorithm), label=f"{spec.label}+crash")
    simulation = shard.build()
    simulation.faults.schedule_crash(CRASH_AT, "node-00")
    summary = simulation.run(shard.duration)
    return summary, simulation


@pytest.fixture(scope="module")
def runs():
    return {name: run_with_crash(name) for name in ALGORITHMS}


def test_ext_node_failure_regenerate(runs):
    print_figure(
        f"Extension: CPU-bound low burst with node-00 crashing at t={CRASH_AT:.0f}s",
        {name: summary for name, (summary, _) in runs.items()},
    )
    for name, (summary, sim) in runs.items():
        # The crash happened and cost something under every algorithm.
        assert sim.faults.log.crashes
        assert summary.removal_failures >= sim.faults.log.lost_requests
    # Every algorithm keeps the fleet serving after losing a machine.
    for name, (summary, _) in runs.items():
        assert summary.availability > 0.90, f"{name} collapsed after the crash"


def test_ext_node_failure_recovery(runs):
    """Replica floors are restored on the surviving machines."""
    for name, (_, sim) in runs.items():
        for service in sim.cluster.services.values():
            assert service.replica_count >= service.spec.min_replicas, (
                f"{name}: {service.name} below min replicas after crash"
            )


def test_ext_node_failure_hybrids_stay_fast(runs):
    """The paper's CPU-bound ordering survives a machine loss."""
    k8s = runs["kubernetes"][0]
    for hybrid in ("hybrid", "hybridmem"):
        assert runs[hybrid][0].avg_response_time < k8s.avg_response_time
