"""Extension — stateful microservices (Section IV-B's motivating case).

"Horizontally scaling microservices that need to preserve state is
non-trivial as it introduces the need for a consistency model to maintain
state amongst all replicas.  Hence, in these scenarios, the best scaling
decisions are those that bring forth more resources to a particular
container (i.e., vertical scaling)."

This benchmark quantifies that sentence: the same CPU-bound workload, run
stateless and stateful (per-extra-replica consistency overhead + state
transfer on replica creation), under horizontal-only Kubernetes and the
hybrid.  The hybrid's advantage must *widen* on the stateful variant.
"""

import pytest

from benchmarks.conftest import print_figure
from repro.analysis.speedup import response_speedup
from repro.cluster import MicroserviceSpec
from repro.experiments.configs import Scale, _base_config
from repro.experiments.runner import Simulation
from repro.workloads import CPU_BOUND, HighBurstLoad, ServiceLoad


def build(stateful: bool):
    scale = Scale.current()
    config = _base_config(scale, seed=4)
    specs = []
    loads = []
    for i in range(scale.n_services):
        name = f"ledger-{i:02d}"
        specs.append(
            MicroserviceSpec(
                name=name, max_replicas=16, stateful=stateful, state_size_mb=512.0
            )
        )
        loads.append(
            ServiceLoad(
                service=name,
                profile=CPU_BOUND,
                # Spikes stay within one machine's vertical range: the
                # regime Section IV-B argues about.  (Spiking *past* a node
                # with stateful services is hard for every reactive scaler:
                # new replicas pay the state transfer mid-spike.)
                pattern=HighBurstLoad(
                    base=5.0 * scale.rate_scale,
                    peak=12.0 * scale.rate_scale,
                    period=150.0,
                    duty=0.3,
                    phase=150.0 * i / scale.n_services,
                    ramp=6.0,
                ),
            )
        )
    return config, specs, loads, scale.duration


def run_variant(stateful: bool, algorithm: str):
    config, specs, loads, duration = build(stateful)
    return Simulation.build(
        config=config,
        specs=specs,
        loads=loads,
        policy=algorithm,
        workload_label=f"stateful={stateful}",
    ).run(duration)


@pytest.fixture(scope="module")
def matrix():
    return {
        (stateful, algorithm): run_variant(stateful, algorithm)
        for stateful in (False, True)
        for algorithm in ("kubernetes", "hybrid")
    }


def test_ext_stateful_regenerate(benchmark, matrix):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_figure(
        "Extension: stateless variant (high burst)",
        {alg: matrix[(False, alg)] for alg in ("kubernetes", "hybrid")},
    )
    print_figure(
        "Extension: stateful variant (consistency overhead + state transfer)",
        {alg: matrix[(True, alg)] for alg in ("kubernetes", "hybrid")},
    )
    stateless_gap = response_speedup(matrix[(False, "hybrid")], matrix[(False, "kubernetes")])
    stateful_gap = response_speedup(matrix[(True, "hybrid")], matrix[(True, "kubernetes")])
    print()
    print(f"hybrid speedup over kubernetes, stateless: {stateless_gap:.2f}x")
    print(f"hybrid speedup over kubernetes, stateful : {stateful_gap:.2f}x")
    benchmark.extra_info["stateless_gap"] = round(stateless_gap, 3)
    benchmark.extra_info["stateful_gap"] = round(stateful_gap, 3)
    # Section IV-B, quantified: state widens the hybrid's advantage.
    assert stateful_gap > stateless_gap
    assert stateful_gap > 1.2


def test_ext_stateful_consistency_costs_kubernetes(matrix):
    """Kubernetes' fleets pay the consistency tax: its stateful runs are
    slower than its stateless runs on identical load."""
    assert (
        matrix[(True, "kubernetes")].avg_response_time
        > matrix[(False, "kubernetes")].avg_response_time
    )


def test_ext_stateful_hybrid_barely_affected(matrix):
    """The hybrid keeps replica counts low, so the consistency model barely
    touches it."""
    hybrid_penalty = (
        matrix[(True, "hybrid")].avg_response_time
        / matrix[(False, "hybrid")].avg_response_time
    )
    k8s_penalty = (
        matrix[(True, "kubernetes")].avg_response_time
        / matrix[(False, "kubernetes")].avg_response_time
    )
    assert hybrid_penalty < k8s_penalty
