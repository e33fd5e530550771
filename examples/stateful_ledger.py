"""Stateful ledger: why state tilts the scaling decision vertical.

A payments ledger must keep every replica consistent — each extra copy adds
synchronization work to every request, and a new replica cannot serve until
it has pulled the full state.  This is the scenario Section IV-B uses to
motivate hybrid scaling: "the best scaling decisions are those that bring
forth more resources to a particular container (i.e., vertical scaling)".

We run the same bursty ledger workload twice — once stateless, once
stateful — under horizontal-only Kubernetes and the HyScale hybrid, and
print how the gap moves.

Run with::

    python examples/stateful_ledger.py
"""

from repro import HyScaleCpu, KubernetesHpa, Simulation, SimulationConfig
from repro.analysis import compare_runs
from repro.cluster import MicroserviceSpec
from repro.config import ClusterConfig
from repro.workloads import CPU_BOUND, HighBurstLoad, ServiceLoad


def run_variant(stateful: bool) -> dict:
    config = SimulationConfig(cluster=ClusterConfig(worker_nodes=6), seed=21)
    specs = [
        MicroserviceSpec(
            name=f"ledger-{i}",
            max_replicas=12,
            stateful=stateful,
            state_size_mb=512.0,
        )
        for i in range(3)
    ]
    loads = [
        ServiceLoad(
            service=spec.name,
            profile=CPU_BOUND,
            pattern=HighBurstLoad(base=5.0, peak=12.0, period=150.0, duty=0.3, phase=i * 50.0, ramp=6.0),
        )
        for i, spec in enumerate(specs)
    ]
    summaries = {}
    for policy in (KubernetesHpa(), HyScaleCpu()):
        summaries[policy.name] = Simulation.build(
            config=config,
            specs=specs,
            loads=loads,
            policy=policy,
            workload_label=f"ledger/stateful={stateful}",
        ).run(300.0)
    return summaries


def main() -> None:
    for stateful in (False, True):
        label = "STATEFUL" if stateful else "STATELESS"
        summaries = run_variant(stateful)
        report = compare_runs(f"ledger ({label.lower()})", summaries)
        print(f"=== {label} ===")
        print(report.to_table())
        speedup = report.speedups()["hybrid"]
        print(f"hybrid speedup over kubernetes: {speedup:.2f}x")
        print()
    print(
        "State makes horizontal scaling expensive (consistency + transfer),\n"
        "so the hybrid's fine-grained vertical scaling pulls further ahead."
    )


if __name__ == "__main__":
    main()
