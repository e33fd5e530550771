"""Flash sale: spiky storefront traffic under all four autoscalers.

The paper's motivating scenario — "data centres become over-encumbered
during peak usage hours and underutilized during off-peak hours" — at its
sharpest: a retail flash sale where checkout traffic spikes to several
times its baseline every few minutes.  We run the same fleet of CPU-bound
storefront services under Kubernetes HPA, both HyScale hybrids, and the
network scaler, then print the Figure-6-style comparison and the headline
speedups.

Run with::

    python examples/flash_sale.py
"""

from repro import Simulation, SimulationConfig
from repro.analysis import compare_runs
from repro.cluster import MicroserviceSpec
from repro.config import ClusterConfig
from repro.workloads import CPU_BOUND, HighBurstLoad, ServiceLoad

SERVICES = ("storefront", "checkout", "inventory", "recommendations")


def build_fleet() -> tuple[list[MicroserviceSpec], list[ServiceLoad]]:
    """Four CPU-bound services; each spikes at a different moment."""
    specs, loads = [], []
    for i, name in enumerate(SERVICES):
        specs.append(
            MicroserviceSpec(
                name=name,
                cpu_request=0.5,
                mem_limit=512.0,
                net_rate=50.0,
                min_replicas=1,
                max_replicas=12,
                target_utilization=0.5,
                profile="cpu_bound",
            )
        )
        loads.append(
            ServiceLoad(
                service=name,
                profile=CPU_BOUND,
                pattern=HighBurstLoad(
                    base=5.0,
                    peak=18.0,
                    period=150.0,
                    duty=0.3,
                    phase=i * 150.0 / len(SERVICES),
                    ramp=6.0,
                ),
            )
        )
    return specs, loads


def main() -> None:
    config = SimulationConfig(cluster=ClusterConfig(worker_nodes=8), seed=7)
    specs, loads = build_fleet()

    summaries = {}
    for algorithm in ("kubernetes", "hybrid", "hybridmem", "network"):
        print(f"running flash sale under {algorithm} ...")
        summaries[algorithm] = Simulation.build(
            config=config,
            specs=specs,
            loads=loads,
            policy=algorithm,
            workload_label="flash-sale",
        ).run(300.0)

    report = compare_runs("flash-sale", summaries)
    print()
    print(report.to_table())
    print()
    for name, speedup in sorted(report.speedups().items()):
        if name != "kubernetes":
            print(f"{name:10s} speedup over kubernetes: {speedup:.2f}x")
    print(f"fastest algorithm: {report.fastest()}")


if __name__ == "__main__":
    main()
