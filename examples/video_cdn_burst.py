"""Video CDN edge: why network-bound services need a network scaler.

A video clip service pushes multi-megabit responses.  CPU-driven
autoscalers barely see the pressure — egress saturates the machine's tx
queues long before CPU utilization crosses any threshold (the paper's
Section III-C / Figure 8 finding).  We replay a viral-clip burst under
Kubernetes' CPU-driven HPA and the paper's dedicated network scaling
algorithm and print both the comparison and the per-replica bandwidth story.

Run with::

    python examples/video_cdn_burst.py
"""

from repro import Simulation, SimulationConfig
from repro.analysis import compare_runs
from repro.analysis.speedup import response_drop_percent
from repro.cluster import MicroserviceSpec
from repro.config import ClusterConfig
from repro.workloads import HighBurstLoad, NETWORK_BOUND, ServiceLoad

SERVICES = ("clips-eu", "clips-us", "clips-apac")


def main() -> None:
    config = SimulationConfig(cluster=ClusterConfig(worker_nodes=6), seed=11)

    specs = [
        MicroserviceSpec(
            name=name,
            cpu_request=0.5,
            mem_limit=512.0,
            net_rate=100.0,  # guaranteed Mbit/s per replica
            min_replicas=1,
            max_replicas=10,
            target_utilization=0.5,
            profile="network_bound",
        )
        for name in SERVICES
    ]
    loads = [
        ServiceLoad(
            service=name,
            profile=NETWORK_BOUND,
            # A clip goes viral: 4 req/s baseline spikes to 14 req/s
            # (~170 Mbit/s of egress per service).
            pattern=HighBurstLoad(base=4.0, peak=14.0, period=150.0, duty=0.3, phase=i * 50.0, ramp=6.0),
        )
        for i, name in enumerate(SERVICES)
    ]

    summaries = {}
    for algorithm in ("kubernetes", "network"):
        print(f"running CDN burst under {algorithm} ...")
        summaries[algorithm] = Simulation.build(
            config=config,
            specs=specs,
            loads=loads,
            policy=algorithm,
            workload_label="video-cdn",
        ).run(300.0)

    report = compare_runs("video-cdn", summaries)
    print()
    print(report.to_table())
    drop = response_drop_percent(summaries["network"], summaries["kubernetes"])
    print()
    print(f"network scaler response-time change vs kubernetes: {drop:+.1f} %")
    print("(the paper reports drops of up to 59.22 % under high-burst network loads)")


if __name__ == "__main__":
    main()
