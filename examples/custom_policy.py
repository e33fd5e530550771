"""Writing your own autoscaling policy.

The platform treats algorithms as plug-ins (Section V-C: the scaling
algorithm "can be specified at initialization").  Anything implementing
:class:`repro.core.AutoscalingPolicy` — a pure function from a
:class:`~repro.core.view.ClusterView` snapshot to a list of actions — can
drive the MONITOR.

This example implements a *predictive* toy policy, one of the paper's
future-work directions: it extrapolates each service's CPU usage linearly
from the last two observations and provisions for where usage is heading
rather than where it is.  It then races the predictor against the paper's
HyScale_CPU on the same spiky workload.

Run with::

    python examples/custom_policy.py
"""

from repro import Simulation, SimulationConfig
from repro.analysis import compare_runs
from repro.cluster import MicroserviceSpec
from repro.config import ClusterConfig
from repro.core import AutoscalingPolicy, HyScaleCpu, VerticalScale
from repro.core.actions import ScalingAction
from repro.core.view import ClusterView
from repro.experiments.configs import make_policy
from repro.workloads import CPU_BOUND, HighBurstLoad, ServiceLoad


class TrendScaler(AutoscalingPolicy):
    """Vertical-only scaler that provisions for the usage *trend*.

    For each replica it remembers the previous usage sample, extrapolates
    one monitor period ahead, and sizes the allocation so the *predicted*
    usage sits at the target utilization.  Purely vertical: a deliberately
    simple illustration, not a contribution.
    """

    name = "trend"

    def __init__(self, target: float = 0.5):
        self.target = target
        self._last_usage: dict[str, float] = {}

    def decide(self, view: ClusterView) -> list[ScalingAction]:
        actions: list[ScalingAction] = []
        for service in view.services:
            for replica in service.measurable_replicas():
                previous = self._last_usage.get(replica.container_id, replica.cpu_usage)
                self._last_usage[replica.container_id] = replica.cpu_usage
                predicted = max(0.0, replica.cpu_usage + (replica.cpu_usage - previous))
                wanted = max(0.1, predicted / self.target)
                node = view.node_of(replica)
                headroom = node.available.cpu
                new_request = min(wanted, replica.cpu_request + headroom)
                if abs(new_request - replica.cpu_request) > 0.05:
                    actions.append(
                        VerticalScale(replica.container_id, cpu_request=new_request, reason="trend")
                    )
        return actions


def main() -> None:
    config = SimulationConfig(cluster=ClusterConfig(worker_nodes=6), seed=5)
    specs = [
        MicroserviceSpec(name=f"svc-{i}", cpu_request=0.5, mem_limit=512.0, net_rate=50.0, max_replicas=10)
        for i in range(4)
    ]
    loads = [
        ServiceLoad(
            service=spec.name,
            profile=CPU_BOUND,
            pattern=HighBurstLoad(base=5.0, peak=16.0, period=150.0, duty=0.3, phase=i * 37.5, ramp=6.0),
        )
        for i, spec in enumerate(specs)
    ]

    summaries = {}
    for policy in (TrendScaler(), HyScaleCpu(), make_policy("kubernetes", config)):
        print(f"running under {policy.name} ...")
        summaries[policy.name] = Simulation.build(
            config=config,
            specs=specs,
            loads=loads,
            policy=policy,
            workload_label="custom-policy",
        ).run(300.0)

    print()
    print(compare_runs("custom-policy", summaries).to_table())


if __name__ == "__main__":
    main()
