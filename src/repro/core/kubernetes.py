"""The Kubernetes horizontal autoscaling algorithm (Section IV-A1).

The paper benchmarks HyScale against this exact controller, restated here:

    utilization_r = usage_r / requested_r
    NumReplicas_m = ceil( sum(utilization_r) / Target_m )

with two anti-thrash features: minimum scale-up / scale-down intervals
(3 s / 50 s in the experiments) and a 10 % tolerance band —

    rescale only if | average(utilization_r) / Target_m ... | exceeds 0.1

(the paper writes ``|average(usage_r)/Target_m − 1| > 0.1``; usages and
targets are both "measured as a percentage", i.e. utilizations).

The same arithmetic drives the paper's network scaling algorithm with
bandwidth in place of CPU, so the controller here is parameterized by a
metric extractor and :class:`~repro.core.network.NetworkHpa` subclasses it.
"""

from __future__ import annotations

import math

from repro.core.actions import AddReplica, RemoveReplica, ScalingAction
from repro.core.intervals import RescaleIntervalGuard
from repro.core.policy import AutoscalingPolicy
from repro.core.view import ClusterView, ReplicaView, ServiceView
from repro.errors import PolicyError


# Module-level sort key: victim selection runs on the per-step reconcile
# path and must not construct a fresh function object per call (HOT001).
def _by_container_id(replica: ReplicaView) -> str:
    return replica.container_id


class KubernetesHpa(AutoscalingPolicy):
    """Horizontal-only, threshold-driven scaling on one utilization metric."""

    name = "kubernetes"
    #: Which utilization signal drives the controller; the network algorithm
    #: overrides this ("replaces CPU usage for outgoing network bandwidth
    #: usage in its calculations", Section IV-A2).
    metric = "cpu"

    def __init__(
        self,
        *,
        scale_up_interval: float = 3.0,
        scale_down_interval: float = 50.0,
        tolerance: float = 0.1,
    ):
        if tolerance < 0:
            raise PolicyError("tolerance must be non-negative")
        self.guard = RescaleIntervalGuard(scale_up_interval, scale_down_interval)
        self.tolerance = float(tolerance)

    # ------------------------------------------------------------------
    # Metric plumbing
    # ------------------------------------------------------------------
    def utilization(self, replica: ReplicaView) -> float:
        """``utilization_r`` for the controller's metric."""
        if self.metric == "cpu":
            return replica.cpu_utilization
        if self.metric == "memory":
            return replica.mem_utilization
        if self.metric == "network":
            return replica.net_utilization
        if self.metric == "disk":
            return replica.disk_utilization
        raise PolicyError(f"unknown metric {self.metric!r}")

    # ------------------------------------------------------------------
    # Controller
    # ------------------------------------------------------------------
    def decide(self, view: ClusterView) -> list[ScalingAction]:
        """One reconciliation pass over every service."""
        actions: list[ScalingAction] = []
        for service in view.services:
            actions.extend(self._reconcile(service, view.now))
        return actions

    def desired_replicas(self, service: ServiceView) -> int:
        """``ceil(sum(utilization_r) / Target_m)``, clamped to the bounds."""
        replicas = service.measurable_replicas()
        if not replicas:
            return max(service.min_replicas, service.replica_count)
        total_utilization = sum(self.utilization(r) for r in replicas)
        desired = math.ceil(total_utilization / service.target_utilization - 1e-9)
        return max(service.min_replicas, min(service.max_replicas, desired))

    def within_tolerance(self, service: ServiceView) -> bool:
        """The 10 % dead band: skip rescaling near the target."""
        replicas = service.measurable_replicas()
        if not replicas:
            return False
        avg_utilization = sum(self.utilization(r) for r in replicas) / len(replicas)
        return abs(avg_utilization / service.target_utilization - 1.0) <= self.tolerance

    def average_utilization(self, service: ServiceView) -> float:
        """Mean ``utilization_r`` over measurable replicas (0.0 when none)."""
        replicas = service.measurable_replicas()
        if not replicas:
            return 0.0
        return sum(self.utilization(r) for r in replicas) / len(replicas)

    def _reconcile(self, service: ServiceView, now: float) -> list[ScalingAction]:
        current = service.replica_count
        actions, verdict = self._reconcile_actions(service, now)
        if self.tracer is not None:
            value = self.average_utilization(service)
            threshold = service.target_utilization
            self.tracer.record_metric(
                service=service.name, metric=self.metric, value=value, threshold=threshold,
                verdict=verdict,
            )
            for action in actions:
                if isinstance(action, AddReplica):
                    self.tracer.record_action(
                        kind="add-replica", service=service.name, reason=action.reason,
                        metric=self.metric, value=value, threshold=threshold,
                        detail=f"replicas {current}->{current + len(actions)}",
                    )
                else:
                    self.tracer.record_action(
                        kind="remove-replica", service=service.name,
                        target=getattr(action, "container_id", ""), reason=action.reason,
                        metric=self.metric, value=value, threshold=threshold,
                        detail=f"replicas {current}->{current - len(actions)}",
                    )
        return actions

    def _reconcile_actions(self, service: ServiceView, now: float) -> tuple[list[ScalingAction], str]:
        """The controller's decision plus a verdict label for the trace."""
        current = service.replica_count
        if current == 0:
            # Nothing running (first tick, or everything OOM-killed): restore
            # the user-specified minimum.
            return (
                [self._new_replica(service, reason="bootstrap") for _ in range(service.min_replicas)],
                "bootstrap",
            )

        desired = self.desired_replicas(service)
        # The replica bounds are hard constraints; the tolerance band only
        # mutes *metric-driven* rescaling inside the legal range.
        if service.min_replicas <= current <= service.max_replicas and self.within_tolerance(service):
            return [], "within-tolerance"
        if desired == current:
            return [], "hold"

        if desired > current:
            if not self.guard.can_scale_up(service.name, now):
                return [], "scale-up-blocked"
            self.guard.record_scale_up(service.name, now)
            return (
                [self._new_replica(service, reason="scale-up") for _ in range(desired - current)],
                "scale-up",
            )

        if not self.guard.can_scale_down(service.name, now):
            return [], "scale-down-blocked"
        self.guard.record_scale_down(service.name, now)
        victims = self._scale_in_victims(service, current - desired)
        return [RemoveReplica(v.container_id, reason="scale-down") for v in victims], "scale-down"

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _new_replica(self, service: ServiceView, reason: str) -> AddReplica:
        """Horizontal scale-out copies the service's base allocation —
        replication "copies over" resource allocations (Section I)."""
        return AddReplica(
            service=service.name,
            cpu_request=service.base_cpu_request,
            mem_limit=service.base_mem_limit,
            net_rate=service.base_net_rate,
            exclude_hosting=False,
            reason=reason,
        )

    def _scale_in_victims(self, service: ServiceView, count: int) -> list[ReplicaView]:
        """Newest replicas die first (Kubernetes' default victim order)."""
        ordered = sorted(service.replicas, key=_by_container_id, reverse=True)
        return ordered[:count]
