"""HYSCALE_CPU — the hybrid CPU autoscaling algorithm (Section IV-B1).

Per monitor period the algorithm:

0. ensures every service runs within its [min, max] replica bounds
   ("these algorithms first ensure the minimum and maximum number of
   replicas are running for fault-tolerance benefits");

1. computes, per microservice ``m``::

       MissingCPUs_m = (sum(usage_r) - sum(requested_r) * Target_m) / Target_m

   — zero means perfectly provisioned, negative means reclaimable slack,
   positive means the service is starved;

2. **reclamation phase** — for services with slack, vertically scales each
   replica down by::

       ReclaimableCPUs_r = requested_r - usage_r / (Target_m * 0.9)

   removing a replica entirely when its allocation would drop below the
   0.1-CPU minimum threshold (subject to min-replica bounds and the
   horizontal rescale interval);

3. **acquisition phase** — for starved services, vertically scales each
   replica up by::

       RequiredCPUs_r = usage_r / (Target_m * 0.9) - requested_r
       AcquiredCPUs_r = min(RequiredCPUs_r, AvailableCPUs_node)

   and, if vertical scaling could not cover the whole deficit, scales
   horizontally onto nodes *not* hosting the service that advertise at
   least the baseline memory requirement and the 0.25-CPU spawn threshold.

Horizontal operations respect the Kubernetes-style rescale intervals;
vertical operations are exempt ("vertical scaling must perform fine-grained
adjustments quickly and frequently").
"""

from __future__ import annotations

from repro.cluster.resources import ResourceVector
from repro.core.actions import AddReplica, RemoveReplica, ScalingAction, VerticalScale
from repro.core.intervals import RescaleIntervalGuard
from repro.core.policy import AutoscalingPolicy, NodeLedger
from repro.core.view import ClusterView, ReplicaView, ServiceView
from repro.errors import PolicyError

#: Numerical slack below which a resource deficit is treated as zero.
EPSILON = 1e-6


# Sort keys used inside the per-step decide path are module-level so the
# hot loop does not construct a fresh function object every step (HOT001).
def _by_container_id(replica: ReplicaView) -> str:
    return replica.container_id


def _by_cpu_utilization(replica: ReplicaView) -> float:
    return replica.cpu_utilization


def _by_cpu_utilization_desc(replica: ReplicaView) -> float:
    return -replica.cpu_utilization


class HyScaleCpu(AutoscalingPolicy):
    """Hybrid vertical+horizontal scaling driven by CPU usage."""

    name = "hybrid"

    def __init__(
        self,
        *,
        scale_up_interval: float = 3.0,
        scale_down_interval: float = 50.0,
        min_cpu_removal: float = 0.1,
        min_cpu_spawn: float = 0.25,
        headroom: float = 0.9,
    ):
        if min_cpu_removal <= 0 or min_cpu_spawn <= 0:
            raise PolicyError("CPU thresholds must be positive")
        if min_cpu_spawn < min_cpu_removal:
            raise PolicyError("spawn threshold must be >= removal threshold")
        if not 0 < headroom <= 1:
            raise PolicyError("headroom must be in (0, 1]")
        self.guard = RescaleIntervalGuard(scale_up_interval, scale_down_interval)
        #: Remove a replica whose allocation would fall below this (paper: 0.1 CPUs).
        self.min_cpu_removal = float(min_cpu_removal)
        #: Never spawn a replica smaller than this (paper: 0.25 CPUs).
        self.min_cpu_spawn = float(min_cpu_spawn)
        #: The paper's ``Target * 0.9`` safety factor: size allocations for
        #: 90 % of target so small fluctuations do not immediately starve.
        self.headroom = float(headroom)

    # ------------------------------------------------------------------
    # The paper's equations
    # ------------------------------------------------------------------
    def missing_cpus(self, service: ServiceView) -> float:
        """``MissingCPUs_m`` — the service-wide deficit (+) or slack (−)."""
        usage = service.total_cpu_usage()
        requested = service.total_cpu_requested()
        target = service.target_utilization
        return (usage - requested * target) / target

    def reclaimable_cpus(self, replica: ReplicaView, target: float) -> float:
        """``ReclaimableCPUs_r`` — slack this replica can surrender."""
        return replica.cpu_request - replica.cpu_usage / (target * self.headroom)

    def required_cpus(self, replica: ReplicaView, target: float) -> float:
        """``RequiredCPUs_r`` — extra CPU this replica wants."""
        return replica.cpu_usage / (target * self.headroom) - replica.cpu_request

    # ------------------------------------------------------------------
    # Decision pass
    # ------------------------------------------------------------------
    def decide(self, view: ClusterView) -> list[ScalingAction]:
        """Reclaim first, then acquire — so freed resources are immediately
        redistributable within the same period (Section IV-B1)."""
        actions: list[ScalingAction] = []
        ledger = NodeLedger(view, tracer=self.tracer)
        removed: set[str] = set()

        for service in view.services:
            actions.extend(self._enforce_bounds(service, view, ledger, removed))

        missing = {s.name: self.missing_cpus(s) for s in view.services}
        if self.tracer is not None:
            for service in view.services:
                deficit = missing[service.name]
                verdict = (
                    "acquire" if deficit > EPSILON else "reclaim" if deficit < -EPSILON else "balanced"
                )
                self.tracer.record_metric(
                    service=service.name, metric="cpu",
                    value=_service_utilization(service), threshold=service.target_utilization,
                    verdict=verdict,
                )
                self.tracer.record_metric(
                    service=service.name, metric="missing-cpu",
                    value=deficit, threshold=0.0, verdict=verdict,
                )

        for service in view.services:
            if missing[service.name] < -EPSILON:
                actions.extend(self._reclaim(service, view, ledger, removed))

        # Neediest services acquire first so contention for freed capacity
        # resolves in favour of the largest deficits.
        starving = sorted(
            (s for s in view.services if missing[s.name] > EPSILON),
            key=lambda s: -missing[s.name],
        )
        for service in starving:
            actions.extend(self._acquire(service, view, ledger, missing[service.name]))
        return actions

    # ------------------------------------------------------------------
    # Phase 0: replica bounds
    # ------------------------------------------------------------------
    def _enforce_bounds(
        self,
        service: ServiceView,
        view: ClusterView,
        ledger: NodeLedger,
        removed: set[str],
    ) -> list[ScalingAction]:
        actions: list[ScalingAction] = []
        deficit = service.min_replicas - service.replica_count
        for _ in range(max(0, deficit)):
            placed = self._place_replica(service, ledger, self.min_cpu_spawn, reason="min-replicas")
            if placed is None:
                break
            actions.append(placed)
            if self.tracer is not None:
                self.tracer.record_action(
                    kind="add-replica", service=service.name, target=placed.node or "",
                    reason="min-replicas", metric="replicas",
                    value=float(service.replica_count), threshold=float(service.min_replicas),
                    detail=f"cpu {placed.cpu_request:.3f} on {placed.node}",
                )

        excess = service.replica_count - service.max_replicas
        if excess > 0:
            victims = sorted(service.replicas, key=_by_container_id, reverse=True)[:excess]
            for victim in victims:
                actions.append(RemoveReplica(victim.container_id, reason="max-replicas"))
                removed.add(victim.container_id)
                ledger.release(victim.node, _reservation(victim))
                if self.tracer is not None:
                    self.tracer.record_action(
                        kind="remove-replica", service=service.name, target=victim.container_id,
                        reason="max-replicas", metric="replicas",
                        value=float(service.replica_count), threshold=float(service.max_replicas),
                        detail=f"from {victim.node}",
                    )
        return actions

    # ------------------------------------------------------------------
    # Phase 1: reclamation
    # ------------------------------------------------------------------
    def _reclaim(
        self,
        service: ServiceView,
        view: ClusterView,
        ledger: NodeLedger,
        removed: set[str],
    ) -> list[ScalingAction]:
        actions: list[ScalingAction] = []
        target = service.target_utilization
        # Idlest replicas first: they have the most to give back and are the
        # natural removal candidates.
        replicas = sorted(service.measurable_replicas(), key=_by_cpu_utilization)
        live = service.replica_count

        for replica in replicas:
            if replica.container_id in removed:
                continue
            reclaimable = self.reclaimable_cpus(replica, target)
            if reclaimable <= EPSILON:
                continue
            new_request = replica.cpu_request - reclaimable

            if new_request < self.min_cpu_removal:
                if live > service.min_replicas and self.guard.can_scale_down(service.name, view.now):
                    actions.append(RemoveReplica(replica.container_id, reason="reclaim-remove"))
                    removed.add(replica.container_id)
                    ledger.release(replica.node, _reservation(replica))
                    self.guard.record_scale_down(service.name, view.now)
                    live -= 1
                    if self.tracer is not None:
                        self.tracer.record_action(
                            kind="remove-replica", service=service.name,
                            target=replica.container_id, reason="reclaim-remove", metric="cpu",
                            value=replica.cpu_utilization, threshold=target,
                            detail=(
                                f"request {replica.cpu_request:.3f} below removal "
                                f"floor {self.min_cpu_removal:.3f} on {replica.node}"
                            ),
                        )
                    continue
                # Cannot remove: clamp the shrink at the minimum allocation.
                new_request = self.min_cpu_removal
                if new_request >= replica.cpu_request - EPSILON:
                    continue

            actions.append(
                VerticalScale(replica.container_id, cpu_request=new_request, reason="reclaim")
            )
            ledger.release(replica.node, ResourceVector(cpu=replica.cpu_request - new_request))
            if self.tracer is not None:
                self.tracer.record_action(
                    kind="vertical-scale", service=service.name,
                    target=replica.container_id, reason="reclaim", metric="cpu",
                    value=replica.cpu_utilization, threshold=target,
                    detail=f"cpu {replica.cpu_request:.3f}->{new_request:.3f} on {replica.node}",
                )
        return actions

    # ------------------------------------------------------------------
    # Phase 2: acquisition
    # ------------------------------------------------------------------
    def _acquire(
        self,
        service: ServiceView,
        view: ClusterView,
        ledger: NodeLedger,
        missing: float,
    ) -> list[ScalingAction]:
        actions: list[ScalingAction] = []
        target = service.target_utilization
        acquired_total = 0.0
        # Busiest replicas first: they are closest to starving.
        replicas = sorted(service.measurable_replicas(), key=_by_cpu_utilization_desc)

        for replica in replicas:
            required = self.required_cpus(replica, target)
            if required <= EPSILON:
                continue
            available = ledger.available(replica.node).cpu
            acquired = min(required, available)
            if acquired <= EPSILON:
                continue
            actions.append(
                VerticalScale(
                    replica.container_id,
                    cpu_request=replica.cpu_request + acquired,
                    reason="acquire",
                )
            )
            ledger.take(replica.node, ResourceVector(cpu=acquired))
            acquired_total += acquired
            if self.tracer is not None:
                new_request = replica.cpu_request + acquired
                self.tracer.record_action(
                    kind="vertical-scale", service=service.name,
                    target=replica.container_id, reason="acquire", metric="cpu",
                    value=replica.cpu_utilization, threshold=target,
                    detail=f"cpu {replica.cpu_request:.3f}->{new_request:.3f} on {replica.node}",
                )

        shortfall = missing - acquired_total
        if shortfall > EPSILON:
            actions.extend(self._spill_horizontal(service, view, ledger, shortfall))
        return actions

    def _spill_horizontal(
        self,
        service: ServiceView,
        view: ClusterView,
        ledger: NodeLedger,
        shortfall: float,
    ) -> list[ScalingAction]:
        """Vertical scaling ran out of local room: replicate elsewhere."""
        if not self.guard.can_scale_up(service.name, view.now):
            return []
        actions: list[ScalingAction] = []
        live = service.replica_count
        while shortfall > EPSILON and live < service.max_replicas:
            placed = self._place_replica(service, ledger, shortfall, reason="spill")
            if placed is None:
                break
            actions.append(placed)
            if self.tracer is not None:
                self.tracer.record_action(
                    kind="add-replica", service=service.name, target=placed.node or "",
                    reason="spill", metric="missing-cpu",
                    value=shortfall, threshold=0.0,
                    detail=f"cpu {placed.cpu_request:.3f} on {placed.node}",
                )
            shortfall -= placed.cpu_request
            live += 1
        if actions:
            self.guard.record_scale_up(service.name, view.now)
        return actions

    def _place_replica(
        self,
        service: ServiceView,
        ledger: NodeLedger,
        wanted_cpu: float,
        reason: str,
    ) -> AddReplica | None:
        """Plan one new replica on a node meeting the paper's spawn bar:
        >= 0.25 CPUs and the service's baseline memory requirement."""
        minimum = ResourceVector(
            cpu=self.min_cpu_spawn,
            memory=service.base_mem_limit,
            network=service.base_net_rate,
        )
        candidates = ledger.candidates_for(service.name, minimum, exclude_hosting=True)
        if not candidates and reason == "min-replicas":
            # Fault-tolerance floor beats anti-affinity: allow co-location
            # rather than running below the minimum replica count.
            candidates = ledger.candidates_for(service.name, minimum, exclude_hosting=False)
        if not candidates:
            return None
        node = candidates[0]
        cpu = min(max(wanted_cpu, self.min_cpu_spawn), ledger.available(node).cpu)
        allocation = ResourceVector(cpu, service.base_mem_limit, service.base_net_rate)
        ledger.plan_placement(node, service.name, allocation)
        return AddReplica(
            service=service.name,
            cpu_request=cpu,
            mem_limit=service.base_mem_limit,
            net_rate=service.base_net_rate,
            node=node,
            exclude_hosting=True,
            reason=reason,
        )


def _reservation(replica: ReplicaView) -> ResourceVector:
    """Resources a replica holds against its node."""
    return ResourceVector(replica.cpu_request, replica.mem_limit, replica.net_rate)


def _service_utilization(service: ServiceView) -> float:
    """Service-wide ``sum(usage) / sum(requested)`` (0.0 when nothing is
    requested) — the utilization figure a trace reader compares against
    ``Target_m``."""
    requested = service.total_cpu_requested()
    if requested <= 0:
        return 0.0
    return service.total_cpu_usage() / requested
