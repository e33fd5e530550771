"""HYSCALE_CPU+Mem — the two-metric hybrid algorithm (Section IV-B2).

Extends :class:`~repro.core.hyscale.HyScaleCpu` "by considering memory and
swap usage.  The algorithm and equations used are analogous to those used
for CPU measurements"::

    MissingMem_m    = (sum(usage_r) - sum(requested_r) * Target_m) / Target_m
    ReclaimableMem_r = requested_r - usage_r / (Target_m * 0.9)
    RequiredMem_r    = usage_r / (Target_m * 0.9) - requested_r
    AcquiredMem_r    = min(RequiredMem_r, AvailableMem_n)

"With the consideration of a second variable, horizontal scaling becomes
much less trivial.  The algorithm can no longer indiscriminately remove a
container that is consuming memory or CPU, if it falls below a certain CPU
or memory threshold, respectively. ...  This changes the conditions for
container removal and addition by requiring the CPU and memory threshold
conditions to be met **mutually**."

So: a replica is removed only when *both* its post-reclaim CPU would fall
below the CPU threshold *and* its post-reclaim memory would fall below the
memory threshold; a new replica needs a node advertising both the CPU spawn
threshold and the baseline memory.
"""

from __future__ import annotations

from repro.cluster.resources import ResourceVector
from repro.core.actions import AddReplica, RemoveReplica, ScalingAction, VerticalScale
from repro.core.hyscale import EPSILON, HyScaleCpu, _reservation
from repro.core.policy import NodeLedger
from repro.core.view import ClusterView, ReplicaView, ServiceView
from repro.errors import PolicyError


# Module-level sort keys: the decide path runs every step and must not
# construct a fresh function object per call (HOT001).
def _by_combined_utilization(replica: ReplicaView) -> float:
    return replica.cpu_utilization + replica.mem_utilization


def _by_combined_utilization_desc(replica: ReplicaView) -> float:
    return -(replica.cpu_utilization + replica.mem_utilization)


class HyScaleCpuMem(HyScaleCpu):
    """Hybrid scaling on CPU *and* memory with mutual removal conditions."""

    name = "hybridmem"

    def __init__(
        self,
        *,
        scale_up_interval: float = 3.0,
        scale_down_interval: float = 50.0,
        min_cpu_removal: float = 0.1,
        min_cpu_spawn: float = 0.25,
        headroom: float = 0.9,
        min_mem_removal: float = 96.0,
        mem_floor: float = 160.0,
    ):
        super().__init__(
            scale_up_interval=scale_up_interval,
            scale_down_interval=scale_down_interval,
            min_cpu_removal=min_cpu_removal,
            min_cpu_spawn=min_cpu_spawn,
            headroom=headroom,
        )
        if min_mem_removal <= 0:
            raise PolicyError("min_mem_removal must be positive")
        if mem_floor < min_mem_removal:
            raise PolicyError("mem_floor must be >= min_mem_removal")
        #: Memory analogue of the 0.1-CPU removal threshold (MiB).
        self.min_mem_removal = float(min_mem_removal)
        #: Never vertically shrink a kept replica's limit below this (MiB) —
        #: the application's resident footprint makes smaller limits an
        #: immediate OOM sentence.
        self.mem_floor = float(mem_floor)

    # ------------------------------------------------------------------
    # Memory analogues of the paper's equations
    # ------------------------------------------------------------------
    def missing_mem(self, service: ServiceView) -> float:
        """``MissingMem_m`` in MiB."""
        usage = service.total_mem_usage()
        requested = service.total_mem_requested()
        target = service.target_utilization
        return (usage - requested * target) / target

    def reclaimable_mem(self, replica: ReplicaView, target: float) -> float:
        """``ReclaimableMem_r`` in MiB."""
        return replica.mem_limit - replica.mem_usage / (target * self.headroom)

    def required_mem(self, replica: ReplicaView, target: float) -> float:
        """``RequiredMem_r`` in MiB."""
        return replica.mem_usage / (target * self.headroom) - replica.mem_limit

    # ------------------------------------------------------------------
    # Decision pass (two-axis variant of the parent's)
    # ------------------------------------------------------------------
    def decide(self, view: ClusterView) -> list[ScalingAction]:
        """Reclaim both axes first, then acquire both axes."""
        actions: list[ScalingAction] = []
        ledger = NodeLedger(view, tracer=self.tracer)
        removed: set[str] = set()

        for service in view.services:
            actions.extend(self._enforce_bounds(service, view, ledger, removed))

        missing_cpu = {s.name: self.missing_cpus(s) for s in view.services}
        missing_mem = {s.name: self.missing_mem(s) for s in view.services}
        if self.tracer is not None:
            for service in view.services:
                for metric, deficit in (
                    ("missing-cpu", missing_cpu[service.name]),
                    ("missing-mem", missing_mem[service.name]),
                ):
                    verdict = (
                        "acquire" if deficit > EPSILON
                        else "reclaim" if deficit < -EPSILON
                        else "balanced"
                    )
                    self.tracer.record_metric(
                        service=service.name, metric=metric,
                        value=deficit, threshold=0.0, verdict=verdict,
                    )

        for service in view.services:
            if missing_cpu[service.name] < -EPSILON or missing_mem[service.name] < -EPSILON:
                actions.extend(
                    self._reclaim_both(
                        service,
                        view,
                        ledger,
                        removed,
                        reclaim_cpu=missing_cpu[service.name] < -EPSILON,
                        reclaim_mem=missing_mem[service.name] < -EPSILON,
                    )
                )

        starving = sorted(
            (
                s
                for s in view.services
                if missing_cpu[s.name] > EPSILON or missing_mem[s.name] > EPSILON
            ),
            key=lambda s: -(max(missing_cpu[s.name], 0.0) + max(missing_mem[s.name], 0.0) / 1024.0),
        )
        for service in starving:
            actions.extend(
                self._acquire_both(
                    service,
                    view,
                    ledger,
                    max(0.0, missing_cpu[service.name]),
                    max(0.0, missing_mem[service.name]),
                )
            )
        return actions

    # ------------------------------------------------------------------
    # Reclamation (mutual removal condition)
    # ------------------------------------------------------------------
    def _reclaim_both(
        self,
        service: ServiceView,
        view: ClusterView,
        ledger: NodeLedger,
        removed: set[str],
        *,
        reclaim_cpu: bool,
        reclaim_mem: bool,
    ) -> list[ScalingAction]:
        actions: list[ScalingAction] = []
        target = service.target_utilization
        replicas = sorted(
            service.measurable_replicas(),
            key=_by_combined_utilization,
        )
        live = service.replica_count

        for replica in replicas:
            if replica.container_id in removed:
                continue
            cpu_give = self.reclaimable_cpus(replica, target) if reclaim_cpu else 0.0
            mem_give = self.reclaimable_mem(replica, target) if reclaim_mem else 0.0
            if cpu_give <= EPSILON and mem_give <= EPSILON:
                continue

            new_cpu = replica.cpu_request - max(0.0, cpu_give)
            new_mem = replica.mem_limit - max(0.0, mem_give)

            cpu_below = new_cpu < self.min_cpu_removal
            mem_below = new_mem < self.min_mem_removal
            if cpu_below and mem_below:
                # Mutual condition met: the replica is idle on both axes.
                if live > service.min_replicas and self.guard.can_scale_down(service.name, view.now):
                    actions.append(RemoveReplica(replica.container_id, reason="reclaim-remove"))
                    removed.add(replica.container_id)
                    ledger.release(replica.node, _reservation(replica))
                    self.guard.record_scale_down(service.name, view.now)
                    live -= 1
                    if self.tracer is not None:
                        self.tracer.record_action(
                            kind="remove-replica", service=service.name,
                            target=replica.container_id, reason="reclaim-remove", metric="cpu+mem",
                            value=replica.cpu_utilization, threshold=target,
                            detail=(
                                f"mutual floors: cpu {new_cpu:.3f}<{self.min_cpu_removal:.3f}"
                                f" and mem {new_mem:.1f}<{self.min_mem_removal:.1f}"
                                f" on {replica.node}"
                            ),
                        )
                    continue

            # Keep it: clamp each axis at its floor and shrink what remains.
            # The memory floor also respects the service's baseline limit:
            # shrinking a kept replica far below its deployment size invites
            # an OOM kill on the next burst, defeating the point of
            # memory-aware scaling.
            new_cpu = max(new_cpu, self.min_cpu_removal)
            new_mem = max(new_mem, self.mem_floor, 0.75 * service.base_mem_limit)
            cpu_delta = replica.cpu_request - new_cpu
            mem_delta = replica.mem_limit - new_mem
            if cpu_delta <= EPSILON and mem_delta <= EPSILON:
                continue
            actions.append(
                VerticalScale(
                    replica.container_id,
                    cpu_request=new_cpu if cpu_delta > EPSILON else None,
                    mem_limit=new_mem if mem_delta > EPSILON else None,
                    reason="reclaim",
                )
            )
            ledger.release(
                replica.node,
                ResourceVector(cpu=max(cpu_delta, 0.0), memory=max(mem_delta, 0.0)),
            )
            if self.tracer is not None:
                self.tracer.record_action(
                    kind="vertical-scale", service=service.name,
                    target=replica.container_id, reason="reclaim", metric="cpu+mem",
                    value=replica.cpu_utilization, threshold=target,
                    detail=(
                        f"cpu {replica.cpu_request:.3f}->{new_cpu:.3f}"
                        f" mem {replica.mem_limit:.1f}->{new_mem:.1f} on {replica.node}"
                    ),
                )
        return actions

    # ------------------------------------------------------------------
    # Acquisition (two axes, then spill)
    # ------------------------------------------------------------------
    def _acquire_both(
        self,
        service: ServiceView,
        view: ClusterView,
        ledger: NodeLedger,
        missing_cpu: float,
        missing_mem: float,
    ) -> list[ScalingAction]:
        actions: list[ScalingAction] = []
        target = service.target_utilization
        acquired_cpu = 0.0
        acquired_mem = 0.0
        replicas = sorted(
            service.measurable_replicas(),
            key=_by_combined_utilization_desc,
        )

        for replica in replicas:
            need_cpu = max(0.0, self.required_cpus(replica, target)) if missing_cpu > EPSILON else 0.0
            need_mem = max(0.0, self.required_mem(replica, target)) if missing_mem > EPSILON else 0.0
            if need_cpu <= EPSILON and need_mem <= EPSILON:
                continue
            available = ledger.available(replica.node)
            got_cpu = min(need_cpu, available.cpu)
            got_mem = min(need_mem, available.memory)
            if got_cpu <= EPSILON and got_mem <= EPSILON:
                continue
            actions.append(
                VerticalScale(
                    replica.container_id,
                    cpu_request=replica.cpu_request + got_cpu if got_cpu > EPSILON else None,
                    mem_limit=replica.mem_limit + got_mem if got_mem > EPSILON else None,
                    reason="acquire",
                )
            )
            ledger.take(replica.node, ResourceVector(cpu=got_cpu, memory=got_mem))
            acquired_cpu += got_cpu
            acquired_mem += got_mem
            if self.tracer is not None:
                self.tracer.record_action(
                    kind="vertical-scale", service=service.name,
                    target=replica.container_id, reason="acquire", metric="cpu+mem",
                    value=replica.cpu_utilization, threshold=target,
                    detail=(
                        f"cpu {replica.cpu_request:.3f}->{replica.cpu_request + got_cpu:.3f}"
                        f" mem {replica.mem_limit:.1f}->{replica.mem_limit + got_mem:.1f}"
                        f" on {replica.node}"
                    ),
                )

        cpu_short = missing_cpu - acquired_cpu
        mem_short = missing_mem - acquired_mem
        if cpu_short > EPSILON or mem_short > EPSILON:
            actions.extend(self._spill_both(service, view, ledger, cpu_short, mem_short))
        return actions

    def _spill_both(
        self,
        service: ServiceView,
        view: ClusterView,
        ledger: NodeLedger,
        cpu_short: float,
        mem_short: float,
    ) -> list[ScalingAction]:
        """Horizontal spill sized for whichever axes are still starved."""
        if not self.guard.can_scale_up(service.name, view.now):
            return []
        actions: list[ScalingAction] = []
        live = service.replica_count
        while (cpu_short > EPSILON or mem_short > EPSILON) and live < service.max_replicas:
            minimum = ResourceVector(
                cpu=self.min_cpu_spawn,
                memory=service.base_mem_limit,
                network=service.base_net_rate,
            )
            candidates = ledger.candidates_for(service.name, minimum, exclude_hosting=True)
            if not candidates:
                break
            node = candidates[0]
            available = ledger.available(node)
            cpu = min(max(cpu_short, self.min_cpu_spawn), available.cpu)
            mem = min(max(mem_short, service.base_mem_limit), available.memory)
            allocation = ResourceVector(cpu, mem, service.base_net_rate)
            ledger.plan_placement(node, service.name, allocation)
            actions.append(
                AddReplica(
                    service=service.name,
                    cpu_request=cpu,
                    mem_limit=mem,
                    net_rate=service.base_net_rate,
                    node=node,
                    exclude_hosting=True,
                    reason="spill",
                )
            )
            if self.tracer is not None:
                self.tracer.record_action(
                    kind="add-replica", service=service.name, target=node,
                    reason="spill", metric="missing-cpu",
                    value=cpu_short, threshold=0.0,
                    detail=f"cpu {cpu:.3f} mem {mem:.1f} on {node}",
                )
            cpu_short -= cpu
            mem_short -= mem
            live += 1
        if actions:
            self.guard.record_scale_up(service.name, view.now)
        return actions
