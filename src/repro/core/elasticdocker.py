"""ElasticDocker-style vertical autoscaler with live migration (extension).

Section II-A describes ElasticDocker (Al-Dhuraibi et al., CLOUD 2017): it
"employs the MAPE-K loop to monitor CPU and memory usage and autonomously
scales Docker containers vertically.  It also performs live migration of
containers, when the host machine does not have sufficient resources.  This
approach was compared with the horizontally scaling Kubernetes, and shown
to outperform Kubernetes by 37.63%.  The main flaw with this solution is
the difference in monitoring and scaling periods between ElasticDocker and
Kubernetes" — 4 s vs 30 s, an unfair comparison the paper calls out.

Implementing the comparator lets the benchmarks *quantify* that critique
(`benchmarks/test_ext_elasticdocker.py`): ElasticDocker@4s vs Kubernetes@30s
reproduces a large win; at equal 5 s periods the win shrinks; and HyScale
beats it outright once demand exceeds one machine, because vertical scaling
plus migration still cannot exceed single-host capacity — the paper's core
argument for hybridization.

Mechanics, following the ElasticDocker description (threshold rules on CPU
and memory, multiplicative adjustment, migrate when the host is full):

* utilization above ``high_watermark``  -> grow the allocation by ``step``
  (x1.5), capped by the node's free capacity;
* the node cannot satisfy the grow     -> live-migrate to the machine with
  the most free capacity and grow there;
* utilization below ``low_watermark``  -> shrink by ``step`` toward floors.

Replica counts never change: this is the pure-vertical end of the design
space.
"""

from __future__ import annotations

from repro.cluster.resources import ResourceVector
from repro.core.actions import MigrateReplica, ScalingAction, VerticalScale
from repro.core.policy import AutoscalingPolicy, NodeLedger
from repro.core.view import ClusterView, ReplicaView
from repro.errors import PolicyError
from repro.obs.tracer import Tracer
from repro.units import same_quantity


class ElasticDockerPolicy(AutoscalingPolicy):
    """Threshold-driven vertical scaling with spill-over migration."""

    name = "elasticdocker"

    def __init__(
        self,
        *,
        high_watermark: float = 0.9,
        low_watermark: float = 0.3,
        step: float = 1.5,
        min_cpu: float = 0.25,
        min_mem: float = 256.0,
        migration_cooldown: float = 30.0,
    ):
        if not 0 < low_watermark < high_watermark <= 2.0:
            raise PolicyError("need 0 < low_watermark < high_watermark <= 2")
        if step <= 1.0:
            raise PolicyError("step must be > 1")
        if min_cpu <= 0 or min_mem <= 0:
            raise PolicyError("floors must be positive")
        if migration_cooldown < 0:
            raise PolicyError("migration_cooldown must be >= 0")
        self.high_watermark = float(high_watermark)
        self.low_watermark = float(low_watermark)
        self.step = float(step)
        self.min_cpu = float(min_cpu)
        self.min_mem = float(min_mem)
        #: Minimum spacing between migrations of the same container — each
        #: move freezes the container, so chasing a moving bottleneck with
        #: back-to-back migrations starves it (the anti-thrash analogue of
        #: the paper's rescale intervals).
        self.migration_cooldown = float(migration_cooldown)
        self._last_migration: dict[str, float] = {}

    def decide(self, view: ClusterView) -> list[ScalingAction]:
        """One MAPE iteration over every replica."""
        actions: list[ScalingAction] = []
        ledger = NodeLedger(view, tracer=self.tracer)
        for service in view.services:
            for replica in service.measurable_replicas():
                actions.extend(self._adjust(replica, ledger, view.now))
        return actions

    # ------------------------------------------------------------------
    def _adjust(self, replica: ReplicaView, ledger: NodeLedger, now: float) -> list[ScalingAction]:
        cpu_util = replica.cpu_utilization
        mem_util = replica.mem_utilization
        # Resolved once: this runs per replica per step (HOT003).
        tracer = self.tracer
        if tracer is not None:
            for metric, util in (("cpu", cpu_util), ("memory", mem_util)):
                verdict = (
                    "grow" if util > self.high_watermark
                    else "shrink" if util < self.low_watermark
                    else "hold"
                )
                threshold = self.high_watermark if util > self.high_watermark else self.low_watermark
                tracer.record_metric(
                    service=replica.service, metric=metric,
                    value=util, threshold=threshold, verdict=verdict,
                )

        wanted_cpu = replica.cpu_request
        wanted_mem = replica.mem_limit
        if cpu_util > self.high_watermark:
            wanted_cpu = replica.cpu_request * self.step
        elif cpu_util < self.low_watermark:
            wanted_cpu = max(self.min_cpu, replica.cpu_request / self.step)
        if mem_util > self.high_watermark:
            wanted_mem = replica.mem_limit * self.step
        elif mem_util < self.low_watermark:
            wanted_mem = max(self.min_mem, replica.mem_limit / self.step)

        grow_cpu = max(0.0, wanted_cpu - replica.cpu_request)
        grow_mem = max(0.0, wanted_mem - replica.mem_limit)
        available = ledger.available(replica.node)

        if grow_cpu <= available.cpu + 1e-9 and grow_mem <= available.memory + 1e-9:
            if same_quantity(wanted_cpu, replica.cpu_request) and same_quantity(
                wanted_mem, replica.mem_limit
            ):
                return []
            ledger.take(
                replica.node,
                ResourceVector(cpu=grow_cpu, memory=grow_mem),
            )
            shrink_cpu = max(0.0, replica.cpu_request - wanted_cpu)
            shrink_mem = max(0.0, replica.mem_limit - wanted_mem)
            if shrink_cpu > 0 or shrink_mem > 0:
                ledger.release(replica.node, ResourceVector(cpu=shrink_cpu, memory=shrink_mem))
            if tracer is not None:
                self._record_adjust(
                    tracer, replica, "elastic", cpu_util, mem_util, wanted_cpu, wanted_mem
                )
            return [
                VerticalScale(
                    replica.container_id,
                    cpu_request=wanted_cpu
                    if not same_quantity(wanted_cpu, replica.cpu_request)
                    else None,
                    mem_limit=wanted_mem
                    if not same_quantity(wanted_mem, replica.mem_limit)
                    else None,
                    reason="elastic",
                )
            ]

        # "When the host machine does not have sufficient resources":
        # migrate to the roomiest machine that fits the grown reservation —
        # or, failing that, one that at least offers meaningful headroom
        # over the current size (the monitor clamps the grow on arrival).
        candidates: list[str] = []
        last = self._last_migration.get(replica.container_id)
        if last is None or now - last >= self.migration_cooldown:
            needed = ResourceVector(wanted_cpu, wanted_mem, replica.net_rate)
            candidates = ledger.candidates_for(replica.service, needed, exclude_hosting=False)
            if not candidates:
                modest = ResourceVector(
                    replica.cpu_request + self.min_cpu,
                    replica.mem_limit + self.min_mem,
                    replica.net_rate,
                )
                candidates = ledger.candidates_for(replica.service, modest, exclude_hosting=False)
            candidates = [c for c in candidates if c != replica.node]
        if not candidates:
            # Nowhere to go: grow as far as the current host allows.
            capped_cpu = replica.cpu_request + min(grow_cpu, available.cpu)
            capped_mem = replica.mem_limit + min(grow_mem, available.memory)
            if same_quantity(capped_cpu, replica.cpu_request) and same_quantity(
                capped_mem, replica.mem_limit
            ):
                return []
            ledger.take(
                replica.node,
                ResourceVector(
                    cpu=capped_cpu - replica.cpu_request,
                    memory=capped_mem - replica.mem_limit,
                ),
            )
            if tracer is not None:
                self._record_adjust(
                    tracer, replica, "elastic-capped", cpu_util, mem_util, capped_cpu, capped_mem
                )
            return [
                VerticalScale(
                    replica.container_id,
                    cpu_request=capped_cpu,
                    mem_limit=capped_mem,
                    reason="elastic-capped",
                )
            ]

        target = candidates[0]
        self._last_migration[replica.container_id] = now
        ledger.release(
            replica.node,
            ResourceVector(replica.cpu_request, replica.mem_limit, replica.net_rate),
        )
        landing = ResourceVector(wanted_cpu, wanted_mem, replica.net_rate).elementwise_min(
            ledger.available(target)
        )
        ledger.plan_placement(target, replica.service, landing)
        if tracer is not None:
            tracer.record_action(
                kind="migrate-replica", service=replica.service,
                target=replica.container_id, reason="elastic-migrate", metric="cpu",
                value=cpu_util, threshold=self.high_watermark,
                detail=f"{replica.node}->{target}",
            )
            self._record_adjust(
                tracer, replica, "elastic-after-migrate", cpu_util, mem_util, wanted_cpu, wanted_mem
            )
        return [
            MigrateReplica(replica.container_id, target, reason="elastic-migrate"),
            VerticalScale(
                replica.container_id,
                cpu_request=wanted_cpu,
                mem_limit=wanted_mem,
                reason="elastic-after-migrate",
            ),
        ]

    def _record_adjust(
        self,
        tracer: Tracer,
        replica: ReplicaView,
        reason: str,
        cpu_util: float,
        mem_util: float,
        new_cpu: float,
        new_mem: float,
    ) -> None:
        """Trace one vertical adjustment, naming the axis that triggered it."""
        if abs(new_cpu - replica.cpu_request) >= abs(new_mem - replica.mem_limit) / 1024.0:
            metric, value = "cpu", cpu_util
        else:
            metric, value = "memory", mem_util
        threshold = self.high_watermark if value > self.high_watermark else self.low_watermark
        tracer.record_action(
            kind="vertical-scale", service=replica.service,
            target=replica.container_id, reason=reason, metric=metric,
            value=value, threshold=threshold,
            detail=(
                f"cpu {replica.cpu_request:.3f}->{new_cpu:.3f}"
                f" mem {replica.mem_limit:.1f}->{new_mem:.1f} on {replica.node}"
            ),
        )
