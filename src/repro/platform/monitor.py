"""The MONITOR: central arbiter of the autoscaling platform (Section V-C).

"The MONITOR is the central arbiter of the system.  The Monitor's
centralized view puts it in the most suitable position for determining and
administering resource scaling decisions across all microservices running
within the cluster."

Each query period (5 s in the paper's experiments) the monitor:

1. builds a :class:`~repro.core.view.ClusterView` from the node managers'
   per-node rows (one pass per node over its ``docker stats`` frames),
2. asks the configured :class:`~repro.core.policy.AutoscalingPolicy` for
   actions ("the use of different scaling algorithms is also supported ...
   and can be specified at initialization"), and
3. executes them — vertical resizes through the owning node manager,
   horizontal adds through placement + ``docker run``, removals through
   ``docker rm``.

Every step (not just on ticks) it reaps the containers the nodes report
OOM-killed, standing in for the NMs' liveness checks.

Execution is defensive: a policy decision computed from a 5-second-old
snapshot can be stale (the node filled up meanwhile), so failed actions are
counted and skipped rather than crashing the control loop — exactly how a
production controller behaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster
from repro.cluster.container import ACTIVE_STATES, ContainerState
from repro.cluster.node import Node
from repro.cluster.resources import ResourceVector
from repro.config import SimulationConfig
from repro.core.actions import (
    AddReplica,
    MigrateReplica,
    RemoveReplica,
    ScalingAction,
    VerticalScale,
)
from repro.core.policy import AutoscalingPolicy
from repro.core.registry import resolve_policy
from repro.core.view import ClusterView, NodeView, ReplicaView, ServiceView
from repro.cluster.placement import PlacementStrategy, SpreadPlacement
from repro.dockersim.api import DockerClient
from repro.errors import DockerSimError, PolicyError, ReproError
from repro.metrics.collector import MetricsCollector
from repro.metrics.events import EventKind, ScalingEvent
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.platform.node_manager import NodeManager, Row
from repro.sanitizer.api import Sanitizer
from repro.sim.clock import SimClock
from repro.telemetry.hub import RunTelemetry
from repro.units import same_quantity


@dataclass
class MonitorLog:
    """Operational counters for one run (inspected by tests/benches)."""

    ticks: int = 0
    actions_applied: int = 0
    actions_failed: int = 0
    placement_failures: int = 0
    migrations: int = 0
    failures: list[str] = field(default_factory=list)


#: Telemetry label value per applied action type (``scaling_actions{kind=}``).
_ACTION_KINDS: dict[type, str] = {  # lint: disable=PAR001(maps action types to fixed telemetry label strings; a constant dispatch table written only at import)
    VerticalScale: "vertical",
    AddReplica: "scale_up",
    RemoveReplica: "scale_down",
    MigrateReplica: "migrate",
}


class Monitor:
    """Builds views on a period, delegates to the policy, applies actions."""

    def __init__(
        self,
        cluster: Cluster,
        client: DockerClient,
        node_managers: dict[str, NodeManager],
        policy: AutoscalingPolicy,
        config: SimulationConfig,
        collector: MetricsCollector,
        placement: PlacementStrategy | None = None,
        tracer: Tracer = NULL_TRACER,
        telemetry: RunTelemetry | None = None,
        sanitizer: Sanitizer | None = None,
    ):
        self.cluster = cluster
        self.client = client
        self.node_managers = node_managers
        self.policy = policy
        self.config = config
        self.collector = collector
        self.placement = placement or SpreadPlacement()
        self.log = MonitorLog()
        self.tracer = tracer
        self.telemetry = telemetry
        self.sanitizer = sanitizer
        policy.set_tracer(tracer)
        self._next_tick = config.monitor_period
        #: Each serving replica's last view and the row it was built from.
        self._replica_views: dict[str, tuple[Row, ReplicaView]] = {}

    # ------------------------------------------------------------------
    # Engine integration
    # ------------------------------------------------------------------
    def on_step(self, clock: SimClock) -> None:
        """Reap dead containers every step; run the policy on the period."""
        corpses = self.client.reap(clock.now)
        if corpses:
            self.collector.record_oom(len(corpses))
            if self.telemetry is not None:
                self.telemetry.oom_kills.inc(len(corpses))
            for corpse in corpses:
                self.collector.events.record(
                    ScalingEvent(
                        time=clock.now,
                        kind=EventKind.OOM_KILL,
                        service=corpse.service,
                        container_id=corpse.container_id,
                        detail=f"limit {corpse.mem_limit:.0f} MiB exceeded",
                    )
                )
        if clock.now + 1e-9 < self._next_tick:
            return
        self._next_tick += self.config.monitor_period
        self.tick(clock.now)

    def set_policy(self, policy: AutoscalingPolicy | str) -> None:
        """Swap the scaling algorithm at runtime (object or registered name).

        Section V-C: the algorithm "can be specified at initialization or
        through the command-line interface" — operators switch algorithms on
        a live cluster.  The new policy starts with fresh state (its own
        interval guards), which matches restarting the algorithm process.
        """
        self.policy = resolve_policy(policy, self.config)
        self.policy.set_tracer(self.tracer)

    def tick(self, now: float) -> list[ScalingAction]:
        """One full monitor round: view -> decide -> apply."""
        self.log.ticks += 1
        view = self.build_view(now)
        if self.sanitizer is not None:
            # Audit the snapshot before the policy plans against it: the
            # view's allocation vectors seed the NodeLedger balances.
            self.sanitizer.check_view(now=now, view=view)
        tracing = self.tracer.enabled
        applied_before = self.log.actions_applied
        failed_before = self.log.actions_failed
        if tracing:
            self.tracer.begin_tick(
                now=now,
                policy=self.policy.name,
                digest=view.digest(),
                services=len(view.services),
                nodes=len(view.nodes),
                replicas=sum(s.replica_count for s in view.services),
            )
        actions = self.policy.decide(view)
        for action in actions:
            self._apply(action, now)
        if self.telemetry is not None:
            self.telemetry.monitor_ticks.inc()
            if actions:
                self.telemetry.monitor_actions_emitted.inc(len(actions))
        if tracing:
            self.tracer.end_tick(
                emitted=len(actions),
                applied=self.log.actions_applied - applied_before,
                failed=self.log.actions_failed - failed_before,
            )
        return actions

    # ------------------------------------------------------------------
    # View construction
    # ------------------------------------------------------------------
    def build_view(self, now: float) -> ClusterView:
        """Snapshot every service and node from the NMs' per-node rows.

        Views are immutable, so a replica given the very row object it was
        given last time, on the same node, keeps its last view.
        """
        window = self.config.monitor_period
        node_rows = {name: manager.window_rows(window) for name, manager in self.node_managers.items()}
        previous: dict[str, tuple[Row, ReplicaView]] = self._replica_views
        current: dict[str, tuple[Row, ReplicaView]] = {}
        node_name_of = self.client.node_name_of
        running, pending = ContainerState.RUNNING, ContainerState.PENDING
        services = []
        for service in self.cluster.sorted_services():
            name = service.name
            replica_views = []
            # The active replicas in id order: serving ones and booting ones.
            for container_id, container in sorted(service.replicas.items()):
                state = container.state
                if state is running:
                    node_name = node_name_of(container_id)
                    rows = node_rows.get(node_name)
                    row = None if rows is None else rows.get(container_id)
                    if row is None:
                        continue  # raced with removal; skip this round
                    kept = previous.get(container_id)
                    if kept is None or kept[0] is not row or kept[1].node != node_name:
                        kept = (row, ReplicaView(container_id, name, node_name, False, *row))
                    current[container_id] = kept
                    replica_views.append(kept[1])
                elif state is pending:  # reservation exists, usage signal does not
                    replica_views.append(
                        ReplicaView(
                            container_id=container_id,
                            service=name,
                            node=node_name_of(container_id),
                            booting=True,
                            cpu_request=container.cpu_request,
                            cpu_usage=0.0,
                            mem_limit=container.mem_limit,
                            mem_usage=0.0,
                            net_rate=container.net_rate,
                            net_usage=0.0,
                            disk_quota=container.disk_quota,
                            disk_usage=0.0,
                        )
                    )
            spec = service.spec
            services.append(
                ServiceView(
                    name=name,
                    min_replicas=spec.min_replicas,
                    max_replicas=spec.max_replicas,
                    target_utilization=spec.target_utilization,
                    base_cpu_request=spec.cpu_request,
                    base_mem_limit=spec.mem_limit,
                    base_net_rate=spec.net_rate,
                    replicas=tuple(replica_views),
                )
            )
        self._replica_views = current
        nodes = tuple(_node_view(node) for node in self.cluster.sorted_nodes())
        return ClusterView(now=now, services=tuple(services), nodes=nodes)

    # ------------------------------------------------------------------
    # Action execution
    # ------------------------------------------------------------------
    def _apply(self, action: ScalingAction, now: float) -> None:
        try:
            if isinstance(action, VerticalScale):
                self._apply_vertical(action, now)
            elif isinstance(action, AddReplica):
                self._apply_add(action, now)
            elif isinstance(action, RemoveReplica):
                self._apply_remove(action, now)
            elif isinstance(action, MigrateReplica):
                moved = self.client.migrate_replica(action.container_id, action.target_node, now)
                self.log.migrations += 1
                self.collector.events.record(
                    ScalingEvent(
                        time=now,
                        kind=EventKind.MIGRATE,
                        service=moved.service,
                        container_id=action.container_id,
                        reason=action.reason,
                        detail=f"to {action.target_node}",
                    )
                )
            else:
                raise PolicyError(f"unknown action type {type(action).__name__}")
            self.log.actions_applied += 1
            if self.telemetry is not None:
                self.telemetry.monitor_actions_applied.inc()
                self.telemetry.scaling_actions.inc(kind=_ACTION_KINDS[type(action)])
        except ReproError as exc:
            self.log.actions_failed += 1
            if self.telemetry is not None:
                self.telemetry.monitor_actions_failed.inc()
            self.log.failures.append(f"{now:.1f}s {type(action).__name__}: {exc}")
            self.collector.events.record(
                ScalingEvent(
                    time=now,
                    kind=EventKind.ACTION_FAILED,
                    service=getattr(action, "service", ""),
                    container_id=getattr(action, "container_id", ""),
                    reason=getattr(action, "reason", ""),
                    detail=str(exc),
                )
            )

    def _apply_vertical(self, action: VerticalScale, now: float) -> None:
        """Resize in place, clamping to node headroom (the snapshot the
        policy planned against may be stale by execution time)."""
        node_name = self.client.node_name_of(action.container_id)
        manager = self.node_managers[node_name]
        container = manager.node.containers[action.container_id]

        headroom = manager.node.available()
        cpu = action.cpu_request
        if cpu is not None and cpu > container.cpu_request:
            cpu = min(cpu, container.cpu_request + headroom.cpu)
        mem = action.mem_limit
        if mem is not None and mem > container.mem_limit:
            mem = min(mem, container.mem_limit + headroom.memory)
        net = action.net_rate
        if net is not None and net > container.net_rate:
            net = min(net, container.net_rate + headroom.network)

        before = (container.cpu_request, container.mem_limit, container.net_rate)
        manager.apply_vertical(action.container_id, cpu_request=cpu, mem_limit=mem, net_rate=net)
        self.collector.record_vertical()
        self.collector.events.record(
            ScalingEvent(
                time=now,
                kind=EventKind.VERTICAL,
                service=container.service,
                container_id=container.container_id,
                reason=action.reason,
                detail=_vertical_detail(before, cpu, mem, net),
            )
        )

    def _apply_add(self, action: AddReplica, now: float) -> None:
        request = ResourceVector(action.cpu_request, action.mem_limit, action.net_rate)
        node_name = action.node
        if node_name is not None and not self.cluster.node(node_name).can_fit(request):
            node_name = None  # pinned node filled up since the snapshot
        if node_name is None:
            exclude = action.service if action.exclude_hosting else None
            nodes = self.cluster.sorted_nodes()
            chosen = self.placement.choose(nodes, request, exclude_service=exclude)
            if chosen is None and action.exclude_hosting:
                # Anti-affinity is a preference, capacity is a constraint.
                chosen = self.placement.choose(nodes, request)
            if chosen is None:
                self.log.placement_failures += 1
                raise DockerSimError(
                    f"no node can host a {action.service} replica needing {request}"
                )
            node_name = chosen.name
        created = self.client.run_replica(
            action.service,
            node_name,
            cpu_request=action.cpu_request,
            mem_limit=action.mem_limit,
            net_rate=action.net_rate,
            now=now,
        )
        self.collector.record_scale_up()
        self.collector.events.record(
            ScalingEvent(
                time=now,
                kind=EventKind.SCALE_UP,
                service=action.service,
                container_id=created.container_id,
                reason=action.reason,
                detail=f"on {node_name}, cpu {action.cpu_request:.2f}",
            )
        )

    def _apply_remove(self, action: RemoveReplica, now: float) -> None:
        node_name = self.client.node_name_of(action.container_id)
        container = self.cluster.node(node_name).containers[action.container_id]
        self.client.remove_replica(action.container_id, now)
        self.collector.record_scale_down()
        self.collector.events.record(
            ScalingEvent(
                time=now,
                kind=EventKind.SCALE_DOWN,
                service=container.service,
                container_id=action.container_id,
                reason=action.reason,
                detail=f"from {node_name}",
            )
        )


def _node_view(node: Node) -> NodeView:
    """One id-ordered pass over a node's active containers: the allocation
    (summed in id order, as :meth:`Node.allocated` does) and the services."""
    cpu = memory = network = 0.0
    services: set[str] = set()
    for _, container in sorted(node.containers.items()):
        if container.state in ACTIVE_STATES:
            cpu += container.cpu_request
            memory += container.mem_limit
            network += container.net_rate
            services.add(container.service)
    return NodeView(
        name=node.name,
        capacity=node.capacity,
        allocated=ResourceVector(cpu, memory, network),
        services=tuple(sorted(services)),
    )


def _vertical_detail(
    before: tuple[float, float, float],
    cpu: float | None,
    mem: float | None,
    net: float | None,
) -> str:
    """Human-readable summary of what a vertical resize actually changed."""
    changes = []
    if cpu is not None and not same_quantity(cpu, before[0]):
        changes.append(f"cpu {before[0]:.2f}->{cpu:.2f}")
    if mem is not None and not same_quantity(mem, before[1]):
        changes.append(f"mem {before[1]:.0f}->{mem:.0f}")
    if net is not None and not same_quantity(net, before[2]):
        changes.append(f"net {before[2]:.0f}->{net:.0f}")
    return ", ".join(changes)
