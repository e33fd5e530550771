"""Dynamic machine fleet: node additions, decommissions, and crashes.

The paper's future work: "We also aim to support features such as the
dynamic addition and removal of machines" (Section VII).  This module
implements that support for the platform:

* :class:`NodeManagerFleet` — drives all node managers as one engine actor,
  so managers can be added and removed while the simulation runs;
* :class:`FaultInjector` — executes scheduled fleet changes:

  - ``schedule_crash`` — a machine dies: every container on it is lost
    (in-flight requests become removal failures) and the autoscaling policy
    must restore the affected services' replica floors elsewhere;
  - ``schedule_add`` — a machine joins and becomes a placement target.

Faults execute at the *start* of their step, before routing and compute, so
the platform sees the new world for the entire step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.cluster.resources import ResourceVector
from repro.dockersim.api import DockerClient
from repro.dockersim.daemon import DockerDaemon
from repro.errors import ClusterError
from repro.platform.node_manager import NodeManager
from repro.sim.clock import SimClock


class NodeManagerFleet:
    """One engine actor driving a mutable set of node managers.

    Every manager keeps ``horizon`` seconds of frames: the MONITOR's query
    window, so it records only what a query can read.
    """

    def __init__(self, client: DockerClient, horizon: float):
        self.horizon = horizon
        #: Managers by node name; changed only through :meth:`manage` and
        #: :meth:`retire`, which keep the name order below current.
        self.managers: dict[str, NodeManager] = {}
        self._by_name: list[NodeManager] | None = None
        for daemon in client.daemons.values():
            self.manage(daemon)

    def manage(self, daemon: DockerDaemon) -> NodeManager:
        """Start a manager for the daemon's node (every manager starts here)."""
        manager = NodeManager(daemon, window_horizon=self.horizon)
        self.managers[daemon.node.name] = manager
        self._by_name = None
        return manager

    def retire(self, name: str) -> None:
        """Stop managing the named node (its machine is gone)."""
        self.managers.pop(name, None)
        self._by_name = None

    def on_step(self, clock: SimClock) -> None:
        ordered = self._by_name
        if ordered is None:
            managers = self.managers
            ordered = self._by_name = [managers[name] for name in sorted(managers)]
        for manager in ordered:
            manager.on_step(clock)


@dataclass(frozen=True)
class FleetEvent:
    """One scheduled fleet change."""

    at: float
    kind: str  # "crash" | "add"
    node: str
    capacity: ResourceVector | None = None
    disk_capacity: float = 150.0


def _fault_order(event: FleetEvent) -> tuple[float, str, str]:
    """Due-event ordering: time, then kind/node so ties are deterministic.

    Module-level because the injector sorts every step (HOT001).
    """
    return (event.at, event.kind, event.node)


@dataclass
class FaultLog:
    """What the injector actually did (inspected by tests)."""

    crashes: list[tuple[float, str]] = field(default_factory=list)
    additions: list[tuple[float, str]] = field(default_factory=list)
    lost_requests: int = 0


class FaultInjector:
    """Executes scheduled machine-fleet changes against a live platform."""

    def __init__(
        self,
        cluster: Cluster,
        client: DockerClient,
        fleet: NodeManagerFleet,
    ):
        self.cluster = cluster
        self.client = client
        self.fleet = fleet
        self.log = FaultLog()
        self._pending: list[FleetEvent] = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_crash(self, at: float, node: str) -> None:
        """Kill ``node`` at simulated time ``at``."""
        if at < 0:
            raise ClusterError("fault time must be non-negative")
        self._pending.append(FleetEvent(at=at, kind="crash", node=node))

    def schedule_add(
        self,
        at: float,
        node: str,
        capacity: ResourceVector | None = None,
        disk_capacity: float = 150.0,
    ) -> None:
        """Bring a new machine named ``node`` online at time ``at``."""
        if at < 0:
            raise ClusterError("fault time must be non-negative")
        self._pending.append(
            FleetEvent(at=at, kind="add", node=node, capacity=capacity, disk_capacity=disk_capacity)
        )

    @property
    def pending(self) -> int:
        """Fleet changes not yet executed."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # Engine integration
    # ------------------------------------------------------------------
    def on_step(self, clock: SimClock) -> None:
        due = sorted(
            (e for e in self._pending if e.at <= clock.now),
            key=_fault_order,
        )
        if not due:
            return
        self._pending = [e for e in self._pending if e.at > clock.now]
        for event in due:
            if event.kind == "crash":
                self._crash(event.node, clock.now)
            else:
                self._add(event)

    # ------------------------------------------------------------------
    def _crash(self, name: str, now: float) -> None:
        if name not in self.cluster.nodes:
            raise ClusterError(f"cannot crash unknown node {name!r}")
        casualties = self.cluster.remove_node(name, now)
        self.client.untrack_node(name)
        self.fleet.retire(name)
        self.log.crashes.append((now, name))
        self.log.lost_requests += len(casualties)

    def _add(self, event: FleetEvent) -> None:
        capacity = event.capacity or ResourceVector(4.0, 8192.0, 1000.0)
        node = Node(event.node, capacity, self.cluster.overheads, disk_capacity=event.disk_capacity)
        self.cluster.add_node(node)
        self.client.track_node(event.node)
        self.fleet.manage(self.client.daemons[event.node])
        self.log.additions.append((event.at, event.node))
