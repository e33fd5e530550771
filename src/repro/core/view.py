"""Immutable cluster snapshots consumed by autoscaling policies.

The MONITOR "periodically queries each of the nodes within the cluster for
resource usage information" (Section IV-A1); the result of one such query
round is a :class:`ClusterView`.  Policies receive only this snapshot —
never live cluster objects — so decisions are pure functions of observable
state, exactly like a controller reading a metrics API.

Usage figures are *means over the query period* (how the Kubernetes
controller computes utilization); allocation figures are the current
configuration.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.cluster.resources import ResourceVector
from repro.errors import PolicyError


@dataclass(frozen=True)
class ReplicaView:
    """One replica as the monitor sees it."""

    container_id: str
    service: str
    node: str
    booting: bool  # PENDING containers have no usage signal yet

    cpu_request: float  # cores allocated (the paper's ``requested_r``)
    cpu_usage: float  # mean cores used over the query period (``usage_r``)
    mem_limit: float  # MiB allocated
    mem_usage: float  # MiB used (mean)
    net_rate: float  # Mbit/s guaranteed
    net_usage: float  # Mbit/s used (mean)
    disk_quota: float = 0.0  # MB/s soft quota (scaling reference only)
    disk_usage: float = 0.0  # MB/s used (mean)

    @property
    def cpu_utilization(self) -> float:
        """``usage_r / requested_r`` — may exceed 1 (work-conserving shares)."""
        return self.cpu_usage / self.cpu_request if self.cpu_request > 0 else 0.0

    @property
    def mem_utilization(self) -> float:
        """Memory analogue of :attr:`cpu_utilization`."""
        return self.mem_usage / self.mem_limit if self.mem_limit > 0 else 0.0

    @property
    def net_utilization(self) -> float:
        """Network analogue of :attr:`cpu_utilization`."""
        return self.net_usage / self.net_rate if self.net_rate > 0 else 0.0

    @property
    def disk_utilization(self) -> float:
        """Disk analogue of :attr:`cpu_utilization` (vs. the soft quota)."""
        return self.disk_usage / self.disk_quota if self.disk_quota > 0 else 0.0


@dataclass(frozen=True)
class ServiceView:
    """One microservice: spec knobs + replica snapshots."""

    name: str
    min_replicas: int
    max_replicas: int
    target_utilization: float  # the paper's ``Target_m`` as a fraction
    #: Per-replica allocation a fresh (horizontally scaled) replica copies.
    base_cpu_request: float
    base_mem_limit: float
    base_net_rate: float
    replicas: tuple[ReplicaView, ...] = ()

    @property
    def replica_count(self) -> int:
        """Active replicas, booting included (they hold reservations)."""
        return len(self.replicas)

    def measurable_replicas(self) -> tuple[ReplicaView, ...]:
        """Replicas with a usage signal (booting ones excluded)."""
        return tuple(r for r in self.replicas if not r.booting)

    # Aggregates used verbatim in the paper's equations -----------------
    def total_cpu_usage(self) -> float:
        """``sum(usage_r)`` over measurable replicas."""
        return sum(r.cpu_usage for r in self.measurable_replicas())

    def total_cpu_requested(self) -> float:
        """``sum(requested_r)`` over measurable replicas."""
        return sum(r.cpu_request for r in self.measurable_replicas())

    def total_mem_usage(self) -> float:
        """Memory analogue of :meth:`total_cpu_usage`."""
        return sum(r.mem_usage for r in self.measurable_replicas())

    def total_mem_requested(self) -> float:
        """Memory analogue of :meth:`total_cpu_requested`."""
        return sum(r.mem_limit for r in self.measurable_replicas())

@dataclass(frozen=True)
class NodeView:
    """One machine: capacity and what is reserved on it."""

    name: str
    capacity: ResourceVector
    allocated: ResourceVector
    services: tuple[str, ...] = ()  # services with a replica on this node

    @property
    def available(self) -> ResourceVector:
        """Unreserved capacity, clamped non-negative."""
        return (self.capacity - self.allocated).clamp_floor(0.0)

    def hosts(self, service: str) -> bool:
        """True if this node already hosts a replica of ``service``."""
        return service in self.services


@dataclass(frozen=True)
class ClusterView:
    """One monitor query round over the whole cluster."""

    now: float
    services: tuple[ServiceView, ...] = ()
    nodes: tuple[NodeView, ...] = ()
    _service_index: dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    _node_index: dict[str, int] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Frozen dataclass: populate the lookup indices via object.__setattr__.
        object.__setattr__(self, "_service_index", {s.name: i for i, s in enumerate(self.services)})
        object.__setattr__(self, "_node_index", {n.name: i for i, n in enumerate(self.nodes)})
        if len(self._service_index) != len(self.services):
            raise PolicyError("duplicate service in view")
        if len(self._node_index) != len(self.nodes):
            raise PolicyError("duplicate node in view")

    def service(self, name: str) -> ServiceView:
        """Service snapshot by name."""
        try:
            return self.services[self._service_index[name]]
        except KeyError:
            raise PolicyError(f"view has no service {name!r}") from None

    def node(self, name: str) -> NodeView:
        """Node snapshot by name."""
        try:
            return self.nodes[self._node_index[name]]
        except KeyError:
            raise PolicyError(f"view has no node {name!r}") from None

    def node_of(self, replica: ReplicaView) -> NodeView:
        """Node snapshot hosting the given replica."""
        return self.node(replica.node)

    def digest(self) -> str:
        """Short content digest of the whole snapshot.

        Two views of identical observable state produce the same digest, so
        decision traces can be correlated ("this tick saw the same cluster
        as that one") and same-seed runs produce byte-identical traces.
        Floats are folded in via ``repr`` (exact, locale-independent).
        """
        hasher = hashlib.sha256()
        parts: list[str] = [repr(self.now)]
        for service in self.services:
            parts.append(
                f"s|{service.name}|{service.min_replicas}|{service.max_replicas}"
                f"|{service.target_utilization!r}|{service.base_cpu_request!r}"
                f"|{service.base_mem_limit!r}|{service.base_net_rate!r}"
            )
            for r in service.replicas:
                parts.append(
                    f"r|{r.container_id}|{r.node}|{int(r.booting)}|{r.cpu_request!r}"
                    f"|{r.cpu_usage!r}|{r.mem_limit!r}|{r.mem_usage!r}|{r.net_rate!r}"
                    f"|{r.net_usage!r}|{r.disk_quota!r}|{r.disk_usage!r}"
                )
        for node in self.nodes:
            parts.append(
                f"n|{node.name}|{node.capacity!r}|{node.allocated!r}|{','.join(node.services)}"
            )
        hasher.update("\n".join(parts).encode("utf-8"))
        return hasher.hexdigest()[:16]
