"""Microservice specifications and replica sets.

A microservice is "an individual entity and not part of a group" (Section
V-A): one spec, N containerized replicas spread over the cluster.  The spec
carries the knobs every autoscaling algorithm in the paper consumes — the
initial per-replica allocation, the min/max replica bounds, and the target
utilization.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.container import Container
from repro.cluster.resources import ResourceVector
from repro.errors import ClusterError


@dataclass(frozen=True)
class MicroserviceSpec:
    """Static description of one microservice deployment."""

    name: str
    #: Initial CPU request per replica, in cores.
    cpu_request: float = 0.5
    #: Memory limit per replica, MiB.  Also the "baseline memory
    #: requirement" a node must advertise before HyScale will spawn a new
    #: replica there (Section IV-B1).
    mem_limit: float = 512.0
    #: Guaranteed egress rate per replica, Mbit/s.
    net_rate: float = 50.0
    #: Reference disk bandwidth per replica, MB/s.  Purely a scaling target
    #: for the disk autoscaler extension — disk has no reservations.
    disk_quota: float = 50.0
    #: Replica bounds enforced by every algorithm (user-specified inputs to
    #: the Kubernetes autoscaler, Section IV-A1).
    min_replicas: int = 1
    max_replicas: int = 16
    #: Target utilization as a 0..1 fraction (the paper's ``Target_m``).
    target_utilization: float = 0.5
    #: Request-processing concurrency per replica (the application's thread
    #: pool / connection backlog).  Requests beyond this queue inside the
    #: container without consuming memory.
    max_concurrency: int = 16
    #: Stateful services must keep replicas consistent (Section IV-B:
    #: "horizontally scaling microservices that need to preserve state is
    #: non-trivial as it introduces the need for a consistency model").
    #: When True, every request pays a per-extra-replica synchronization
    #: overhead and new replicas must first transfer the state.
    stateful: bool = False
    #: Resident state to transfer when a stateful replica is created, MB.
    state_size_mb: float = 256.0
    #: Name of the workload profile driving this service's requests
    #: (resolved by :mod:`repro.workloads.profiles`); informational here.
    profile: str = "cpu_bound"

    def __post_init__(self) -> None:
        if not self.name:
            raise ClusterError("microservice name must be non-empty")
        if self.cpu_request <= 0 or self.mem_limit <= 0 or self.net_rate < 0:
            raise ClusterError(f"{self.name}: per-replica allocations must be positive")
        if self.min_replicas < 1:
            raise ClusterError(f"{self.name}: min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ClusterError(f"{self.name}: max_replicas must be >= min_replicas")
        if not 0 < self.target_utilization <= 1:
            raise ClusterError(f"{self.name}: target_utilization must be in (0, 1]")
        if self.max_concurrency < 1:
            raise ClusterError(f"{self.name}: max_concurrency must be >= 1")
        if self.disk_quota <= 0:
            raise ClusterError(f"{self.name}: disk_quota must be positive")
        if self.state_size_mb < 0:
            raise ClusterError(f"{self.name}: state_size_mb must be >= 0")

    def initial_allocation(self) -> ResourceVector:
        """Per-replica allocation vector at deployment time."""
        return ResourceVector(self.cpu_request, self.mem_limit, self.net_rate)


class Microservice:
    """A spec plus its live replica set."""

    def __init__(self, spec: MicroserviceSpec):
        self.spec = spec
        self.replicas: dict[str, Container] = {}
        self._next_replica_index = 0

    @property
    def name(self) -> str:
        """Service name (delegates to the spec)."""
        return self.spec.name

    def next_replica_index(self) -> int:
        """Monotonic index for naming the next replica."""
        index = self._next_replica_index
        self._next_replica_index += 1
        return index

    # ------------------------------------------------------------------
    # Replica registry
    # ------------------------------------------------------------------
    def track(self, container: Container) -> None:
        """Register a newly created replica."""
        if container.service != self.name:
            raise ClusterError(
                f"container {container.container_id} belongs to {container.service!r}, "
                f"not {self.name!r}"
            )
        if container.container_id in self.replicas:
            raise ClusterError(f"replica {container.container_id} already tracked")
        self.replicas[container.container_id] = container

    def forget(self, container_id: str) -> Container:
        """Deregister a replica (after removal or OOM kill)."""
        try:
            return self.replicas.pop(container_id)
        except KeyError:
            raise ClusterError(f"{self.name}: unknown replica {container_id}") from None

    def active_replicas(self) -> list[Container]:
        """Replicas occupying resources (PENDING or RUNNING), id-ordered."""
        return [c for _, c in sorted(self.replicas.items()) if c.is_active]

    def serving_replicas(self) -> list[Container]:
        """Replicas able to take traffic, id-ordered."""
        return [c for _, c in sorted(self.replicas.items()) if c.is_serving]

    @property
    def replica_count(self) -> int:
        """Number of active replicas (the autoscalers' ``current`` count)."""
        return len(self.active_replicas())

    # ------------------------------------------------------------------
    # Aggregates the algorithms consume
    # ------------------------------------------------------------------
    def total_requested(self) -> ResourceVector:
        """Sum of active replicas' allocations."""
        return ResourceVector.sum(
            ResourceVector(c.cpu_request, c.mem_limit, c.net_rate) for c in self.active_replicas()
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Microservice({self.name!r}, replicas={self.replica_count})"
