"""Cluster-wide Docker client facade.

The paper's NODE MANAGERs talk to their local daemon through docker-java
(Section V-B); the MONITOR addresses containers by id without caring where
they live.  :class:`DockerClient` provides that same shape: one object,
backed by one :class:`~repro.dockersim.daemon.DockerDaemon` per node, with a
container-id -> node index so every verb can be routed.

It is also where replica bookkeeping happens: ``run_replica`` registers the
new container with its :class:`~repro.cluster.microservice.Microservice`,
``remove_replica`` and OOM reaping deregister it.
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.cluster.container import Container
from repro.cluster.resources import ResourceVector
from repro.dockersim.daemon import DockerDaemon
from repro.dockersim.stats import StatsSample
from repro.errors import CapacityError, ClusterError, ContainerNotFound
from repro.workloads.requests import Request


class DockerClient:
    """Routes Docker verbs to per-node daemons and keeps replica registries."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.daemons: dict[str, DockerDaemon] = {
            name: DockerDaemon(node) for name, node in cluster.nodes.items()
        }
        self._location: dict[str, str] = {}  # container_id -> node name

    # ------------------------------------------------------------------
    # Node lifecycle (dynamic-fleet ablation support)
    # ------------------------------------------------------------------
    def track_node(self, name: str) -> None:
        """Start managing a node added to the cluster after construction."""
        if name in self.daemons:
            raise ClusterError(f"node {name!r} already tracked")
        self.daemons[name] = DockerDaemon(self.cluster.node(name))

    def untrack_node(self, name: str) -> None:
        """Stop managing a decommissioned node."""
        self.daemons.pop(name, None)
        self._location = {cid: n for cid, n in self._location.items() if n != name}

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def run_replica(
        self,
        service_name: str,
        node_name: str,
        *,
        cpu_request: float,
        mem_limit: float,
        net_rate: float,
        now: float,
        boot_delay: float | None = None,
    ) -> Container:
        """Start a new replica of ``service_name`` on ``node_name``."""
        service = self.cluster.service(service_name)
        daemon = self._daemon(node_name)
        delay = self.cluster.overheads.container_boot_delay if boot_delay is None else boot_delay
        if service.spec.stateful and service.active_replicas():
            # A stateful replica cannot serve until it has pulled a copy of
            # the state from its peers (Section IV-B) — the first replica is
            # exempt (it *is* the state).
            delay += service.spec.state_size_mb / self.cluster.overheads.state_transfer_mb_per_s
        replica_index = service.next_replica_index()
        container = daemon.run(
            service_name,
            replica_index,
            cpu_request=cpu_request,
            mem_limit=mem_limit,
            net_rate=net_rate,
            now=now,
            boot_delay=delay,
            max_concurrency=service.spec.max_concurrency,
            disk_quota=service.spec.disk_quota,
            # Allocated by the run's cluster so ids are per-run deterministic.
            container_id=self.cluster.next_container_id(service_name, replica_index),
        )
        service.track(container)
        self._location[container.container_id] = node_name
        return container

    def update(
        self,
        container_id: str,
        *,
        cpu_request: float | None = None,
        mem_limit: float | None = None,
        net_rate: float | None = None,
    ) -> Container:
        """Vertically rescale a container wherever it lives."""
        return self._daemon_of(container_id).update(
            container_id,
            cpu_request=cpu_request,
            mem_limit=mem_limit,
            net_rate=net_rate,
        )

    def remove_replica(self, container_id: str, now: float) -> list[Request]:
        """Remove a replica and deregister it from its service."""
        daemon = self._daemon_of(container_id)
        container = daemon.node.containers[container_id]
        casualties = daemon.remove(container_id, now)
        service = self.cluster.services.get(container.service)
        if service is not None and container_id in service.replicas:
            service.forget(container_id)
        self._location.pop(container_id, None)
        return casualties

    def migrate_replica(self, container_id: str, target_node: str, now: float) -> Container:
        """Live-migrate a container to another machine (extension).

        The container keeps its in-flight requests but freezes for the
        checkpoint/restore window; the target must fit the container's
        reservation or the move is rejected.
        """
        source = self._daemon_of(container_id)
        target = self._daemon(target_node)
        if source.node.name == target_node:
            return source.node.containers[container_id]
        container = source.node.containers.get(container_id)
        if container is None:
            raise ContainerNotFound(f"unknown container {container_id}")
        reservation = ResourceVector(container.cpu_request, container.mem_limit, container.net_rate)
        if not target.node.can_fit(reservation):
            raise CapacityError(
                f"node {target_node} cannot fit {container_id} ({reservation})"
            )
        source.node.detach_container(container_id)
        container.freeze(self.cluster.overheads.migration_freeze)
        target.node.add_container(container)
        self._location[container_id] = target_node
        return container

    def stats(self, container_id: str, now: float) -> StatsSample:
        """``docker stats`` for one container."""
        return self._daemon_of(container_id).stats(container_id, now)

    def node_name_of(self, container_id: str) -> str:
        """Which node hosts the container."""
        try:
            return self._location[container_id]
        except KeyError:
            raise ContainerNotFound(f"unknown container {container_id}") from None

    def reap(self, now: float) -> list[Container]:
        """Reap OOM-killed containers cluster-wide; deregister their replicas.

        Visits only the nodes that reported kills, in name order.
        """
        corpses: list[Container] = []
        killers = [name for name, daemon in self.daemons.items() if daemon.node.last_oom_kills]
        for name in sorted(killers):
            for container in self.daemons[name].reap_oom_kills(now):
                service = self.cluster.services.get(container.service)
                if service is not None and container.container_id in service.replicas:
                    service.forget(container.container_id)
                self._location.pop(container.container_id, None)
                corpses.append(container)
        return corpses

    # ------------------------------------------------------------------
    def _daemon(self, node_name: str) -> DockerDaemon:
        try:
            return self.daemons[node_name]
        except KeyError:
            raise ClusterError(f"no daemon for node {node_name!r}") from None

    def _daemon_of(self, container_id: str) -> DockerDaemon:
        return self._daemon(self.node_name_of(container_id))
