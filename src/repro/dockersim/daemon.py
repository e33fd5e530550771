"""Per-node simulated Docker daemon.

Exposes the four verbs the platform uses against real Docker:

* ``docker run``   -> :meth:`DockerDaemon.run` (with boot delay),
* ``docker update``-> :meth:`DockerDaemon.update` (vertical scaling of CPU
  shares / memory limit, plus tc reshaping for network),
* ``docker rm -f`` -> :meth:`DockerDaemon.remove`,
* ``docker stats`` -> :meth:`DockerDaemon.stats`.

``update`` enforces that total *reservations* stay within node capacity.
Real Docker would happily oversubscribe shares; our platform treats requests
as reservations (as Kubernetes does), and HyScale's equations explicitly cap
acquisitions at node availability — so the daemon is where policy bugs that
overshoot get caught.
"""

from __future__ import annotations

from repro.cluster.container import Container, ContainerState
from repro.cluster.node import Node
from repro.cluster.resources import ResourceVector
from repro.dockersim.stats import StatsSample
from repro.errors import CapacityError, ContainerNotFound, ContainerStateError
from repro.workloads.requests import Request


class DockerDaemon:
    """The Docker engine on one node."""

    def __init__(self, node: Node):
        self.node = node

    # ------------------------------------------------------------------
    # docker run
    # ------------------------------------------------------------------
    def run(
        self,
        service: str,
        replica_index: int,
        *,
        cpu_request: float,
        mem_limit: float,
        net_rate: float,
        now: float,
        boot_delay: float = 0.0,
        max_concurrency: int = 16,
        disk_quota: float = 50.0,
        enforce_capacity: bool = True,
        container_id: str | None = None,
    ) -> Container:
        """Create and host a container; it serves traffic once booted."""
        container = Container(
            service,
            replica_index,
            cpu_request=cpu_request,
            mem_limit=mem_limit,
            net_rate=net_rate,
            created_at=now,
            boot_delay=boot_delay,
            max_concurrency=max_concurrency,
            disk_quota=disk_quota,
            overheads=self.node.overheads,
            container_id=container_id,
        )
        self.node.add_container(container, enforce_capacity=enforce_capacity)
        return container

    def adopt(self, container: Container, *, enforce_capacity: bool = True) -> None:
        """Host an externally built container (stress containers in tests)."""
        self.node.add_container(container, enforce_capacity=enforce_capacity)

    # ------------------------------------------------------------------
    # docker update
    # ------------------------------------------------------------------
    def update(
        self,
        container_id: str,
        *,
        cpu_request: float | None = None,
        mem_limit: float | None = None,
        net_rate: float | None = None,
        enforce_capacity: bool = True,
    ) -> Container:
        """Vertically rescale a container in place.

        CPU maps to ``docker update --cpu-shares``, memory to ``--memory``;
        network has no Docker verb (Section III-C), so it goes through the
        NIC's tc classes instead.  Bumps the node's change generation.
        """
        container = self._get(container_id)
        if not container.is_active:
            raise ContainerStateError(f"cannot update {container_id} in state {container.state}")

        new_cpu = container.cpu_request if cpu_request is None else float(cpu_request)
        new_mem = container.mem_limit if mem_limit is None else float(mem_limit)
        new_net = container.net_rate if net_rate is None else float(net_rate)
        if new_cpu < 0 or new_mem <= 0 or new_net < 0:
            raise ContainerStateError("updated allocations must satisfy cpu>=0, memory>0, network>=0")

        if enforce_capacity:
            others = self.node.allocated() - _reservation(container)
            total_cpu = others.cpu + new_cpu
            total_mem = others.memory + new_mem
            total_net = others.network + new_net
            cap = self.node.capacity
            if total_cpu > cap.cpu + 1e-9 or total_mem > cap.memory + 1e-9 or total_net > cap.network + 1e-9:
                raise CapacityError(
                    f"update of {container_id} would oversubscribe node {self.node.name}"
                )

        container.cpu_request = new_cpu
        container.mem_limit = new_mem
        self.node.generation += 1
        if net_rate is not None:
            self.node.reshape_network(container_id, new_net)
        return container

    # ------------------------------------------------------------------
    # docker rm -f
    # ------------------------------------------------------------------
    def remove(self, container_id: str, now: float) -> list[Request]:
        """Force-remove a container; in-flight requests fail as removals."""
        self._get(container_id)
        container = self.node.remove_container(container_id, now)
        return [r for r in container.drain_finished()]

    # ------------------------------------------------------------------
    # docker stats
    # ------------------------------------------------------------------
    def stats(self, container_id: str, now: float) -> StatsSample:
        """Instantaneous usage reading for one container."""
        container = self._get(container_id)
        return StatsSample(
            timestamp=now,
            cpu_usage=container.cpu_usage,
            cpu_request=container.cpu_request,
            mem_usage=container.mem_usage,
            mem_limit=container.mem_limit,
            net_usage=container.net_usage,
            net_rate=container.net_rate,
            disk_usage=container.disk_usage,
            disk_quota=container.disk_quota,
        )

    def ps(self) -> list[Container]:
        """Active containers on this node (``docker ps``)."""
        return self.node.active_containers()

    def reap_oom_kills(self, now: float) -> list[Container]:
        """Clear kernel-killed containers off the node; return the corpses.

        Only a node whose steps reported a kill since the last reap is
        scanned; its corpses come in hosting (insertion) order.
        """
        node = self.node
        if not node.last_oom_kills:
            return []
        killed = ContainerState.OOM_KILLED
        reaped = [c for c in node.containers.values() if c.state is killed]
        for container in reaped:
            node.remove_container(container.container_id, now)
        node.last_oom_kills = []
        return reaped

    # ------------------------------------------------------------------
    def _get(self, container_id: str) -> Container:
        container = self.node.containers.get(container_id)
        if container is None:
            raise ContainerNotFound(f"no container {container_id} on node {self.node.name}")
        return container


def _reservation(container: Container) -> ResourceVector:
    """The reservation vector a container holds against its node."""
    return ResourceVector(container.cpu_request, container.mem_limit, container.net_rate)
