"""Cluster: the registry of nodes and microservices.

The cluster is pure bookkeeping plus the per-step drive loop over nodes; all
*mutations* (starting, resizing, removing containers) go through the
simulated Docker daemons in :mod:`repro.dockersim`, exactly as the paper's
NODE MANAGERs go through the real Docker API.
"""

from __future__ import annotations

import itertools

from repro.cluster.microservice import Microservice, MicroserviceSpec
from repro.cluster.node import Node
from repro.cluster.resources import ResourceVector
from repro.config import ClusterConfig, OverheadModel
from repro.errors import ClusterError
from repro.sim.clock import SimClock
from repro.workloads.requests import Request


class Cluster:
    """Nodes + services, with capacity queries used by placement and HyScale."""

    def __init__(self, overheads: OverheadModel | None = None):
        self.overheads = overheads or OverheadModel()
        self.nodes: dict[str, Node] = {}
        self.services: dict[str, Microservice] = {}
        self._finished: list[Request] = []
        # Per-cluster (i.e. per-run) container-id sequence.  A process-global
        # counter here would leak across runs and break the guarantee that a
        # SimulationConfig fully determines a run (container ids appear in
        # the scaling-event stream).
        self._container_seq = itertools.count(1)

    def next_container_id(self, service: str, replica_index: int) -> str:
        """Allocate the next container id, unique within this cluster."""
        return f"{service}.r{replica_index}.c{next(self._container_seq)}"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config: ClusterConfig, overheads: OverheadModel | None = None) -> "Cluster":
        """Build the worker fleet described by ``config`` (LBs are not nodes:
        they are modeled by :mod:`repro.platform.load_balancer`)."""
        config.validate()
        cluster = cls(overheads)
        capacity = ResourceVector(config.node_cpu, config.node_memory, config.node_network)
        for i in range(config.worker_nodes):
            cluster.add_node(
                Node(f"node-{i:02d}", capacity, cluster.overheads, disk_capacity=config.node_disk)
            )
        return cluster

    def add_node(self, node: Node) -> None:
        """Register a machine (also used by the dynamic-fleet ablation)."""
        if node.name in self.nodes:
            raise ClusterError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node

    def remove_node(self, name: str, now: float) -> list[Request]:
        """Decommission a machine, failing everything running on it."""
        node = self.node(name)
        casualties: list[Request] = []
        for container_id in list(node.containers):
            container = node.containers[container_id]
            node.remove_container(container_id, now)
            service = self.services.get(container.service)
            if service is not None and container_id in service.replicas:
                service.forget(container_id)
        casualties.extend(node.drain_finished())
        del self.nodes[name]
        self._finished.extend(casualties)
        return casualties

    def register_service(self, spec: MicroserviceSpec) -> Microservice:
        """Create the (initially replica-less) service record."""
        if spec.name in self.services:
            raise ClusterError(f"duplicate service name {spec.name!r}")
        service = Microservice(spec)
        self.services[spec.name] = service
        return service

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        """Node by name, or raise."""
        try:
            return self.nodes[name]
        except KeyError:
            raise ClusterError(f"unknown node {name!r}") from None

    def service(self, name: str) -> Microservice:
        """Service by name, or raise."""
        try:
            return self.services[name]
        except KeyError:
            raise ClusterError(f"unknown service {name!r}") from None

    def node_of(self, container_id: str) -> Node:
        """Node hosting the given container, or raise."""
        for node in self.nodes.values():
            if container_id in node.containers:
                return node
        raise ClusterError(f"container {container_id} not hosted anywhere")

    def sorted_nodes(self) -> list[Node]:
        """Nodes in name order (deterministic iteration)."""
        return [self.nodes[name] for name in sorted(self.nodes)]

    def sorted_services(self) -> list[Microservice]:
        """Services in name order (deterministic iteration)."""
        return [self.services[name] for name in sorted(self.services)]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_capacity(self) -> ResourceVector:
        """Sum of node capacities."""
        return ResourceVector.sum(n.capacity for n in self.nodes.values())

    def total_allocated(self) -> ResourceVector:
        """Sum of node allocations."""
        return ResourceVector.sum(n.allocated() for n in self.nodes.values())

    # ------------------------------------------------------------------
    # Engine integration
    # ------------------------------------------------------------------
    def on_step(self, clock: SimClock) -> None:
        """Drive every node one step and collect finished requests."""
        for node in self.sorted_nodes():
            node.step(clock.now, clock.dt)
            self._finished.extend(node.drain_finished())

    def drain_finished(self) -> list[Request]:
        """Hand over and clear all requests that finished this step.

        Also sweeps the per-node buffers: scaling actions execute *after*
        the nodes' compute phase within a step, so their casualties would
        otherwise sit in node buffers until the next step — and be lost
        entirely on the final step of a run.
        """
        for node in self.sorted_nodes():
            self._finished.extend(node.drain_finished())
        finished, self._finished = self._finished, []
        return finished

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Cluster(nodes={len(self.nodes)}, services={len(self.services)})"
