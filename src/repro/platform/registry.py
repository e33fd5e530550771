"""Service registry: microservice name -> live endpoints.

The LOAD BALANCERs "act as proxies for clients interacting with
microservices" (Section V); to proxy they need a live view of which replicas
can take traffic.  The registry is that view — a thin, always-fresh read
layer over the cluster's replica sets, kept separate from the cluster so the
load balancer depends on services and their endpoints, not on how the
cluster stores them.
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.cluster.microservice import Microservice
from repro.errors import ClusterError


class ServiceRegistry:
    """Live endpoint lookup for the load balancers."""

    def __init__(self, cluster: Cluster):
        self._cluster = cluster

    def service(self, name: str) -> Microservice:
        """The registered microservice ``name``: its live replica set and spec.

        The load balancer resolves a request's service once, here, and
        reads both its endpoints (``serving_replicas()``: PENDING and
        stopped replicas are excluded, as traffic routed to a booting
        container would be connection-refused in the real system) and its
        statefulness from the result.
        """
        service = self._cluster.services.get(name)
        if service is None:
            raise ClusterError(f"unknown service {name!r}")
        return service

    def host_of(self, container_id: str) -> str:
        """Name of the node hosting ``container_id``.

        Topology-aware routing reads this to prefer same-node downstream
        replicas for internal application-graph calls.
        """
        return self._cluster.node_of(container_id).name
