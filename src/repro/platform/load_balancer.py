"""Server-side load balancer.

"Distributed server-side LOAD BALANCERs (LBs) act as proxies for clients
interacting with microservices" (Section V).  The paper ran five LB nodes;
since the LB tier was never the bottleneck in their evaluation we model it
as one logical balancer with pluggable routing policies.

Responsibilities:

* route each arriving request to a serving replica,
* hold requests briefly while a service has no live replica (e.g. all
  replicas booting after a scale-from-zero) and fail them as *connection
  failures* when they time out un-routed,
* stamp each routed request with the replica-distribution overhead factor
  (Section III-A's logarithmic cost of fanning out over more replicas).
"""

from __future__ import annotations

import enum
import math
from collections import deque
from typing import Callable

from repro.cluster.container import Container
from repro.cluster.microservice import Microservice
from repro.config import OverheadModel
from repro.errors import ClusterError
from repro.platform.registry import ServiceRegistry
from repro.sim.clock import SimClock
from repro.workloads.requests import FailureReason, Request


class RoutingPolicy(enum.Enum):
    """How the LB spreads requests over replicas."""

    ROUND_ROBIN = "round_robin"
    LEAST_OUTSTANDING = "least_outstanding"
    WEIGHTED_CPU = "weighted_cpu"  # favour replicas with larger CPU requests
    #: Prefer replicas on the caller's node (no network hop for internal
    #: graph calls), spilling to remote replicas once the local queue,
    #: inflated by the co-location contention model, gets deeper than the
    #: remote one.  Falls back to least-outstanding for requests with no
    #: caller context (e.g. ingress traffic).
    TOPOLOGY = "topology"


def _least_outstanding(replicas: list[Container]) -> Container:
    """The min of ``(in-flight requests, container id)`` over ``replicas``.

    One pass that compares the pair inline: this runs for every routed
    request, so it makes no key-function call per replica.
    """
    best = replicas[0]
    fewest = len(best.inflight)
    for replica in replicas:
        n = len(replica.inflight)
        if n < fewest or (n == fewest and replica.container_id < best.container_id):
            best, fewest = replica, n
    return best


def _weighted_cpu(replicas: list[Container]) -> Container:
    """The max of ``(cpu_request / (in-flight requests + 1), container id)``.

    Largest CPU request per outstanding request wins, the higher id breaking
    ties; one inline pass, like :func:`_least_outstanding`.
    """
    best = replicas[0]
    top = best.cpu_request / (len(best.inflight) + 1)
    for replica in replicas:
        score = replica.cpu_request / (len(replica.inflight) + 1)
        if score > top or (score == top and replica.container_id > best.container_id):
            best, top = replica, score
    return best


class LoadBalancer:
    """Routes requests to replicas; failed routing becomes connection failures."""

    def __init__(
        self,
        registry: ServiceRegistry,
        overheads: OverheadModel,
        failure_sink: Callable[[Request], None],
        policy: RoutingPolicy = RoutingPolicy.ROUND_ROBIN,
    ):
        self.registry = registry
        self.overheads = overheads
        self.policy = policy
        self._failure_sink = failure_sink
        self._pending: deque[Request] = deque()
        self._rr_counters: dict[str, int] = {}
        self._now = 0.0
        self.total_routed = 0
        self.total_rejected = 0

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Accept a client request; route now or park it in the backlog."""
        if not self._try_route(request, self.registry.service(request.service)):
            self._pending.append(request)

    def backlog(self) -> int:
        """Requests waiting for a live replica."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # Engine integration
    # ------------------------------------------------------------------
    def on_step(self, clock: SimClock) -> None:
        """Retry the backlog; expire requests that out-waited their timeout."""
        self._now = clock.now
        still_waiting: deque[Request] = deque()
        while self._pending:
            request = self._pending.popleft()
            if clock.now >= request.deadline():
                request.fail(clock.now, FailureReason.CONNECTION)
                self.total_rejected += 1
                self._failure_sink(request)
            elif not self._try_route(request, self.registry.service(request.service)):
                still_waiting.append(request)
        self._pending = still_waiting

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _try_route(self, request: Request, service: Microservice) -> bool:
        """Route ``request`` to one of ``service``'s serving replicas, if any."""
        replicas = service.serving_replicas()
        if not replicas:
            return False
        replica = self._pick_for(request, replicas)
        overhead = self.distribution_overhead(len(replicas))
        if service.spec.stateful:
            overhead *= self.consistency_overhead(len(replicas))
        replica.accept(request, self._now, overhead_factor=overhead)
        self.total_routed += 1
        return True

    def _pick_for(self, request: Request, replicas: list[Container]) -> Container:
        """Request-aware pick hook.

        The base balancer only needs the service name, but subclasses (the
        graph's per-edge balancers) and the topology policy read routing
        hints stamped on the request itself.
        """
        if self.policy is RoutingPolicy.TOPOLOGY:
            return self._pick_topology(request, replicas)
        return self._pick(request.service, replicas)

    def _pick_topology(self, request: Request, replicas: list[Container]) -> Container:
        """Same-node-preferring pick for internal graph calls.

        A same-node replica serves the call without a network hop, but it
        competes for the caller's cores — so we stay local only while the
        local queue, inflated by the co-location contention slope, is no
        deeper than the remote queue inflated by the contention cap
        (``config.OverheadModel``'s Section III co-location model).
        """
        origin = request.origin_node
        if origin is None:
            return _least_outstanding(replicas)
        near: list[Container] = []
        far: list[Container] = []
        host_of = self.registry.host_of
        for replica in replicas:
            (near if host_of(replica.container_id) == origin else far).append(replica)
        if not near or not far:
            return _least_outstanding(near or far)
        local, remote = _least_outstanding(near), _least_outstanding(far)
        local_cost = (len(local.inflight) + 1) * (1.0 + self.overheads.colocation_contention)
        remote_cost = (len(remote.inflight) + 1) * self.overheads.colocation_cap
        return local if local_cost <= remote_cost else remote

    def _pick(self, service: str, replicas: list[Container]) -> Container:
        if self.policy is RoutingPolicy.ROUND_ROBIN:
            counter = self._rr_counters.get(service, 0)
            self._rr_counters[service] = counter + 1
            return replicas[counter % len(replicas)]
        if self.policy is RoutingPolicy.LEAST_OUTSTANDING:
            return _least_outstanding(replicas)
        # WEIGHTED_CPU: deterministic weighted round-robin — pick the replica
        # with the largest CPU request per outstanding request.
        return _weighted_cpu(replicas)

    def distribution_overhead(self, n_replicas: int) -> float:
        """Service-time multiplier for a service fanned out to ``n`` replicas.

        Section III-A: replica distribution across nodes costs a logarithmic
        overhead — ``1 + coeff * ln(n)`` (1.0 for a single replica).
        """
        if n_replicas < 1:
            raise ClusterError("n_replicas must be >= 1")
        return 1.0 + self.overheads.distribution_log_coeff * math.log(n_replicas)

    def consistency_overhead(self, n_replicas: int) -> float:
        """Service-time multiplier for a *stateful* service at ``n`` replicas.

        Section IV-B: preserving state across replicas "introduces the need
        for a consistency model" — every write must reach every copy, so
        each extra replica adds a fixed synchronization fraction.
        """
        if n_replicas < 1:
            raise ClusterError("n_replicas must be >= 1")
        return 1.0 + self.overheads.state_sync_overhead * (n_replicas - 1)
