"""Cross-tier routing for application graphs: the graph router actor.

One ingress request to a multi-tier :class:`~repro.workloads.graph.
ApplicationSpec` consumes resources along its call chain.  The
:class:`GraphRouter` is the engine actor that drives that lifecycle:

* **ingress** — the load generator's sink for app runs.  Each arriving
  request is adopted as the root of an :class:`~repro.workloads.graph.
  AppRequest` tree, stamped with its tier's downstream fan-out, and
  forwarded to the front load-balancer tier.
* **dispatch** — when a tier request finishes its local phases (CPU,
  disk, network) it is held in flight by ``downstream_pending`` (see
  :meth:`Container.settle_requests`); the router then spawns its
  downstream calls, one per :class:`~repro.workloads.graph.CallEdge`
  multiplicity, each routed through that edge's own
  :class:`GraphEdgeBalancer`.
* **join** — when a downstream call finishes (completes, times out, or
  dies with its replica), the router decrements the parent's pending
  count; a failure marks ``downstream_failed`` so the parent fails as a
  connection failure.  The parent settles only after its slowest
  dependency — its completion latency therefore *includes* that
  dependency's latency, and a saturated downstream tier back-pressures
  upstream occupancy and response times.

Determinism: records are scanned in insertion order; children are
stamped from per-edge named RNG streams (``graph/caller->callee``) and
take ids from the run's single request-id sequence shared with the load
generator, so one app run is a pure function of (spec, seed).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro.config import OverheadModel
from repro.platform.load_balancer import LoadBalancer, RoutingPolicy
from repro.platform.registry import ServiceRegistry
from repro.platform.routing import resolve_routing
from repro.sim.clock import SimClock
from repro.sim.rng import RngStreams
from repro.workloads.graph import ApplicationSpec, AppRequest
from repro.workloads.profiles import MicroserviceProfile
from repro.workloads.requests import Request, RequestState

if TYPE_CHECKING:
    from repro.telemetry.hub import RunTelemetry


class GraphEdgeBalancer(LoadBalancer):
    """One load balancer per graph edge.

    Reuses the full :class:`LoadBalancer` machinery — routing policies,
    backlog with deadline expiry, distribution/consistency overheads —
    scoped to a single (caller, callee) edge so each edge can run its own
    policy (``CallEdge.routing``), including the topology-aware pick that
    reads the caller-node hint stamped on internal requests.
    """

    def __init__(
        self,
        edge_label: str,
        registry: ServiceRegistry,
        overheads: OverheadModel,
        failure_sink: Callable[[Request], None],
        policy: RoutingPolicy,
    ):
        super().__init__(registry, overheads, failure_sink, policy)
        self.edge_label = edge_label


class _EdgePlan:
    """Prefetched per-edge dispatch state (no per-step string work: HOT004)."""

    __slots__ = ("callee", "calls", "profile", "stream", "balancer", "callee_fan_out", "label", "wants_origin")

    def __init__(
        self,
        callee: str,
        calls: int,
        profile: MicroserviceProfile,
        stream: np.random.Generator,
        balancer: GraphEdgeBalancer,
        callee_fan_out: int,
        label: str,
        wants_origin: bool,
    ) -> None:
        self.callee = callee
        self.calls = calls
        self.profile = profile
        self.stream = stream
        self.balancer = balancer
        self.callee_fan_out = callee_fan_out
        self.label = label
        self.wants_origin = wants_origin


class _TierRecord:
    """One live tier request in an app tree."""

    __slots__ = ("request", "parent", "app", "dispatched", "joined")

    def __init__(self, request: Request, parent: Request | None, app: AppRequest) -> None:
        self.request = request
        self.parent = parent
        self.app = app
        self.dispatched = False
        self.joined = False


class GraphRouter:
    """Engine actor that dispatches and joins cross-tier calls.

    Registered by ``Simulation.build`` right after the cluster phase, so
    a tier whose local work finished this step dispatches its downstream
    calls the same step, and finished children join their parents before
    node managers and the monitor observe the cluster.
    """

    def __init__(
        self,
        app: ApplicationSpec,
        registry: ServiceRegistry,
        overheads: OverheadModel,
        rng: RngStreams,
        failure_sink: Callable[[Request], None],
        lb_submit: Callable[[Request], None],
        request_seq: Iterator[int],
        *,
        routing: "RoutingPolicy | str" = RoutingPolicy.WEIGHTED_CPU,
        telemetry: "RunTelemetry | None" = None,
    ) -> None:
        from repro.workloads.registry import resolve_profile

        self.app = app
        self._registry = registry
        self._failure_sink = failure_sink
        self._lb_submit = lb_submit
        self._request_seq = request_seq
        self._telemetry = telemetry
        self._now = 0.0
        self._records: dict[int, _TierRecord] = {}
        self.total_ingress = 0
        self.total_internal = 0
        self.apps_completed = 0
        self.apps_failed = 0

        graph = app.graph
        default_policy = resolve_routing(routing)
        # Per-caller dispatch plans and the flat balancer list, both in the
        # pinned topological / callee-sorted order.  Streams, profiles, and
        # labels are prefetched here so the per-step path formats nothing.
        self._fan_out: dict[str, int] = {}
        self._plans: dict[str, tuple[_EdgePlan, ...]] = {}
        self._balancers: list[GraphEdgeBalancer] = []
        for caller in graph.topological_order():
            self._fan_out[caller] = graph.fan_out(caller)
            plans = []
            for edge in graph.out_edges(caller):
                policy = default_policy if edge.routing is None else resolve_routing(edge.routing)
                label = f"{edge.caller}->{edge.callee}"
                balancer = GraphEdgeBalancer(
                    label, registry, overheads, self._on_child_rejected, policy
                )
                plans.append(
                    _EdgePlan(
                        callee=edge.callee,
                        calls=edge.calls,
                        profile=resolve_profile(graph.service(edge.callee).profile),
                        stream=rng.stream(f"graph/{label}"),
                        balancer=balancer,
                        callee_fan_out=graph.fan_out(edge.callee),
                        label=label,
                        wants_origin=policy is RoutingPolicy.TOPOLOGY,
                    )
                )
                self._balancers.append(balancer)
            self._plans[caller] = tuple(plans)

    # ------------------------------------------------------------------
    # Ingress (the load generator's sink in app runs)
    # ------------------------------------------------------------------
    def ingress(self, request: Request) -> None:
        """Adopt one user request as an app-tree root and forward it."""
        request.downstream_pending = self._fan_out[request.service]
        record = _TierRecord(request, None, AppRequest(app=self.app.name, root=request))
        self._records[request.request_id] = record
        self.total_ingress += 1
        self._lb_submit(request)

    # ------------------------------------------------------------------
    # Engine integration
    # ------------------------------------------------------------------
    def on_step(self, clock: SimClock) -> None:
        """Drive edge balancers, join finished calls, dispatch new ones."""
        self._now = clock.now
        for balancer in self._balancers:
            balancer.on_step(clock)
        if not self._records:
            return
        finished_ids: list[int] = []
        for record in list(self._records.values()):
            request = record.request
            if request.is_finished:
                self._join(record)
                finished_ids.append(request.request_id)
            elif not record.dispatched and request.local_work_done:
                record.dispatched = True
                self._dispatch(record)
        for request_id in finished_ids:
            del self._records[request_id]

    # ------------------------------------------------------------------
    # Tree mechanics
    # ------------------------------------------------------------------
    def _dispatch(self, record: _TierRecord) -> None:
        """Spawn the downstream calls of a tier whose local work is done."""
        parent = record.request
        plans = self._plans[parent.service]
        if not plans:
            return
        origin: str | None = None
        app = record.app
        telemetry = self._telemetry
        for plan in plans:
            if plan.wants_origin and origin is None and parent.container_id is not None:
                origin = self._registry.host_of(parent.container_id)
            for _ in range(plan.calls):
                child = plan.profile.make_request(
                    plan.callee, self._now, plan.stream, request_id=next(self._request_seq)
                )
                child.ingress = False
                child.downstream_pending = plan.callee_fan_out
                child.origin_node = origin
                self._records[child.request_id] = _TierRecord(child, parent, app)
                app.spawned += 1
                app.live_internal += 1
                self.total_internal += 1
                if telemetry is not None:
                    telemetry.observe_graph_call(plan.label)
                plan.balancer.submit(child)

    def _join(self, record: _TierRecord) -> None:
        """Propagate one finished tier request to its parent (idempotent)."""
        if record.joined:
            return
        record.joined = True
        request = record.request
        failed = request.state is RequestState.FAILED
        parent = record.parent
        app = record.app
        if parent is None:
            # Root finished: the whole tree's end-to-end outcome.
            if failed:
                self.apps_failed += 1
            else:
                self.apps_completed += 1
            if self._telemetry is not None:
                self._telemetry.observe_app_request(request)
            return
        app.live_internal -= 1
        if failed:
            app.internal_failed += 1
        else:
            app.internal_completed += 1
        if not parent.is_finished:
            parent.downstream_pending -= 1
            if failed:
                parent.downstream_failed = True

    def _on_child_rejected(self, request: Request) -> None:
        """Failure sink for edge balancers (backlog expiry).

        Joins the dead call into its tree immediately, then forwards to
        the run-level failure sink so metrics and telemetry account it.
        """
        record = self._records.get(request.request_id)
        if record is not None:
            self._join(record)
        self._failure_sink(request)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def edge_stats(self) -> dict[str, dict[str, int]]:
        """Routed/rejected/backlog per edge, in pinned edge order."""
        return {
            balancer.edge_label: {
                "routed": balancer.total_routed,
                "rejected": balancer.total_rejected,
                "backlog": balancer.backlog(),
            }
            for balancer in self._balancers
        }