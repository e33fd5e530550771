"""The run-wide instrument catalogue and its sampling actor.

:class:`RunTelemetry` owns the standard instruments every experiment
exposes (see ``docs/telemetry.md`` for the catalogue) and runs as the
**final** engine actor — after the metrics collector — so each sampling
interval observes the fully settled step.  It is fed by three paths:

* **push** — hot-path call sites hand it events as they happen:
  :meth:`observe_request` per finished request,
  :meth:`observe_rejection` per LB admission failure;
* **pull** — :meth:`on_step` samples cumulative sources (node usage, LB
  totals, generator tallies) on the sampling interval, converting them to
  gauge sets and counter deltas, then calls ``registry.capture``;
* **step observer** — :meth:`end_step` counts engine steps and fired
  events from the engine's observed loop.

``Simulation.build`` creates a hub only for a run observed with a
registry; an unobserved run has none and pays nothing.
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.platform.lb_tier import LoadBalancerTier
from repro.sim.clock import SimClock
from repro.telemetry.registry import MetricRegistry
from repro.telemetry.sampling import SamplingController, resolve_sampling
from repro.telemetry.slo import SloAlert, SloTracker
from repro.workloads.generator import ClientLoadGenerator
from repro.workloads.requests import Request, RequestState


def _counter_value(family) -> float:  # type: ignore[no-untyped-def]
    """Current value of an unlabelled counter family, without minting it."""
    child = family.peek()
    return child.value if child is not None else 0.0


class RunTelemetry:
    """Standard instrument catalogue plus the per-interval sampling actor.

    Build one per simulation (``Simulation.build`` does this), then
    ``bind`` the data sources once wiring is complete.  The instance is
    registered as the engine's last actor under the name ``telemetry``.
    """

    def __init__(
        self,
        registry: MetricRegistry,
        *,
        slo: SloTracker | None = None,
        sample_every: float = 5.0,
        sampling: SamplingController | None = None,
    ) -> None:
        self.registry = registry
        self.slo = slo
        #: The run's sampling controller (``full`` unless one was passed);
        #: it decides which nodes each pull pass freshly collects and
        #: charges the observation-cost budget (see docs/telemetry.md).
        self.sampling = sampling if sampling is not None else resolve_sampling(None)
        self._sample_every = sample_every
        self._next_sample = 0.0
        self._cluster: Cluster | None = None
        self._lb: LoadBalancerTier | None = None
        self._generator: ClientLoadGenerator | None = None
        #: Per-request ingress/internal accounting; off outside app runs so
        #: the single-service instrument set is untouched byte-for-byte.
        self._graph_enabled = False
        # Delta baselines for cumulative pull sources.
        self._prev_routed = 0
        self._prev_rejected = 0
        self._prev_offered: dict[str, int] = {}
        self._prev_containers: dict[str, set[str]] = {}

        # --- instrument catalogue ------------------------------------
        self.sim_time = registry.gauge(
            "sim_time_seconds", "Simulated time of the latest sample.", unit="seconds"
        )
        self.sim_steps = registry.counter("sim_steps", "Engine steps executed.")
        self.sim_events_fired = registry.counter(
            "sim_events_fired", "Scheduled events fired by the engine's event queue."
        )
        # Minted at build so both series export from the first capture on.
        self._steps = self.sim_steps.labels()
        self._events_fired = self.sim_events_fired.labels()
        self.node_cpu = registry.gauge(
            "node_cpu_utilization_ratio",
            "Measured CPU usage over node capacity (0-1).",
            labels=("node",),
        )
        self.node_memory = registry.gauge(
            "node_memory_utilization_ratio",
            "Measured memory usage over node capacity (0-1).",
            labels=("node",),
        )
        self.node_network = registry.gauge(
            "node_network_utilization_ratio",
            "Measured NIC usage over node capacity (0-1).",
            labels=("node",),
        )
        self.node_containers = registry.gauge(
            "node_containers", "Active containers placed on the node.", labels=("node",)
        )
        self.container_starts = registry.counter(
            "container_starts", "Containers that appeared on the node.", labels=("node",)
        )
        self.container_stops = registry.counter(
            "container_stops", "Containers that left the node.", labels=("node",)
        )
        self.service_replicas = registry.gauge(
            "service_replicas", "Active replica count per service.", labels=("service",)
        )
        self.requests_offered = registry.counter(
            "requests_offered", "Requests generated by the client workload.", labels=("service",)
        )
        self.requests_completed = registry.counter(
            "requests_completed", "Requests finished successfully.", labels=("service",)
        )
        self.requests_failed = registry.counter(
            "requests_failed",
            "Requests that failed, by failure class.",
            labels=("service", "reason"),
        )
        self.response_seconds = registry.histogram(
            "request_response_seconds",
            "End-to-end response time of successful requests.",
            unit="seconds",
            labels=("service",),
        )
        # Application-graph instruments.  Declared eagerly like the rest of
        # the catalogue — families with zero children export nothing, so
        # single-service runs stay byte-identical; children are only minted
        # once enable_graph() flips per-request graph accounting on.
        self.app_response_seconds = registry.histogram(
            "app_request_response_seconds",
            "End-to-end response time of ingress requests across the application graph.",
            unit="seconds",
            labels=("service",),
        )
        self.requests_ingress = registry.counter(
            "requests_ingress",
            "Finished requests that entered at an ingress tier (user traffic).",
            labels=("service",),
        )
        self.requests_internal = registry.counter(
            "requests_internal",
            "Finished internal tier-to-tier calls spawned by the graph router.",
            labels=("service",),
        )
        self.graph_edge_calls = registry.counter(
            "graph_edge_calls",
            "Internal calls dispatched per application-graph edge.",
            labels=("edge",),
        )
        self.lb_routed = registry.counter(
            "lb_requests_routed", "Requests the LB tier assigned to a replica."
        )
        self.lb_rejected = registry.counter(
            "lb_requests_rejected", "Requests the LB tier gave up on (connection failures)."
        )
        self.lb_backlog = registry.gauge(
            "lb_backlog_requests", "Requests waiting in the LB retry backlog."
        )
        self.monitor_ticks = registry.counter("monitor_ticks", "Monitor query periods executed.")
        self.monitor_actions_emitted = registry.counter(
            "monitor_actions_emitted", "Scaling actions the policy emitted."
        )
        self.monitor_actions_applied = registry.counter(
            "monitor_actions_applied", "Scaling actions applied successfully."
        )
        self.monitor_actions_failed = registry.counter(
            "monitor_actions_failed", "Scaling actions that could not be applied."
        )
        self.scaling_actions = registry.counter(
            "scaling_actions", "Applied scaling actions by kind.", labels=("kind",)
        )
        self.oom_kills = registry.counter(
            "oom_kills", "Containers reaped after exceeding their memory limit."
        )
        self.slo_burn = registry.gauge(
            "slo_burn_rate",
            "Error-budget burn rate over the window's trailing horizon.",
            labels=("service", "window"),
        )
        self.slo_budget_remaining = registry.gauge(
            "slo_error_budget_remaining_ratio",
            "Whole-run error budget left (1 = untouched, <0 = blown).",
            labels=("service",),
        )
        self.slo_alerts = registry.counter(
            "slo_alerts", "Burn-rate alerts fired.", labels=("service", "window")
        )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(
        self,
        *,
        cluster: Cluster,
        lb: LoadBalancerTier,
        generator: ClientLoadGenerator,
    ) -> None:
        """Attach the pull sources (called once by ``Simulation.build``)."""
        self._cluster = cluster
        self._lb = lb
        self._generator = generator
        self.sampling.bind(
            cluster=cluster, registry=self.registry, sample_every=self._sample_every
        )

    def enable_graph(self) -> None:
        """Turn on ingress/internal accounting (called for app runs only)."""
        self._graph_enabled = True

    # ------------------------------------------------------------------
    # Push path
    # ------------------------------------------------------------------
    def observe_request(self, request: Request) -> None:
        """Record one finished request (called per drained request)."""
        service = request.service
        response = request.response_time
        if request.state is RequestState.SUCCEEDED:
            self.requests_completed.inc(service=service)
            if response is not None:
                self.response_seconds.observe(response, service=service)
        else:
            reason = request.failure_reason
            self.requests_failed.inc(
                service=service,
                reason=reason.value if reason is not None else "unknown",
            )
        if self._graph_enabled:
            if request.ingress:
                self.requests_ingress.inc(service=service)
            else:
                self.requests_internal.inc(service=service)
        # Internal graph calls never count against the user-facing SLO —
        # only ingress traffic burns error budget (for single-service runs
        # every request is ingress, so this is the old behaviour).
        if self.slo is not None and request.ingress:
            good = self.slo.is_good(
                succeeded=request.state is RequestState.SUCCEEDED,
                response_time=response if response is not None else float("inf"),
            )
            self.slo.record(service, good=1 if good else 0, bad=0 if good else 1)

    def observe_rejection(self, request: Request) -> None:
        """Record one LB admission failure, then account it as finished."""
        self.observe_request(request)

    def observe_graph_call(self, edge: str) -> None:
        """Record one internal call dispatched over a graph edge."""
        self.graph_edge_calls.inc(edge=edge)

    def observe_app_request(self, request: Request) -> None:
        """Record the end-to-end outcome of one ingress request's tree."""
        response = request.response_time
        if request.state is RequestState.SUCCEEDED and response is not None:
            self.app_response_seconds.observe(response, service=request.service)

    # ------------------------------------------------------------------
    # Engine step observer
    # ------------------------------------------------------------------
    def begin_step(self, *, now: float, step: int) -> None:
        """Nothing to do before the actors run."""

    def after_actor(self, *, name: str, now: float) -> None:
        """Nothing to do between actors."""

    def end_step(self, *, now: float, next_due: float | None, fired: int) -> None:
        """Count the step and the events it fired."""
        self._steps.inc()
        if fired:
            self._events_fired.inc(fired)

    # ------------------------------------------------------------------
    # Pull path (engine actor)
    # ------------------------------------------------------------------
    def on_step(self, clock: SimClock) -> None:
        """Sample cumulative sources on the interval, then capture rings."""
        if clock.now + 1e-9 < self._next_sample:
            return
        self._next_sample += self._sample_every
        self.sample(clock.now)

    def sample(self, now: float) -> None:
        """One full sampling pass at simulated time ``now``."""
        self.sampling.begin_sample(
            now,
            oom_kills=_counter_value(self.oom_kills),
            actions_applied=_counter_value(self.monitor_actions_applied),
        )
        self.sim_time.set(now)
        if self._cluster is not None:
            self._sample_cluster(now)
        if self._lb is not None:
            routed, rejected = self._lb.total_routed, self._lb.total_rejected
            self.lb_routed.inc(routed - self._prev_routed)
            self.lb_rejected.inc(rejected - self._prev_rejected)
            self._prev_routed, self._prev_rejected = routed, rejected
            self.lb_backlog.set(self._lb.backlog())
        if self._generator is not None:
            for service, total in sorted(self._generator.generated_by_service.items()):
                delta = total - self._prev_offered.get(service, 0)
                if delta:
                    self.requests_offered.inc(delta, service=service)
                self._prev_offered[service] = total
        if self.slo is not None:
            for alert in self.slo.capture(now):
                if alert.state == "firing":
                    self.slo_alerts.inc(service=alert.service, window=alert.window)
            for service in self.slo.services():
                for window in self.slo.windows:
                    self.slo_burn.set(
                        self.slo.burn_rate(service, window.horizon, now),
                        service=service,
                        window=window.name,
                    )
                self.slo_budget_remaining.set(
                    self.slo.budget_remaining(service), service=service
                )
        self.sampling.finish_sample(now)
        self.registry.capture(now)

    def _sample_cluster(self, now: float) -> None:
        cluster = self._cluster
        assert cluster is not None
        sampling = self.sampling
        for name, node in cluster.nodes.items():
            if not sampling.node_due(name, now):
                # Skipped: gauges keep their last-known values and capture
                # re-records them (bounded-staleness semantics — see
                # docs/telemetry.md "Scaling the observer").
                sampling.skip_node(name, now)
                continue
            cpu_usage = mem_usage = net_usage = 0.0
            active_ids: set[str] = set()
            for container_id, container in node.containers.items():
                if not container.is_active:
                    continue
                active_ids.add(container_id)
                cpu_usage += container.cpu_usage
                mem_usage += container.mem_usage
                net_usage += container.net_usage
            capacity = node.capacity
            cpu_ratio = cpu_usage / capacity.cpu if capacity.cpu else 0.0
            mem_ratio = mem_usage / capacity.memory if capacity.memory else 0.0
            net_ratio = net_usage / capacity.network if capacity.network else 0.0
            self.node_cpu.set(cpu_ratio, node=name)
            self.node_memory.set(mem_ratio, node=name)
            self.node_network.set(net_ratio, node=name)
            self.node_containers.set(len(active_ids), node=name)
            previous = self._prev_containers.get(name, set())
            started = len(active_ids - previous)
            stopped = len(previous - active_ids)
            if started:
                self.container_starts.inc(started, node=name)
            if stopped:
                self.container_stops.inc(stopped, node=name)
            self._prev_containers[name] = active_ids
            sampling.observe_node(
                name,
                now,
                cpu=cpu_ratio,
                memory=mem_ratio,
                network=net_ratio,
                containers=len(active_ids),
                churn=started + stopped,
            )
        for service in cluster.sorted_services():
            self.service_replicas.set(service.replica_count, service=service.name)

    # ------------------------------------------------------------------
    # Export helpers
    # ------------------------------------------------------------------
    def alerts(self) -> tuple[SloAlert, ...]:
        """Every SLO alert transition recorded so far (empty without SLO)."""
        if self.slo is None:
            return ()
        return self.slo.alerts()
