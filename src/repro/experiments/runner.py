"""Wires one complete experiment: cluster + platform + workload + policy.

Phase order within each simulation step (see DESIGN.md §4):

1. ``generator``  — draw this step's arrivals, submit to the LB,
2. ``lb``         — retry the routing backlog, expire un-routable requests,
3. ``cluster``    — boot timers, CPU fair-share, NIC, settlement, OOM,
4. ``nm/*``       — sample ``docker stats`` into the NMs' windows,
5. ``monitor``    — reap corpses; on the query period: view -> policy -> act,
6. ``metrics``    — drain finished requests and sample the timeline,
7. ``telemetry``  — (only when observed with a registry) sample the
   standard instrument catalogue and capture series rings.

Registration order in the engine *is* this order, so the data flow is
auditable and deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.cluster.microservice import MicroserviceSpec
from repro.cluster.placement import PlacementStrategy, SpreadPlacement
from repro.config import SimulationConfig
from repro.core.policy import AutoscalingPolicy
from repro.core.registry import resolve_policy
from repro.dockersim.api import DockerClient
from repro.errors import ExperimentError
from repro.instrument import Observe, StepObserver
from repro.metrics.collector import MetricsCollector, TimelinePoint
from repro.metrics.summary import RunSummary
from repro.obs.profiler import PhaseProfiler
from repro.platform.faults import FaultInjector, NodeManagerFleet
from repro.platform.graph import GraphRouter
from repro.platform.lb_tier import LoadBalancerTier
from repro.platform.load_balancer import RoutingPolicy
from repro.platform.monitor import Monitor
from repro.platform.registry import ServiceRegistry
from repro.platform.routing import resolve_routing
from repro.sim.clock import SimClock
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.telemetry.hub import RunTelemetry
from repro.telemetry.sampling import resolve_sampling
from repro.workloads.generator import ClientLoadGenerator, ServiceLoad
from repro.workloads.graph import ApplicationSpec
from repro.workloads.requests import Request


class _MetricsActor:
    """Final phase: collect finished requests and sample the timeline."""

    def __init__(
        self,
        cluster: Cluster,
        collector: MetricsCollector,
        sample_every: float,
        profiler: PhaseProfiler | None = None,
        telemetry: RunTelemetry | None = None,
    ):
        self._cluster = cluster
        self._collector = collector
        self._sample_every = sample_every
        self._next_sample = 0.0
        self._profiler = profiler
        self._telemetry = telemetry

    def on_step(self, clock: SimClock) -> None:
        finished = self._cluster.drain_finished()
        self._collector.record_requests(finished)
        if self._telemetry is not None:
            for request in finished:
                self._telemetry.observe_request(request)
        if self._profiler is not None:
            self._profiler.increment("metrics.steps")
        if clock.now + 1e-9 >= self._next_sample:
            self._next_sample += self._sample_every
            self._sample(clock.now)

    def _sample(self, now: float) -> None:
        """One timeline point from a *single* pass over every container.

        The previous implementation rebuilt each node's sorted
        ``active_containers()`` list four times per sample (usage,
        allocation, inflight, active-node count); one unsorted pass
        accumulates all eight aggregates at once.  Per-node dict order is
        insertion order, which the deterministic boot sequence fixes, so
        the sums are reproducible run-to-run.
        """
        if self._profiler is not None:
            self._profiler.increment("metrics.samples")
        cpu_usage = mem_usage = net_usage = 0.0
        cpu_allocated = mem_allocated = 0.0
        inflight = 0
        active_nodes = 0
        for node in self._cluster.nodes.values():
            node_active = False
            for container in node.containers.values():
                if not container.is_active:
                    continue
                node_active = True
                cpu_usage += container.cpu_usage
                mem_usage += container.mem_usage
                net_usage += container.net_usage
                cpu_allocated += container.cpu_request
                mem_allocated += container.mem_limit
                inflight += len(container.inflight)
            if node_active:
                active_nodes += 1
        replicas = sum(s.replica_count for s in self._cluster.services.values())
        window_avg, window_completed, window_failed = self._collector.drain_window_stats()
        self._collector.sample_timeline(
            TimelinePoint(
                time=now,
                total_replicas=replicas,
                cpu_usage=cpu_usage,
                cpu_allocated=cpu_allocated,
                mem_usage=mem_usage,
                mem_allocated=mem_allocated,
                net_usage=net_usage,
                inflight=inflight,
                active_nodes=active_nodes,
                total_nodes=len(self._cluster.nodes),
                window_avg_response=window_avg,
                window_completed=window_completed,
                window_failed=window_failed,
            )
        )


@dataclass
class Simulation:
    """One fully wired experiment, ready to run."""

    engine: Engine
    cluster: Cluster
    client: DockerClient
    #: The distributed proxy tier (``ClusterConfig.load_balancers`` proxies).
    load_balancer: LoadBalancerTier
    generator: ClientLoadGenerator
    monitor: Monitor
    collector: MetricsCollector
    policy: AutoscalingPolicy
    workload_label: str
    #: Schedule machine crashes/additions here before (or while) running —
    #: the paper's "dynamic addition and removal of machines" future work.
    faults: FaultInjector
    #: Everything this run is observed with (all unset by default).
    observe: Observe = Observe()
    #: The run's instrument catalogue and sampling actor, or ``None`` when
    #: the run is not observed with a telemetry registry.
    telemetry: RunTelemetry | None = None
    #: The application graph this run models, or ``None`` for a plain
    #: single-service fleet.
    app: ApplicationSpec | None = None
    #: The cross-tier router actor (app runs only).
    router: GraphRouter | None = None

    @classmethod
    def build(
        cls,
        *,
        config: SimulationConfig,
        specs: list[MicroserviceSpec] | None = None,
        loads: list[ServiceLoad],
        policy: AutoscalingPolicy | str,
        workload_label: str = "custom",
        routing: "RoutingPolicy | str" = RoutingPolicy.WEIGHTED_CPU,
        app: ApplicationSpec | None = None,
        placement: PlacementStrategy | None = None,
        timeline_every: float = 5.0,
        observe: Observe = Observe(),
    ) -> "Simulation":
        """Assemble cluster, platform, and workload for one experiment.

        ``policy`` may be a policy object or a registered algorithm name
        (see :func:`repro.core.resolve_policy`); names are built with this
        config's rescale intervals.

        ``observe`` is everything the run is observed with (see
        :class:`~repro.instrument.Observe`); it never changes a result.
        Its ``telemetry`` registry streams the standard instrument
        catalogue, sampled every ``timeline_every`` simulated seconds as an
        extra final engine phase named ``telemetry``; without one the run
        builds no hub and ``Simulation.telemetry`` is ``None``.  Its
        ``profiler``, ``sanitizer`` and telemetry step counters observe
        every engine step together; with none of them the engine runs its
        bare loop.

        ``app`` switches the run to an application graph: the fleet is
        derived from the graph's tiers (``specs`` must not be passed),
        ``loads`` must target ingress tiers only, and the engine gains an
        ``app-router`` phase (right after ``cluster``) that dispatches and
        joins cross-tier calls.  ``routing`` accepts a
        :class:`RoutingPolicy` or a registered routing name; it is both
        the front LB tier's policy and the default for graph edges that
        do not pin their own.
        """
        config.validate()
        policy = resolve_policy(policy, config)
        routing = resolve_routing(routing)
        if app is not None:
            if specs:
                raise ExperimentError("pass either app= or specs=, not both")
            specs = list(app.service_specs())
        if not specs:
            raise ExperimentError("at least one microservice spec is required")
        spec_names = {s.name for s in specs}
        load_names = {l.service for l in loads}
        if not load_names <= spec_names:
            raise ExperimentError(f"loads reference unknown services: {load_names - spec_names}")
        if app is not None:
            ingress = set(app.ingress)
            if not load_names <= ingress:
                raise ExperimentError(
                    f"app loads must target ingress tiers {sorted(ingress)}; "
                    f"got {sorted(load_names - ingress)}"
                )

        rng = RngStreams(config.seed)
        cluster = Cluster.from_config(config.cluster, config.overheads)
        client = DockerClient(cluster)
        collector = MetricsCollector()
        hub: RunTelemetry | None = None
        if observe.telemetry is not None:
            live = hub = RunTelemetry(
                observe.telemetry,
                slo=observe.slo,
                sample_every=timeline_every,
                sampling=resolve_sampling(observe.sampling),
            )

            # LB rejections bypass the cluster's drain path, so the sink is
            # the only place they can be observed; wrap it.
            def failure_sink(request: Request) -> None:
                collector.record_request(request)
                live.observe_rejection(request)

        else:
            failure_sink = collector.record_request
        registry = ServiceRegistry(cluster)
        lb = LoadBalancerTier(
            registry,
            config.overheads,
            failure_sink=failure_sink,
            policy=routing,
            n_balancers=config.cluster.load_balancers,
        )
        router: GraphRouter | None = None
        if app is not None:
            collector.enable_graph()
            if hub is not None:
                hub.enable_graph()
            # One id space for ingress arrivals and internal graph calls,
            # shared by the generator and the router (ids shard the LB
            # tier, so they must be a pure function of the run).
            request_seq = itertools.count(1)
            router = GraphRouter(
                app,
                registry,
                config.overheads,
                rng,
                failure_sink,
                lb.submit,
                request_seq,
                routing=routing,
                telemetry=hub,
            )
            generator = ClientLoadGenerator(
                loads, rng, sink=router.ingress, request_seq=request_seq
            )
        else:
            generator = ClientLoadGenerator(loads, rng, sink=lb.submit)

        fleet = NodeManagerFleet(client, horizon=config.monitor_period)
        if observe.sanitizer is not None:
            observe.sanitizer.bind(cluster=cluster, node_managers=fleet.managers)
        monitor = Monitor(
            cluster,
            client,
            fleet.managers,
            policy,
            config,
            collector,
            placement=placement or SpreadPlacement(),
            tracer=observe.tracer,
            telemetry=hub,
            sanitizer=observe.sanitizer,
        )

        # Initial deployment: min_replicas per service, spread over the
        # cluster, already warm (the paper's experiments begin with every
        # microservice running).  Deploying adds containers, never nodes,
        # so one node list serves every placement.
        place = placement or SpreadPlacement()
        nodes = cluster.sorted_nodes()
        for spec in sorted(specs, key=lambda s: s.name):
            cluster.register_service(spec)
            for _ in range(spec.min_replicas):
                node = place.choose(
                    nodes,
                    spec.initial_allocation(),
                    exclude_service=spec.name,
                ) or place.choose(nodes, spec.initial_allocation())
                if node is None:
                    raise ExperimentError(
                        f"cluster too small for initial deployment of {spec.name}"
                    )
                client.run_replica(
                    spec.name,
                    node.name,
                    cpu_request=spec.cpu_request,
                    mem_limit=spec.mem_limit,
                    net_rate=spec.net_rate,
                    now=0.0,
                    boot_delay=0.0,
                )

        faults = FaultInjector(cluster, client, fleet)

        # The sanitizer opens each step first; the profiler marks last, so
        # each actor's time includes the checks that follow it.
        observers: tuple[StepObserver, ...] = tuple(
            observer
            for observer in (observe.sanitizer, hub, observe.profiler)
            if observer is not None
        )
        engine = Engine(dt=config.dt, observers=observers)
        engine.add_actor("faults", faults)
        engine.add_actor("generator", generator)
        engine.add_actor("lb", lb)
        engine.add_actor("cluster", cluster)
        if router is not None:
            # Dispatch/join cross-tier calls on the just-settled cluster,
            # before node managers sample and the monitor acts.
            engine.add_actor("app-router", router)
        engine.add_actor("node-managers", fleet)
        engine.add_actor("monitor", monitor)
        engine.add_actor(
            "metrics",
            _MetricsActor(
                cluster,
                collector,
                timeline_every,
                profiler=observe.profiler,
                telemetry=hub,
            ),
        )
        if hub is not None:
            # Last phase: sample after the step has fully settled.  Not
            # registered at all without a registry, so unobserved runs keep
            # the documented seven-phase order.
            hub.bind(cluster=cluster, lb=lb, generator=generator)
            engine.add_actor("telemetry", hub)

        return cls(
            engine=engine,
            cluster=cluster,
            client=client,
            load_balancer=lb,
            generator=generator,
            monitor=monitor,
            collector=collector,
            policy=policy,
            workload_label=workload_label,
            faults=faults,
            observe=observe,
            telemetry=hub,
            app=app,
            router=router,
        )

    def run(self, duration: float) -> RunSummary:
        """Run for ``duration`` simulated seconds and summarize."""
        self.engine.run_for(duration)
        return self.summary()

    def summary(self) -> RunSummary:
        """Summary of everything recorded so far."""
        return RunSummary.from_collector(
            self.collector,
            algorithm=self.policy.name,
            workload=self.workload_label,
            duration=self.engine.clock.now,
            app=self.app.name if self.app is not None else None,
        )

