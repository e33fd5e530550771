"""Tests for the MONITOR: view building, ticks, action execution."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.container import Container
from repro.cluster.microservice import MicroserviceSpec
from repro.config import ClusterConfig, SimulationConfig
from repro.core.actions import AddReplica, RemoveReplica, ScalingAction, VerticalScale
from repro.core.policy import AutoscalingPolicy
from repro.core.view import ClusterView, NodeView, ReplicaView, ServiceView
from repro.dockersim.api import DockerClient
from repro.dockersim.stats import StatsWindow
from repro.experiments.runner import Simulation
from repro.metrics.collector import MetricsCollector
from repro.platform.monitor import Monitor
from repro.platform.node_manager import NodeManager
from repro.sim.clock import SimClock
from repro.workloads import CPU_BOUND, MEMORY_BOUND, ServiceLoad
from repro.workloads.patterns import HighBurstLoad


class ScriptedPolicy(AutoscalingPolicy):
    """Returns a queued list of action batches, one batch per tick."""

    name = "scripted"

    def __init__(self, batches=None):
        self.batches = list(batches or [])
        self.views: list[ClusterView] = []

    def decide(self, view: ClusterView) -> list[ScalingAction]:
        self.views.append(view)
        return self.batches.pop(0) if self.batches else []


def build_platform(overheads, policy=None, worker_nodes=2):
    config = SimulationConfig(
        cluster=ClusterConfig(worker_nodes=worker_nodes),
        seed=0,
        monitor_period=5.0,
    )
    cluster = Cluster.from_config(config.cluster, overheads)
    client = DockerClient(cluster)
    cluster.register_service(MicroserviceSpec(name="svc"))
    managers = {name: NodeManager(d) for name, d in client.daemons.items()}
    collector = MetricsCollector()
    monitor = Monitor(cluster, client, managers, policy or ScriptedPolicy(), config, collector)
    return config, cluster, client, managers, collector, monitor


def run_steps(cluster, managers, monitor, clock, steps):
    for _ in range(steps):
        clock.advance()
        cluster.on_step(clock)
        for name in sorted(managers):
            managers[name].on_step(clock)
        monitor.on_step(clock)


class TestTickCadence:
    def test_ticks_on_period(self, overheads):
        _, cluster, _, managers, _, monitor = build_platform(overheads)
        clock = SimClock(dt=1.0)
        run_steps(cluster, managers, monitor, clock, 12)
        assert monitor.log.ticks == 2  # at t=5 and t=10

    def test_policy_sees_snapshot(self, overheads):
        policy = ScriptedPolicy()
        _, cluster, client, managers, _, monitor = build_platform(overheads, policy)
        client.run_replica("svc", "node-00", cpu_request=0.5, mem_limit=512.0, net_rate=50.0, now=0.0)
        clock = SimClock(dt=1.0)
        run_steps(cluster, managers, monitor, clock, 5)
        view = policy.views[0]
        assert view.service("svc").replica_count == 1
        assert view.node("node-00").allocated.cpu == pytest.approx(0.5)


class TestViewBuilding:
    def test_booting_replicas_flagged(self, overheads):
        _, cluster, client, managers, _, monitor = build_platform(overheads)
        cluster.overheads = overheads
        client.run_replica(
            "svc", "node-00", cpu_request=0.5, mem_limit=512.0, net_rate=50.0, now=0.0, boot_delay=100.0
        )
        view = monitor.build_view(1.0)
        replica = view.service("svc").replicas[0]
        assert replica.booting
        assert replica.cpu_request == 0.5

    def test_usage_comes_from_window_mean(self, overheads):
        _, cluster, client, managers, _, monitor = build_platform(overheads)
        container = client.run_replica(
            "svc", "node-00", cpu_request=0.5, mem_limit=512.0, net_rate=50.0, now=0.0
        )
        from repro.workloads.requests import Request

        container.accept(Request(service="svc", arrival_time=0.0, cpu_work=1000.0), 0.0)
        clock = SimClock(dt=1.0)
        run_steps(cluster, managers, monitor, clock, 5)
        view = monitor.build_view(5.0)
        assert view.service("svc").replicas[0].cpu_usage > 0.0


    def test_node_allocation_summed_in_id_order(self, overheads):
        _, cluster, client, _, _, monitor = build_platform(overheads)
        daemon = client.daemons["node-00"]
        # Hosted against id order; the two orders round differently.
        for cid, cpu in (("svc.r2.c3", 0.3), ("svc.r1.c2", 0.2), ("svc.r0.c1", 0.1)):
            daemon.adopt(Container("svc", 0, cpu, 64.0, 1.0, overheads=overheads, container_id=cid))
        allocated = monitor.build_view(0.0).node("node-00").allocated
        assert allocated == cluster.node("node-00").allocated()
        assert allocated.cpu == (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1


class TestActionExecution:
    def test_add_replica_with_pinned_node(self, overheads):
        policy = ScriptedPolicy(
            [[AddReplica("svc", cpu_request=0.5, mem_limit=512.0, net_rate=50.0, node="node-01")]]
        )
        _, cluster, _, managers, collector, monitor = build_platform(overheads, policy)
        clock = SimClock(dt=1.0)
        run_steps(cluster, managers, monitor, clock, 5)
        assert cluster.node("node-01").hosts_service("svc")
        assert collector.horizontal_scale_ups == 1

    def test_add_replica_placement_when_unpinned(self, overheads):
        policy = ScriptedPolicy(
            [[AddReplica("svc", cpu_request=0.5, mem_limit=512.0, net_rate=50.0)]]
        )
        _, cluster, _, managers, _, monitor = build_platform(overheads, policy)
        clock = SimClock(dt=1.0)
        run_steps(cluster, managers, monitor, clock, 5)
        assert cluster.service("svc").replica_count == 1

    def test_pinned_node_full_falls_back_to_placement(self, overheads):
        policy = ScriptedPolicy(
            [[AddReplica("svc", cpu_request=3.0, mem_limit=512.0, net_rate=50.0, node="node-00")]]
        )
        _, cluster, client, managers, _, monitor = build_platform(overheads, policy)
        # Fill node-00 so the pin cannot be honoured.
        client.run_replica("svc", "node-00", cpu_request=3.0, mem_limit=512.0, net_rate=50.0, now=0.0)
        clock = SimClock(dt=1.0)
        run_steps(cluster, managers, monitor, clock, 5)
        assert cluster.node("node-01").hosts_service("svc")

    def test_remove_replica(self, overheads):
        _, cluster, client, managers, collector, monitor = build_platform(overheads)
        container = client.run_replica(
            "svc", "node-00", cpu_request=0.5, mem_limit=512.0, net_rate=50.0, now=0.0
        )
        monitor.policy.batches = [[RemoveReplica(container.container_id)]]
        clock = SimClock(dt=1.0)
        run_steps(cluster, managers, monitor, clock, 5)
        assert cluster.service("svc").replica_count == 0
        assert collector.horizontal_scale_downs == 1

    def test_vertical_clamped_to_headroom(self, overheads):
        _, cluster, client, managers, collector, monitor = build_platform(overheads)
        container = client.run_replica(
            "svc", "node-00", cpu_request=0.5, mem_limit=512.0, net_rate=50.0, now=0.0
        )
        monitor.policy.batches = [[VerticalScale(container.container_id, cpu_request=99.0)]]
        clock = SimClock(dt=1.0)
        run_steps(cluster, managers, monitor, clock, 5)
        assert container.cpu_request == pytest.approx(4.0)  # node capacity
        assert collector.vertical_scale_ops == 1

    def test_failed_action_counted_not_raised(self, overheads):
        policy = ScriptedPolicy([[RemoveReplica("ghost-container")]])
        _, cluster, _, managers, _, monitor = build_platform(overheads, policy)
        clock = SimClock(dt=1.0)
        run_steps(cluster, managers, monitor, clock, 5)
        assert monitor.log.actions_failed == 1
        assert monitor.log.failures

    def test_placement_failure_counted(self, overheads):
        policy = ScriptedPolicy(
            [[AddReplica("svc", cpu_request=100.0, mem_limit=512.0, net_rate=50.0)]]
        )
        _, cluster, _, managers, _, monitor = build_platform(overheads, policy)
        clock = SimClock(dt=1.0)
        run_steps(cluster, managers, monitor, clock, 5)
        assert monitor.log.placement_failures == 1


class TestReaping:
    def test_oom_reaped_every_step(self, overheads):
        _, cluster, client, managers, collector, monitor = build_platform(overheads)
        container = client.run_replica(
            "svc", "node-00", cpu_request=0.5, mem_limit=110.0, net_rate=50.0, now=0.0
        )
        from repro.workloads.requests import Request

        for _ in range(8):
            container.accept(
                Request(service="svc", arrival_time=0.0, cpu_work=1000.0, mem_footprint=200.0), 0.0
            )
        clock = SimClock(dt=1.0)
        run_steps(cluster, managers, monitor, clock, 2)
        assert collector.oom_kills == 1
        assert cluster.service("svc").replica_count == 0


class TestPolicySwap:
    def test_set_policy_takes_effect_next_tick(self, overheads):
        """Section V-C: algorithms are switchable on a live cluster."""
        from repro.core.hyscale import HyScaleCpu

        first = ScriptedPolicy()
        _, cluster, client, managers, collector, monitor = build_platform(overheads, first)
        client.run_replica("svc", "node-00", cpu_request=0.5, mem_limit=512.0, net_rate=50.0, now=0.0)
        clock = SimClock(dt=1.0)
        run_steps(cluster, managers, monitor, clock, 5)
        assert len(first.views) == 1

        replacement = HyScaleCpu()
        monitor.set_policy(replacement)
        run_steps(cluster, managers, monitor, clock, 5)
        assert len(first.views) == 1  # old policy no longer consulted
        assert monitor.policy is replacement
        assert monitor.log.ticks == 2


# ----------------------------------------------------------------------
# The view from per-node rows vs a per-container build
# ----------------------------------------------------------------------
def _per_container_view(sim, windows, now):
    """The view built one container at a time, each replica from its own
    :class:`StatsWindow`, and each node from ``Node.allocated()``."""
    period = sim.monitor.config.monitor_period
    services = []
    for service in sim.cluster.sorted_services():
        replicas = []
        for container in service.active_replicas():
            cid = container.container_id
            node = sim.client.node_name_of(cid)
            if container.is_serving:
                window = windows.get(node, {}).get(cid)
                if window is None:
                    continue
                s = window.mean_over(period)
                fields = (s.cpu_request, s.cpu_usage, s.mem_limit, s.mem_usage)
                fields += (s.net_rate, s.net_usage, s.disk_quota, s.disk_usage)
                replicas.append(ReplicaView(cid, service.name, node, False, *fields))
            else:
                fields = (container.cpu_request, 0.0, container.mem_limit, 0.0)
                fields += (container.net_rate, 0.0, container.disk_quota, 0.0)
                replicas.append(ReplicaView(cid, service.name, node, True, *fields))
        spec = service.spec
        services.append(
            ServiceView(
                name=service.name,
                min_replicas=spec.min_replicas,
                max_replicas=spec.max_replicas,
                target_utilization=spec.target_utilization,
                base_cpu_request=spec.cpu_request,
                base_mem_limit=spec.mem_limit,
                base_net_rate=spec.net_rate,
                replicas=tuple(replicas),
            )
        )
    nodes = tuple(
        NodeView(
            name=node.name,
            capacity=node.capacity,
            allocated=node.allocated(),
            services=tuple(sorted({c.service for c in node.active_containers()})),
        )
        for node in sim.cluster.sorted_nodes()
    )
    return ClusterView(now=now, services=tuple(services), nodes=nodes)


class TestViewMatchesPerContainerBuild:
    def test_churning_fleet(self):
        """Scale-ups and -downs, vertical resizes, OOM kills, a crash, an
        added node and a live migration: every tick's view equals the
        per-container build, digest included."""
        config = SimulationConfig(cluster=ClusterConfig(worker_nodes=4), seed=3)
        specs = [
            MicroserviceSpec(name="web", min_replicas=2, max_replicas=8),
            MicroserviceSpec(name="cache", min_replicas=2, max_replicas=6, mem_limit=256.0, profile="memory"),
        ]
        loads = [
            ServiceLoad("web", CPU_BOUND, HighBurstLoad(base=2.0, peak=14.0, period=40.0, duty=0.4)),
            ServiceLoad("cache", MEMORY_BOUND, HighBurstLoad(base=2.0, peak=10.0, period=30.0, duty=0.5)),
        ]
        sim = Simulation.build(config=config, specs=specs, loads=loads, policy="hybrid")
        sim.faults.schedule_crash(22.0, "node-01")
        sim.faults.schedule_add(31.0, "node-x")

        moved = []

        def migrate() -> None:
            replica = sim.cluster.service("web").active_replicas()[0]
            source = sim.client.node_name_of(replica.container_id)
            target = next(name for name in sorted(sim.cluster.nodes) if name != source)
            sim.client.migrate_replica(replica.container_id, target, sim.engine.clock.now)
            moved.append(replica.container_id)

        sim.engine.call_at(41.0, migrate)

        # Per node, one StatsWindow per active container, fed right after
        # the node managers record; a container absent from a step loses it.
        windows: dict[str, dict[str, StatsWindow]] = {}
        fleet = sim.faults.fleet
        record = fleet.on_step

        def record_both(clock) -> None:
            record(clock)
            for name in list(windows):
                if name not in sim.client.daemons:
                    del windows[name]
            for name, daemon in sim.client.daemons.items():
                held = windows.setdefault(name, {})
                active = {c.container_id for c in daemon.ps()}
                for cid in [cid for cid in held if cid not in active]:
                    del held[cid]
                for cid in sorted(active):
                    held.setdefault(cid, StatsWindow(30.0)).record(daemon.stats(cid, clock.now))

        fleet.on_step = record_both
        build = sim.monitor.build_view
        ticks = []

        def checked_build(now):
            view = build(now)
            expected = _per_container_view(sim, windows, now)
            assert view == expected
            assert view.digest() == expected.digest()
            ticks.append(now)
            return view

        sim.monitor.build_view = checked_build
        sim.run(60.0)
        assert len(ticks) == 12
        collector = sim.collector
        assert collector.horizontal_scale_ups and collector.horizontal_scale_downs
        assert collector.vertical_scale_ops and collector.oom_kills
        assert sim.faults.log.crashes and sim.faults.log.additions and moved
