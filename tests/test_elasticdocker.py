"""Tests for live migration and the ElasticDocker-style comparator."""

import pytest

from repro import Simulation, SimulationConfig
from repro.cluster import MicroserviceSpec
from repro.cluster.resources import ResourceVector
from repro.config import ClusterConfig
from repro.core.actions import MigrateReplica, VerticalScale
from repro.core.elasticdocker import ElasticDockerPolicy
from repro.errors import CapacityError, PolicyError
from repro.workloads import CPU_BOUND, ConstantLoad, ServiceLoad

from tests.conftest import make_node_view, make_replica, make_service, make_view


class TestMigrationMechanics:
    def build(self, rate=4.0):
        config = SimulationConfig(cluster=ClusterConfig(worker_nodes=3), seed=0)
        specs = [MicroserviceSpec(name="svc")]
        loads = [ServiceLoad("svc", CPU_BOUND, ConstantLoad(rate))]
        return Simulation.build(
            config=config, specs=specs, loads=loads, policy=ElasticDockerPolicy()
        )

    def test_migrate_moves_container_with_requests(self):
        sim = self.build()
        container = sim.cluster.service("svc").active_replicas()[0]
        source = sim.client.node_name_of(container.container_id)
        from repro.workloads.requests import Request

        request = Request(service="svc", arrival_time=0.0, cpu_work=5.0, timeout=60.0)
        container.accept(request, 0.0)
        target = next(n for n in sim.cluster.sorted_nodes() if n.name != source)
        sim.client.migrate_replica(container.container_id, target.name, 1.0)
        assert sim.client.node_name_of(container.container_id) == target.name
        assert request in container.inflight  # survived the move
        assert not container.is_serving  # frozen for the checkpoint window

    def test_migration_freeze_thaws(self):
        sim = self.build()
        container = sim.cluster.service("svc").active_replicas()[0]
        source = sim.client.node_name_of(container.container_id)
        target = next(n for n in sim.cluster.sorted_nodes() if n.name != source)
        sim.client.migrate_replica(container.container_id, target.name, 1.0)
        sim.engine.run_for(3.0)  # freeze is 1 s
        assert container.is_serving

    def test_migrate_to_full_node_rejected(self):
        sim = self.build()
        container = sim.cluster.service("svc").active_replicas()[0]
        source = sim.client.node_name_of(container.container_id)
        target = next(n for n in sim.cluster.sorted_nodes() if n.name != source)
        filler = sim.client.run_replica(
            "svc", target.name, cpu_request=3.9, mem_limit=7800.0, net_rate=900.0, now=0.0
        )
        with pytest.raises(CapacityError):
            sim.client.migrate_replica(container.container_id, target.name, 1.0)

    def test_migrate_to_same_node_is_noop(self):
        sim = self.build()
        container = sim.cluster.service("svc").active_replicas()[0]
        source = sim.client.node_name_of(container.container_id)
        sim.client.migrate_replica(container.container_id, source, 1.0)
        assert container.is_serving  # no freeze


class TestPolicyDecisions:
    def test_grows_hot_replica_in_place(self):
        view = make_view(
            services=(
                make_service("svc", (make_replica("a", cpu_request=1.0, cpu_usage=1.0),)),
            )
        )
        actions = ElasticDockerPolicy().decide(view)
        verticals = [a for a in actions if isinstance(a, VerticalScale)]
        assert verticals and verticals[0].cpu_request == pytest.approx(1.5)

    def test_shrinks_idle_replica(self):
        view = make_view(
            services=(
                make_service(
                    "svc",
                    (make_replica("a", cpu_request=2.0, cpu_usage=0.1, mem_usage=100.0),),
                ),
            )
        )
        actions = ElasticDockerPolicy().decide(view)
        verticals = [a for a in actions if isinstance(a, VerticalScale)]
        assert verticals and verticals[0].cpu_request == pytest.approx(2.0 / 1.5)

    def test_migrates_when_host_full(self):
        view = make_view(
            services=(
                make_service("svc", (make_replica("a", node="n0", cpu_request=3.5, cpu_usage=3.5),)),
            ),
            nodes=(
                make_node_view("n0", allocated=ResourceVector(4.0, 1024.0, 50.0), services=("svc",)),
                make_node_view("n1"),
            ),
        )
        actions = ElasticDockerPolicy().decide(view)
        migrations = [a for a in actions if isinstance(a, MigrateReplica)]
        assert migrations and migrations[0].target_node == "n1"
        # And it grows after landing.
        verticals = [a for a in actions if isinstance(a, VerticalScale)]
        assert verticals and verticals[0].cpu_request > 3.5

    def test_caps_growth_when_nowhere_to_go(self):
        view = make_view(
            services=(
                make_service("svc", (make_replica("a", node="n0", cpu_request=3.0, cpu_usage=3.5),)),
            ),
            nodes=(
                make_node_view("n0", allocated=ResourceVector(3.5, 1024.0, 50.0), services=("svc",)),
            ),
        )
        actions = ElasticDockerPolicy().decide(view)
        verticals = [a for a in actions if isinstance(a, VerticalScale)]
        assert verticals and verticals[0].cpu_request == pytest.approx(3.5)
        assert not any(isinstance(a, MigrateReplica) for a in actions)

    def test_steady_replica_untouched(self):
        view = make_view(
            services=(
                make_service(
                    "svc",
                    (make_replica("a", cpu_request=1.0, cpu_usage=0.5, mem_usage=300.0),),
                ),
            )
        )
        assert ElasticDockerPolicy().decide(view) == []

    def test_never_changes_replica_counts(self):
        view = make_view(
            services=(
                make_service("svc", (make_replica("a", cpu_request=0.5, cpu_usage=4.0),)),
            )
        )
        from repro.core.actions import AddReplica, RemoveReplica

        actions = ElasticDockerPolicy().decide(view)
        assert not any(isinstance(a, (AddReplica, RemoveReplica)) for a in actions)

    def test_parameter_validation(self):
        with pytest.raises(PolicyError):
            ElasticDockerPolicy(high_watermark=0.2, low_watermark=0.3)
        with pytest.raises(PolicyError):
            ElasticDockerPolicy(step=1.0)
        with pytest.raises(PolicyError):
            ElasticDockerPolicy(min_cpu=0.0)


class TestEndToEnd:
    def test_handles_single_machine_load(self):
        """Demand fitting one machine: vertical scaling alone suffices."""
        config = SimulationConfig(cluster=ClusterConfig(worker_nodes=3), seed=2)
        specs = [MicroserviceSpec(name="svc")]
        loads = [ServiceLoad("svc", CPU_BOUND, ConstantLoad(8.0))]
        sim = Simulation.build(config=config, specs=specs, loads=loads, policy=ElasticDockerPolicy())
        summary = sim.run(90.0)
        assert summary.availability > 0.99
        assert summary.vertical_scale_ops > 0
        assert summary.horizontal_scale_ups == 0

    def test_single_host_ceiling(self):
        """Demand beyond one machine: vertical-only cannot keep up — the
        paper's core argument for hybridization."""
        from repro.core.hyscale import HyScaleCpu

        config = SimulationConfig(cluster=ClusterConfig(worker_nodes=3), seed=2)
        specs = [MicroserviceSpec(name="svc", max_replicas=6)]
        loads = [ServiceLoad("svc", CPU_BOUND, ConstantLoad(24.0))]  # ~6 cores
        elastic = Simulation.build(
            config=config, specs=specs, loads=loads, policy=ElasticDockerPolicy()
        ).run(90.0)
        hybrid = Simulation.build(
            config=config, specs=specs, loads=loads, policy=HyScaleCpu()
        ).run(90.0)
        # Vertical-only hits the single-machine wall: mass timeouts.  The
        # hybrid replicates past it and keeps serving.
        assert hybrid.availability > 0.95
        assert elastic.availability < 0.7
        assert hybrid.completed > 2 * max(elastic.completed, 1)
