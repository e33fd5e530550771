"""Tests for dynamic fleet changes and failure injection."""

import pytest

from repro import HyScaleCpu, KubernetesHpa, Simulation, SimulationConfig
from repro.cluster import MicroserviceSpec
from repro.cluster.resources import ResourceVector
from repro.config import ClusterConfig
from repro.errors import ClusterError
from repro.workloads import CPU_BOUND, ConstantLoad, ServiceLoad


def build_sim(policy=None, worker_nodes=4, rate=6.0, seed=0):
    config = SimulationConfig(cluster=ClusterConfig(worker_nodes=worker_nodes), seed=seed)
    specs = [MicroserviceSpec(name="svc", min_replicas=2, max_replicas=8)]
    loads = [ServiceLoad("svc", CPU_BOUND, ConstantLoad(rate))]
    return Simulation.build(
        config=config, specs=specs, loads=loads, policy=policy or HyScaleCpu()
    )


class TestScheduling:
    def test_negative_time_rejected(self):
        sim = build_sim()
        with pytest.raises(ClusterError):
            sim.faults.schedule_crash(-1.0, "node-00")
        with pytest.raises(ClusterError):
            sim.faults.schedule_add(-1.0, "node-99")

    def test_pending_counts_down(self):
        sim = build_sim()
        sim.faults.schedule_crash(5.0, "node-00")
        assert sim.faults.pending == 1
        sim.engine.run_for(10.0)
        assert sim.faults.pending == 0

    def test_crash_unknown_node_raises(self):
        sim = build_sim()
        sim.faults.schedule_crash(1.0, "ghost")
        with pytest.raises(ClusterError):
            sim.engine.run_for(5.0)


class TestCrash:
    def test_crash_removes_node_and_fails_requests(self):
        sim = build_sim(rate=10.0)
        victim = sim.client.node_name_of(
            sim.cluster.service("svc").active_replicas()[0].container_id
        )
        sim.faults.schedule_crash(20.0, victim)
        sim.engine.run_for(30.0)
        assert victim not in sim.cluster.nodes
        assert sim.faults.log.crashes == [(20.0, victim)]
        # The in-flight requests on the dead machine were lost as removals.
        assert sim.collector.total_removal_failures >= sim.faults.log.lost_requests > 0

    def test_policy_restores_min_replicas_after_crash(self):
        sim = build_sim(policy=KubernetesHpa())
        victim = sim.client.node_name_of(
            sim.cluster.service("svc").active_replicas()[0].container_id
        )
        sim.faults.schedule_crash(10.0, victim)
        sim.engine.run_for(60.0)
        assert sim.cluster.service("svc").replica_count >= 2

    def test_service_keeps_serving_through_crash(self):
        sim = build_sim(rate=8.0)
        victim = sim.client.node_name_of(
            sim.cluster.service("svc").active_replicas()[0].container_id
        )
        sim.faults.schedule_crash(30.0, victim)
        summary = sim.run(90.0)
        # Most traffic still succeeds despite losing a machine mid-run.
        assert summary.availability > 0.9
        assert summary.completed > 0

    def test_capacity_invariant_survives_crash(self):
        sim = build_sim(rate=10.0)
        sim.faults.schedule_crash(15.0, "node-03")
        sim.engine.run_for(60.0)
        for node in sim.cluster.nodes.values():
            assert node.allocated().fits_within(node.capacity, tolerance=1e-6)


class TestAddition:
    def test_added_node_becomes_placement_target(self):
        # Tiny cluster under heavy load: the new machine should get used.
        sim = build_sim(worker_nodes=2, rate=16.0)
        sim.faults.schedule_add(20.0, "fresh-node")
        sim.engine.run_for(120.0)
        assert "fresh-node" in sim.cluster.nodes
        assert sim.faults.log.additions == [(20.0, "fresh-node")]
        assert sim.cluster.node("fresh-node").containers, "new machine never used"

    def test_added_node_custom_capacity(self):
        sim = build_sim()
        sim.faults.schedule_add(5.0, "big-node", capacity=ResourceVector(16.0, 32768.0, 10000.0))
        sim.engine.run_for(10.0)
        assert sim.cluster.node("big-node").capacity.cpu == 16.0

    def test_added_node_is_monitored(self):
        sim = build_sim(worker_nodes=2, rate=16.0)
        sim.faults.schedule_add(10.0, "fresh-node")
        sim.engine.run_for(60.0)
        assert "fresh-node" in sim.monitor.node_managers

    def test_managers_step_in_name_order_across_fleet_changes(self):
        sim = build_sim(worker_nodes=3)
        sim.faults.schedule_crash(2.0, "node-01")
        sim.faults.schedule_add(2.0, "node-00b")
        sim.engine.run_for(3.0)
        fleet = sim.faults.fleet
        stepped = []
        for manager in fleet.managers.values():
            manager.on_step = lambda clock, name=manager.node.name: stepped.append(name)
        fleet.on_step(sim.engine.clock)
        assert stepped == ["node-00", "node-00b", "node-02"]
        fleet.retire("node-02")
        stepped.clear()
        fleet.on_step(sim.engine.clock)
        assert stepped == ["node-00", "node-00b"]

    def test_crash_then_replace(self):
        sim = build_sim(rate=8.0)
        sim.faults.schedule_crash(20.0, "node-01")
        sim.faults.schedule_add(40.0, "replacement")
        summary = sim.run(120.0)
        assert "node-01" not in sim.cluster.nodes
        assert "replacement" in sim.cluster.nodes
        assert summary.availability > 0.9


class TestStatsHorizon:
    def test_added_node_keeps_the_monitor_window(self):
        """Every node manager, a run-time addition's included, keeps the
        MONITOR's query window of frames."""
        config = SimulationConfig(cluster=ClusterConfig(worker_nodes=2), seed=0, monitor_period=60.0)
        sim = Simulation.build(
            config=config,
            specs=[MicroserviceSpec(name="svc", min_replicas=2, max_replicas=4)],
            loads=[ServiceLoad("svc", CPU_BOUND, ConstantLoad(2.0))],
            policy=HyScaleCpu(),
        )
        sim.faults.schedule_add(1.0, "node-x")
        sim.engine.run_for(2.0)
        horizons = {name: manager.horizon for name, manager in sim.monitor.node_managers.items()}
        assert horizons == {"node-00": 60.0, "node-01": 60.0, "node-x": 60.0}
        assert sim.faults.fleet.managers is sim.monitor.node_managers
