"""Tests for the node change generation and the three consumers it lets
skip work: the quiet node's step, its manager's vouched quiet frame and
the MONITOR's kept node view (DESIGN.md, "The idle-container write").

The twin test drives a node, its manager and a monitor against a twin
whose generation is bumped before its node steps and again before its
manager records, so the twin never skips; every reading, row, drain and
view must agree byte for byte.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.cluster.resources import ResourceVector
from repro.config import ClusterConfig, OverheadModel, SimulationConfig
from repro.core.registry import resolve_policy
from repro.dockersim.api import DockerClient
from repro.instrument import Observe
from repro.metrics.collector import MetricsCollector
from repro.platform.monitor import Monitor
from repro.platform.node_manager import NodeManager
from repro.sanitizer import SimSanitizer
from repro.workloads import CPU_BOUND, ConstantLoad, HighBurstLoad, ServiceLoad
from repro.workloads.requests import Request

WINDOWS = (0.0, 0.5, 1.5, 100.0)
POOL = 6


class _Clock:
    def __init__(self, now: float, dt: float):
        self.now = now
        self.dt = dt


class _Platform:
    """One node with its daemon, its manager and a monitor over it."""

    def __init__(self, overheads: OverheadModel, *, never_skip: bool):
        self.never_skip = never_skip
        self.cluster = Cluster(overheads)
        self.node = Node("node-00", ResourceVector(4.0, 8192.0, 1000.0), overheads)
        self.cluster.add_node(self.node)
        client = DockerClient(self.cluster)
        self.daemon = client.daemons["node-00"]
        self.manager = NodeManager(self.daemon, window_horizon=2.0)
        config = SimulationConfig(monitor_period=1.0)
        self.monitor = Monitor(
            self.cluster,
            client,
            {"node-00": self.manager},
            resolve_policy("hybrid", config),
            config,
            MetricsCollector(),
        )
        #: Every container ever run here, hosted or detached, by id.
        self.pool: dict[str, object] = {}
        self.detached: dict[str, object] = {}

    # -- actions ---------------------------------------------------------
    def run(self, index: int, boot: float, now: float) -> None:
        cid = f"svc-{index}.r0.c{index}"
        if cid in self.pool:
            return
        self.pool[cid] = self.daemon.run(
            f"svc-{index % 3}",
            0,
            cpu_request=0.5,
            mem_limit=512.0,
            net_rate=20.0,
            now=now,
            boot_delay=boot,
            enforce_capacity=False,
            container_id=cid,
        )

    def apply(self, action: tuple, now: float, request_ids) -> None:
        kind, index = action[0], action[1]
        if kind == "run":
            self.run(index, action[2], now)
            return
        cid = f"svc-{index}.r0.c{index}"
        container = self.pool.get(cid)
        if container is None:
            return
        hosted = cid in self.node.containers
        if kind == "accept" and hosted and container.is_serving:
            cpu, mem, net = action[2:]
            container.accept(
                Request(
                    service=container.service,
                    arrival_time=now,
                    cpu_work=cpu,
                    mem_footprint=mem,
                    net_mbits=net,
                    timeout=2.0,
                    request_id=next(request_ids),
                ),
                now,
            )
        elif kind == "update" and hosted and container.is_active:
            self.daemon.update(cid, cpu_request=action[2], mem_limit=action[3], enforce_capacity=False)
        elif kind == "reshape" and hosted:
            self.node.reshape_network(cid, action[2])
        elif kind == "freeze" and hosted and container.is_active:
            container.freeze(action[2])
        elif kind == "oom" and hosted and container.is_active:
            # Base memory alone now trips the kill on the next step.
            self.daemon.update(cid, mem_limit=16.0, enforce_capacity=False)
        elif kind == "remove" and hosted:
            self.daemon.remove(cid, now)
        elif kind == "detach" and hosted:
            self.detached[cid] = self.node.detach_container(cid)
        elif kind == "attach" and cid in self.detached:
            self.node.add_container(self.detached.pop(cid), enforce_capacity=False)
        elif kind == "usage":
            setattr(container, action[2], action[3])

    # -- one engine step -------------------------------------------------
    def step(self, now: float, dt: float) -> tuple:
        """Step node and manager; return everything the twins must share."""
        if self.never_skip:
            self.node.generation += 1
        self.node.step(now, dt)
        if self.never_skip:
            self.node.generation += 1
        readings = {
            cid: tuple(
                repr(v)
                for v in (c.cpu_usage, c.mem_usage, c.net_usage, c.disk_usage, c._net_cpu_headroom)
            )
            for cid, c in sorted(self.pool.items())
        }
        finished = [(r.request_id, r.state, r.failure_reason) for r in self.node.drain_finished()]
        killed = [c.container_id for c in self.node.last_oom_kills]
        self.manager.on_step(_Clock(now, dt))
        rows = [
            {cid: tuple(map(repr, row)) for cid, row in sorted(self.manager.window_rows(w).items())}
            for w in WINDOWS
        ]
        self.daemon.reap_oom_kills(now)
        nodes = self.monitor.build_view(now).nodes
        return readings, finished, killed, rows, nodes


_index = st.integers(0, POOL - 1)
ACTION = st.one_of(
    st.tuples(st.just("run"), _index, st.sampled_from([0.0, 0.0, 1.0])),
    st.tuples(
        st.just("accept"),
        _index,
        st.sampled_from([0.0, 0.05, 0.6]),
        st.sampled_from([0.0, 20.0]),
        st.sampled_from([0.0, 2.0]),
    ),
    st.tuples(st.just("update"), _index, st.sampled_from([0.25, 1.0]), st.sampled_from([256.0, 1024.0])),
    st.tuples(st.just("reshape"), _index, st.sampled_from([5.0, 80.0])),
    st.tuples(st.just("freeze"), _index, st.sampled_from([0.5, 1.5])),
    st.tuples(st.just("oom"), _index),
    st.tuples(st.just("remove"), _index),
    st.tuples(st.just("detach"), _index),
    st.tuples(st.just("attach"), _index),
    st.tuples(
        st.just("usage"),
        _index,
        st.sampled_from(["cpu_usage", "mem_usage", "net_usage", "disk_usage"]),
        st.sampled_from([0.0, 0.01, 0.5, 150.0]),
    ),
)
#: Rounds of actions, each followed by one step; empty rounds are plain steps.
ROUNDS = st.lists(st.lists(ACTION, max_size=3), min_size=1, max_size=30)


class TestTwin:
    @settings(max_examples=120, deadline=None)
    @given(rounds=ROUNDS, background=st.sampled_from([0.0, 0.01, 0.1]))
    def test_skipping_platform_matches_a_twin_that_never_skips(self, rounds, background):
        overheads = OverheadModel(container_background_cpu=background)
        subject = _Platform(overheads, never_skip=False)
        twin = _Platform(overheads, never_skip=True)
        for platform in (subject, twin):
            for index in range(3):
                platform.run(index, 0.0, 0.0)
        dt = 0.5
        for step, actions in enumerate(rounds, start=1):
            now = dt * step
            for platform in (subject, twin):
                request_ids = iter(range(1000 * step, 1000 * step + 100))
                for action in actions:
                    platform.apply(action, now, request_ids)
            assert subject.step(now, dt) == twin.step(now, dt)


class TestSkips:
    def _platform(self) -> _Platform:
        platform = _Platform(OverheadModel(container_background_cpu=0.01), never_skip=False)
        for index in range(3):
            platform.run(index, 0.0, 0.0)
        return platform

    def test_quiet_unchanged_node_skips_its_step(self, monkeypatch):
        platform = self._platform()
        platform.step(0.5, 0.5)
        assert platform.node.vouched
        calls = []
        monkeypatch.setattr(Node, "_quiet_serving", lambda node: calls.append(node))
        platform.step(1.0, 0.5)
        assert calls == []
        assert platform.node.vouched

    def test_busy_step_clears_the_mark(self):
        platform = self._platform()
        platform.step(0.5, 0.5)
        container = platform.pool["svc-0.r0.c0"]
        container.accept(Request(service="svc-0", arrival_time=0.5, cpu_work=5.0, request_id=1), 0.5)
        assert not platform.node.vouched
        platform.step(1.0, 0.5)
        assert not platform.node.vouched

    @pytest.mark.parametrize(
        "change",
        [
            lambda p, c: c.accept(Request(service="svc-0", arrival_time=0.5, cpu_work=5.0, request_id=1), 0.5),
            lambda p, c: p.daemon.update(c.container_id, cpu_request=1.0),
            lambda p, c: p.node.reshape_network(c.container_id, 40.0),
            lambda p, c: c.freeze(1.0),
            lambda p, c: c.terminate(0.5),
            lambda p, c: p.node.detach_container(c.container_id),
            lambda p, c: setattr(c, "cpu_usage", 0.3),
            lambda p, c: setattr(c, "mem_usage", 400.0),
            lambda p, c: setattr(c, "net_usage", 1.0),
            lambda p, c: setattr(c, "disk_usage", 1.0),
        ],
        ids=["accept", "update", "reshape", "freeze", "terminate", "detach", "cpu", "mem", "net", "disk"],
    )
    def test_every_change_bumps_the_generation(self, change):
        platform = self._platform()
        platform.step(0.5, 0.5)
        before = platform.node.generation
        change(platform, platform.pool["svc-0.r0.c0"])
        assert platform.node.generation > before
        assert not platform.node.vouched

    def test_unhosted_container_bumps_nothing(self):
        platform = self._platform()
        container = platform.node.detach_container("svc-0.r0.c0")
        before = platform.node.generation
        container.cpu_usage = 0.7
        container.freeze(1.0)
        assert platform.node.generation == before

    def test_manager_reuses_the_quiet_frame_until_the_generation_moves(self):
        platform = self._platform()
        platform.step(0.5, 0.5)
        allocations = platform.manager._allocations
        platform.step(1.0, 0.5)
        assert platform.manager._frames[-1][2] is None
        assert platform.manager._allocations is allocations
        platform.daemon.update("svc-1.r0.c1", cpu_request=0.75)
        platform.step(1.5, 0.5)
        assert platform.manager._allocations is not allocations
        assert platform.manager.window_rows(0.0)["svc-1.r0.c1"][0] == 0.75

    @pytest.mark.parametrize(
        "reading, column", [("cpu_usage", 1), ("mem_usage", 3), ("net_usage", 5), ("disk_usage", 7)]
    )
    def test_usage_written_onto_a_vouched_node_shows_in_the_next_frame(self, reading, column):
        platform = self._platform()
        platform.step(0.5, 0.5)
        platform.step(1.0, 0.5)
        container = platform.pool["svc-1.r0.c1"]
        setattr(container, reading, 2.5)
        platform.manager.on_step(_Clock(1.5, 0.5))
        assert platform.manager.window_rows(0.0)[container.container_id][column] == 2.5

    def test_monitor_keeps_node_views_until_the_generation_moves(self):
        platform = self._platform()
        platform.step(0.5, 0.5)
        first = platform.monitor.build_view(0.5).nodes[0]
        assert platform.monitor.build_view(1.0).nodes[0] is first
        platform.daemon.update("svc-2.r0.c2", cpu_request=1.0)
        again = platform.monitor.build_view(1.5).nodes[0]
        assert again is not first
        assert again.allocated.cpu == first.allocated.cpu + 0.5

    def test_monitor_drops_the_views_of_removed_nodes(self):
        platform = self._platform()
        platform.monitor.build_view(0.5)
        platform.cluster.remove_node("node-00", 1.0)
        platform.monitor.node_managers.clear()
        assert platform.monitor.build_view(1.0).nodes == ()
        assert platform.monitor._node_views == {}


def _sanitized(pattern, seed: int = 3):
    from repro.cluster.microservice import MicroserviceSpec
    from repro.experiments.runner import Simulation

    sanitizer = SimSanitizer()
    config = SimulationConfig(cluster=ClusterConfig(worker_nodes=6), seed=seed)
    specs = [MicroserviceSpec(name="svc", min_replicas=2, max_replicas=8)]
    loads = [ServiceLoad("svc", CPU_BOUND, pattern)]
    simulation = Simulation.build(
        config=config, specs=specs, loads=loads, policy="hybrid", observe=Observe(sanitizer=sanitizer)
    )
    return simulation, sanitizer


class TestQuietCheck:
    def test_allocation_written_around_update_is_recorded(self):
        # No load, and the first MONITOR tick is at 5 s: every node stays
        # quiet, so the only change is the bare write.
        simulation, sanitizer = _sanitized(ConstantLoad(0.0))
        for _ in range(3):
            simulation.engine.step()
        node = next(n for n in simulation.cluster.sorted_nodes() if n.containers)
        assert node.vouched
        container = next(iter(node.containers.values()))
        container.mem_limit = container.mem_limit + 64.0  # around DockerDaemon.update
        simulation.engine.step()
        assert sanitizer.violations()
        assert {(v.check, v.subject) for v in sanitizer.violations()} == {("quiet", node.name)}

    def test_churning_hybrid_run_records_no_quiet_violation(self):
        burst = HighBurstLoad(base=2.0, peak=40.0, period=60.0, duty=0.3, ramp=4.0)
        simulation, sanitizer = _sanitized(burst, seed=11)
        simulation.faults.schedule_crash(40.0, "node-01")
        simulation.faults.schedule_add(50.0, "node-90")
        simulation.run(150.0)
        assert simulation.collector.horizontal_scale_ups > 0
        assert simulation.collector.vertical_scale_ops > 0
        assert sanitizer.steps_checked == 300
        assert sanitizer.violations() == ()
