"""Tests for the node manager (stats frames + vertical execution)."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.container import Container, ContainerState
from repro.cluster.node import Node
from repro.cluster.resources import ResourceVector
from repro.config import OverheadModel
from repro.dockersim.daemon import DockerDaemon
from repro.dockersim.stats import StatsWindow
from repro.errors import ContainerNotFound, DockerSimError
from repro.platform.node_manager import NodeManager
from repro.sim.clock import SimClock
from repro.workloads.requests import Request


@pytest.fixture
def manager(node):
    return NodeManager(DockerDaemon(node), window_horizon=30.0)


def run_container(manager, service="svc", cpu=0.5):
    return manager.daemon.run(
        service, 0, cpu_request=cpu, mem_limit=512.0, net_rate=50.0, now=0.0
    )


def sample_steps(manager, node, steps: int, dt: float = 1.0, work: bool = False):
    clock = SimClock(dt=dt)
    for _ in range(steps):
        clock.advance()
        node.step(clock.now, dt)
        manager.on_step(clock)
    return clock


class TestSampling:
    def test_collects_samples(self, manager, node):
        container = run_container(manager)
        sample_steps(manager, node, 5)
        assert container.container_id in manager.tracked_containers()
        stats = manager.mean_stats(container.container_id, 10.0)
        assert stats.cpu_request == 0.5

    def test_mean_over_window(self, manager, node):
        container = run_container(manager)
        container.accept(Request(service="svc", arrival_time=0.0, cpu_work=1000.0), 0.0)
        sample_steps(manager, node, 10)
        stats = manager.mean_stats(container.container_id, 5.0)
        assert stats.cpu_usage > 0.0

    def test_departed_containers_pruned(self, manager, node):
        container = run_container(manager)
        sample_steps(manager, node, 2)
        manager.daemon.remove(container.container_id, 2.0)
        sample_steps(manager, node, 1)
        assert container.container_id not in manager.tracked_containers()
        with pytest.raises(ContainerNotFound):
            manager.mean_stats(container.container_id, 5.0)

    def test_unknown_container_rejected(self, manager):
        with pytest.raises(ContainerNotFound):
            manager.mean_stats("ghost", 5.0)

    def test_pending_containers_not_sampled_until_running(self, manager, node):
        container = manager.daemon.run(
            "svc", 0, cpu_request=0.5, mem_limit=512.0, net_rate=0.0, now=0.0, boot_delay=100.0
        )
        sample_steps(manager, node, 2)
        # PENDING containers still occupy resources and appear in ps(), so
        # they are tracked (with zero usage) — matching `docker stats`.
        assert container.container_id in manager.tracked_containers()


class TestVerticalExecution:
    def test_apply_vertical(self, manager, node):
        container = run_container(manager)
        manager.apply_vertical(container.container_id, cpu_request=2.0, mem_limit=1024.0)
        assert container.cpu_request == 2.0
        assert container.mem_limit == 1024.0

    def test_apply_vertical_network(self, manager, node):
        container = run_container(manager)
        manager.apply_vertical(container.container_id, net_rate=200.0)
        assert container.net_rate == 200.0


# ----------------------------------------------------------------------
# Frames answer exactly what per-container StatsWindows answer
# ----------------------------------------------------------------------
class WindowReference:
    """One :class:`StatsWindow` per active container, fed ``docker stats``;
    a container absent from a step loses its window."""

    def __init__(self, daemon: DockerDaemon, horizon: float):
        self.daemon = daemon
        self.horizon = horizon
        self.windows: dict[str, StatsWindow] = {}

    def record(self, now: float) -> None:
        active = set()
        for container in self.daemon.ps():
            active.add(container.container_id)
            window = self.windows.setdefault(container.container_id, StatsWindow(self.horizon))
            window.record(self.daemon.stats(container.container_id, now))
        for container_id in list(self.windows):
            if container_id not in active:
                del self.windows[container_id]


def _exact(sample) -> tuple:
    return tuple(float(v).hex() for v in dataclasses.astuple(sample))


def _exact_row(sample) -> tuple:
    """A window sample's fields in :data:`~repro.platform.node_manager.Row` order."""
    return tuple(
        float(v).hex()
        for v in (
            sample.cpu_request,
            sample.cpu_usage,
            sample.mem_limit,
            sample.mem_usage,
            sample.net_rate,
            sample.net_usage,
            sample.disk_quota,
            sample.disk_usage,
        )
    )


class _Clock:
    def __init__(self, now: float):
        self.now = now


USAGE = st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False)
ACTION = st.one_of(
    st.tuples(st.just("usage"), st.integers(0, 3), USAGE, USAGE, USAGE, USAGE),
    st.tuples(st.just("alloc"), st.integers(0, 3), st.sampled_from([0.25, 0.5, 1.5]), st.sampled_from([256.0, 512.0])),
    st.tuples(st.just("leave"), st.integers(0, 3)),
    st.tuples(st.just("return"), st.integers(0, 3)),
    st.tuples(st.just("freeze"), st.integers(0, 3), st.sampled_from([0.5, 1.0, 2.0])),
    st.tuples(st.just("stop"), st.integers(0, 3)),
    # Every container takes the quiet-node readings, so whole frames can
    # be the node's shared quiet row.
    st.tuples(st.just("hush"), st.integers(0, 3)),
)
HISTORY = st.lists(
    st.tuples(st.sampled_from([0.25, 0.5, 1.0]), st.lists(ACTION, max_size=4)), min_size=1, max_size=25
)
WINDOWS = (0.0, 0.5, 1.0, 2.0, 3.5, 100.0)


class TestFrames:
    def _apply(self, node, pool, action, now):
        kind, index = action[0], action[1]
        container = pool[index]
        hosted = container.container_id in node.containers
        if kind == "usage":
            container.cpu_usage, container.mem_usage, container.net_usage, container.disk_usage = action[2:]
        elif kind == "alloc":
            container.cpu_request, container.mem_limit = action[2:]
        elif kind == "leave" and hosted:
            node.detach_container(container.container_id)
        elif kind == "return" and not hosted and container.is_active:
            node.add_container(container, enforce_capacity=False)
        elif kind == "freeze" and container.is_active:
            container.freeze(action[2])
        elif kind == "stop" and hosted and container.is_active:
            container.terminate(now)
        elif kind == "hush":
            overheads = node.overheads
            for c in pool:
                c.cpu_usage, c.mem_usage = overheads.container_background_cpu, overheads.container_base_memory
                c.net_usage = c.disk_usage = 0.0

    @settings(max_examples=150, deadline=None)
    @given(history=HISTORY)
    def test_mean_stats_matches_stats_window(self, history):
        """``mean_stats`` and the per-node rows, bit for bit, for every
        window: the short ones, ones that span a membership change, and
        one longer than the horizon."""
        # Repeated sums of 0.1 round (0.1 * 3 != 0.3), so the quiet row's
        # fold is checked, not just its constants.
        overheads = OverheadModel(container_background_cpu=0.1)
        node = Node("n0", ResourceVector(4.0, 8192.0, 1000.0), overheads)
        pool = [
            Container(f"svc-{i}", i, 0.5, 512.0, 10.0, overheads=overheads, container_id=f"svc-{i}.r{i}.c{i}")
            for i in range(4)
        ]
        for container in pool[:2]:
            node.add_container(container, enforce_capacity=False)
        daemon = DockerDaemon(node)
        manager = NodeManager(daemon, window_horizon=3.0)
        reference = WindowReference(daemon, 3.0)
        now = 0.0
        for dt, actions in history:
            now += dt
            for action in actions:
                self._apply(node, pool, action, now)
            for container in pool:
                container.tick_boot(dt)
            manager.on_step(_Clock(now))
            reference.record(now)
            assert manager.tracked_containers() == sorted(reference.windows)
            for span in WINDOWS:
                rows = manager.window_rows(span)
                assert sorted(rows) == sorted(reference.windows)
                for container_id, window in reference.windows.items():
                    expected = window.mean_over(span)
                    assert tuple(float(v).hex() for v in rows[container_id]) == _exact_row(expected)
                    assert _exact(manager.mean_stats(container_id, span)) == _exact(expected)
            for container in pool:
                if container.container_id not in reference.windows:
                    with pytest.raises(ContainerNotFound):
                        manager.mean_stats(container.container_id, 1.0)

    def test_departure_and_return_restart_the_history(self, manager, node):
        container = run_container(manager)
        for step, usage in enumerate((1.0, 3.0)):
            container.cpu_usage = usage
            manager.on_step(_Clock(float(step)))
        assert manager.mean_stats(container.container_id, 10.0).cpu_usage == 2.0
        node.detach_container(container.container_id)
        manager.on_step(_Clock(2.0))
        assert manager.tracked_containers() == []
        node.add_container(container)
        container.cpu_usage = 5.0
        manager.on_step(_Clock(3.0))
        assert manager.mean_stats(container.container_id, 10.0).cpu_usage == 5.0

    def test_frozen_container_keeps_its_history(self, manager, node):
        container = run_container(manager)
        container.cpu_usage = 1.0
        manager.on_step(_Clock(0.0))
        container.freeze(5.0)
        assert container.state is ContainerState.PENDING
        container.cpu_usage = 3.0
        manager.on_step(_Clock(1.0))
        assert manager.mean_stats(container.container_id, 10.0).cpu_usage == 2.0

    def test_allocations_come_from_the_latest_frame(self, manager):
        container = run_container(manager)
        manager.on_step(_Clock(0.0))
        manager.apply_vertical(container.container_id, cpu_request=1.5)
        manager.on_step(_Clock(1.0))
        stats = manager.mean_stats(container.container_id, 10.0)
        assert stats.cpu_request == 1.5
        assert stats.timestamp == 1.0

    def test_frames_older_than_the_horizon_are_dropped(self, node):
        manager = NodeManager(DockerDaemon(node), window_horizon=2.0)
        container = run_container(manager)
        for step, usage in enumerate((100.0, 1.0, 2.0, 3.0)):
            container.cpu_usage = usage
            manager.on_step(_Clock(float(step)))
        assert manager.mean_stats(container.container_id, 10.0).cpu_usage == 2.0

    def test_out_of_order_sample_rejected(self, manager):
        run_container(manager)
        manager.on_step(_Clock(2.0))
        with pytest.raises(DockerSimError, match="time order"):
            manager.on_step(_Clock(1.0))

    def test_non_positive_horizon_rejected(self, node):
        with pytest.raises(DockerSimError):
            NodeManager(DockerDaemon(node), window_horizon=0.0)

    @pytest.mark.parametrize("window", [-1.0, float("nan")])
    def test_bad_window_rejected(self, manager, window):
        container = run_container(manager)
        manager.on_step(_Clock(0.0))
        with pytest.raises(DockerSimError, match="query window"):
            manager.window_rows(window)
        with pytest.raises(DockerSimError, match="query window"):
            manager.mean_stats(container.container_id, window)

    def test_quiet_node_rows_follow_allocation_changes(self, manager):
        """A quiet node's rows are kept between queries only while its
        allocations are the same objects."""
        overheads = manager.node.overheads
        containers = [run_container(manager, service=f"svc-{i}") for i in range(3)]
        for step in range(4):
            for c in containers:
                c.cpu_usage, c.mem_usage = overheads.container_background_cpu, overheads.container_base_memory
                c.net_usage = c.disk_usage = 0.0
            manager.on_step(_Clock(float(step)))
        first = manager.window_rows(10.0)
        again = manager.window_rows(10.0)
        assert all(again[cid] is row for cid, row in first.items())
        manager.apply_vertical(containers[1].container_id, cpu_request=1.5)
        manager.on_step(_Clock(4.0))
        rows = manager.window_rows(10.0)
        assert rows[containers[1].container_id][0] == 1.5
        assert rows[containers[0].container_id] == first[containers[0].container_id]
        mean = sum((overheads.container_background_cpu,) * 5) / 5
        assert {row[1] for row in rows.values()} == {mean}

