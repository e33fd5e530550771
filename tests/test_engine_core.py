"""The engine's two kernels at small fixed cases.

``Node.step`` short-circuits a quiet node, and ``NodeManager`` keeps
``docker stats`` as one frame per step.  ``test_node`` and
``test_node_manager`` check both against their reference paths over
generated inputs; these cases pin the smallest shapes by name, so a break
points at one mechanism.
"""

import dataclasses

import pytest

from repro.cluster.container import Container
from repro.cluster.node import Node
from repro.cluster.resources import ResourceVector
from repro.dockersim.daemon import DockerDaemon
from repro.errors import ContainerNotFound
from repro.platform.node_manager import NodeManager


class _Clock:
    def __init__(self, now: float):
        self.now = now


class TestQuietStepEquivalence:
    """The quiet-node step vs the full (scalar) step, field by field."""

    FIELDS = ("cpu_usage", "mem_usage", "net_usage", "disk_usage", "_net_cpu_headroom")

    def _twin_nodes(self, overheads, n_containers, *, cpu=4.0):
        quiet = Node("node-00", ResourceVector(cpu, 8192.0, 1000.0), overheads)
        scalar = Node("node-00", ResourceVector(cpu, 8192.0, 1000.0), overheads)
        for node in (quiet, scalar):
            for i in range(n_containers):
                container = Container(
                    f"svc-{i}", 0, 0.05, 256.0, 1.0, overheads=overheads, container_id=f"svc-{i}.r0.c{i}"
                )
                node.add_container(container, enforce_capacity=False)
                # Stale usage from an earlier busy step must be overwritten.
                container.cpu_usage = container.net_usage = container.disk_usage = 0.3
                container._net_cpu_headroom = 0.7
        scalar._quiet_serving = lambda: None  # force the full schedulers
        return quiet, scalar

    @pytest.mark.parametrize("n_containers", [0, 1, 7])
    def test_idle_step_matches_scalar(self, overheads, n_containers):
        overheads = dataclasses.replace(overheads, container_background_cpu=0.01)
        quiet, scalar = self._twin_nodes(overheads, n_containers)
        assert len(quiet._quiet_serving()) == n_containers
        quiet.step(1.0, 1.0)
        scalar.step(1.0, 1.0)
        assert list(quiet.containers) == list(scalar.containers)
        for cid, container in scalar.containers.items():
            for field in self.FIELDS:
                assert getattr(quiet.containers[cid], field).hex() == getattr(container, field).hex(), (
                    f"{cid}.{field}"
                )
        assert quiet.last_oom_kills == scalar.last_oom_kills == []
        assert quiet.drain_finished() == scalar.drain_finished() == []


class TestNodeStatsBuffer:
    """The frame store behind ``NodeManager.mean_stats``."""

    def test_unknown_container_raises(self, overheads):
        node = Node("node-00", ResourceVector(4.0, 8192.0, 1000.0), overheads)
        node.add_container(Container("svc", 0, 0.5, 512.0, 50.0, overheads=overheads, container_id="svc.r0.c1"))
        manager = NodeManager(DockerDaemon(node), window_horizon=30.0)
        manager.on_step(_Clock(0.0))
        assert manager.tracked_containers() == ["svc.r0.c1"]
        assert manager.mean_stats("svc.r0.c1", 30.0).cpu_request == 0.5
        with pytest.raises(ContainerNotFound):
            manager.mean_stats("ghost.r0.c9", 30.0)
