"""Tests for the node: hosting, capacity, scheduling, quiet step, OOM."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.container import Container
from repro.cluster.node import Node
from repro.cluster.resources import ResourceVector
from repro.cluster.stress import CpuStressContainer
from repro.config import OverheadModel
from repro.errors import CapacityError, ClusterError
from repro.workloads.requests import FailureReason, Request, RequestState

from tests.conftest import make_container


def make_request(cpu=0.5, mem=10.0, net=0.0, timeout=30.0) -> Request:
    return Request(
        service="svc", arrival_time=0.0, cpu_work=cpu, mem_footprint=mem, net_mbits=net, timeout=timeout
    )


class TestHosting:
    def test_add_and_capacity_accounting(self, node, overheads):
        container = make_container(cpu=1.0, mem=1024.0, net=100.0, overheads=overheads)
        node.add_container(container)
        assert node.allocated() == ResourceVector(1.0, 1024.0, 100.0)
        assert node.available() == ResourceVector(3.0, 7168.0, 900.0)

    def test_capacity_enforced(self, node, overheads):
        node.add_container(make_container(cpu=3.0, overheads=overheads))
        with pytest.raises(CapacityError):
            node.add_container(make_container(cpu=2.0, overheads=overheads))

    def test_capacity_enforcement_optional(self, node, overheads):
        node.add_container(make_container(cpu=3.0, overheads=overheads))
        node.add_container(make_container(cpu=3.0, overheads=overheads), enforce_capacity=False)
        assert len(node.containers) == 2

    def test_duplicate_rejected(self, node, overheads):
        container = make_container(overheads=overheads)
        node.add_container(container)
        with pytest.raises(ClusterError):
            node.add_container(container)

    def test_hosts_service(self, node, overheads):
        node.add_container(make_container("frontend", overheads=overheads))
        assert node.hosts_service("frontend")
        assert not node.hosts_service("backend")

    def test_nic_class_attached_and_detached(self, node, overheads):
        container = make_container(overheads=overheads)
        node.add_container(container)
        assert node.nic.is_attached(container.container_id)
        node.remove_container(container.container_id, 1.0)
        assert not node.nic.is_attached(container.container_id)

    def test_remove_unknown_rejected(self, node):
        with pytest.raises(ClusterError):
            node.remove_container("nope", 0.0)

    def test_remove_fails_inflight(self, node, overheads):
        container = make_container(overheads=overheads)
        node.add_container(container)
        request = make_request()
        container.accept(request, 0.0)
        node.remove_container(container.container_id, 1.0)
        assert request.failure_reason is FailureReason.REMOVAL
        assert request in node.drain_finished()

    def test_reshape_network(self, node, overheads):
        container = make_container(net=50.0, overheads=overheads)
        node.add_container(container)
        node.reshape_network(container.container_id, 120.0)
        assert container.net_rate == 120.0
        class_id = node.nic.iptables.class_of(container.container_id)
        assert node.nic.qdisc.get_class(class_id).rate == 120.0

    def test_invalid_node_capacity_rejected(self, overheads):
        with pytest.raises(ClusterError):
            Node("bad", ResourceVector(0.0, 1024.0, 100.0), overheads)


class TestScheduling:
    def test_step_progresses_and_completes(self, node, overheads):
        container = make_container(overheads=overheads)
        node.add_container(container)
        request = make_request(cpu=0.5)
        container.accept(request, 0.0)
        node.step(now=1.0, dt=1.0)
        assert request.state is RequestState.SUCCEEDED
        assert node.drain_finished() == [request]

    def test_shares_divide_contended_cpu(self, node, overheads):
        heavy = make_container("heavy", cpu=2.0, overheads=overheads)
        light = make_container("light", cpu=1.0, overheads=overheads)
        node.add_container(heavy)
        node.add_container(light)
        r_heavy, r_light = make_request(cpu=100.0), make_request(cpu=100.0)
        heavy.accept(r_heavy, 0.0)
        light.accept(r_light, 0.0)
        node.step(1.0, 1.0)
        assert r_heavy.cpu_done == pytest.approx(2.0 * r_light.cpu_done, rel=0.01)

    def test_work_conserving_when_neighbour_idle(self, node, overheads):
        busy = make_container("busy", cpu=0.5, overheads=overheads)
        idle = make_container("idle", cpu=3.0, overheads=overheads)
        node.add_container(busy)
        node.add_container(idle)
        request = make_request(cpu=100.0)
        busy.accept(request, 0.0)
        node.step(1.0, 1.0)
        # Busy container uses the whole node despite its small request.
        assert request.cpu_done == pytest.approx(4.0)

    def test_contention_penalty_applied_when_two_busy(self, overheads):
        from dataclasses import replace

        contended = replace(overheads, colocation_contention=0.5, colocation_cap=2.0)
        node = Node("c", ResourceVector(4.0, 8192.0, 1000.0), contended)
        a = make_container("a", cpu=1.0, overheads=contended)
        b = make_container("b", cpu=1.0, overheads=contended)
        node.add_container(a)
        node.add_container(b)
        ra, rb = make_request(cpu=100.0), make_request(cpu=100.0)
        a.accept(ra, 0.0)
        b.accept(rb, 0.0)
        node.step(1.0, 1.0)
        # Each granted 2 cores, slowed by factor 1.5.
        assert ra.cpu_done == pytest.approx(2.0 / 1.5)

    def test_boot_progresses_during_step(self, node, overheads):
        container = make_container(boot=1.0, overheads=overheads)
        node.add_container(container)
        node.step(1.0, 1.0)
        assert container.is_serving

    def test_network_transmission(self, node, overheads):
        container = make_container(net=100.0, overheads=overheads)
        node.add_container(container)
        request = make_request(cpu=0.0, net=50.0, timeout=100.0)
        container.accept(request, 0.0)
        node.step(1.0, 1.0)
        assert request.net_done == pytest.approx(100.0 * (1.0 - 0.0), rel=0.2) or request.is_finished

    def test_usage_aggregates(self, node, overheads):
        container = make_container(overheads=overheads)
        node.add_container(container)
        container.accept(make_request(cpu=100.0), 0.0)
        node.step(1.0, 1.0)
        assert node.usage().cpu == pytest.approx(4.0)


class TestOom:
    def test_oom_kill_on_step(self, overheads):
        node = Node("oom", ResourceVector(4.0, 8192.0, 1000.0), overheads)
        victim = make_container(mem=110.0, overheads=overheads)
        node.add_container(victim)
        for _ in range(6):
            victim.accept(make_request(cpu=1000.0, mem=200.0), 0.0)
        node.step(1.0, 1.0)
        assert victim in node.last_oom_kills
        assert victim.state.name == "OOM_KILLED"
        finished = node.drain_finished()
        assert finished and all(r.failure_reason is FailureReason.REMOVAL for r in finished)

    def test_no_oom_within_limit(self, node, overheads):
        container = make_container(mem=2048.0, overheads=overheads)
        node.add_container(container)
        container.accept(make_request(mem=100.0), 0.0)
        node.step(1.0, 1.0)
        assert node.last_oom_kills == []


# ----------------------------------------------------------------------
# The quiet-node step
# ----------------------------------------------------------------------
#: Every container field a node step writes on an idle container.
STEP_FIELDS = ("cpu_usage", "mem_usage", "net_usage", "disk_usage", "_net_cpu_headroom")


def _twin_nodes(overheads, limits, *, cpu=4.0, requests=(0.05,)):
    """Two identical nodes hosting one idle container per memory limit.

    CPU requests (hence fair-share weights) cycle through ``requests``.
    """
    nodes = []
    for name in ("quiet", "full"):
        node = Node(name, ResourceVector(cpu, 8192.0, 1000.0), overheads)
        for i, mem in enumerate(limits):
            node.add_container(
                Container(
                    f"svc-{i}",
                    0,
                    requests[i % len(requests)],
                    mem,
                    1.0,
                    overheads=overheads,
                    container_id=f"svc-{i}.r0.c{i}",
                ),
                enforce_capacity=False,
            )
        nodes.append(node)
    return nodes


def _step_bytes(node: Node) -> list:
    """Every written field of every container, as exact float bits."""
    return [
        (cid, [float(getattr(c, field)).hex() for field in STEP_FIELDS], c.state)
        for cid, c in node.containers.items()
    ]


class TestQuietStep:
    @settings(max_examples=60, deadline=None)
    @given(
        limits=st.lists(st.sampled_from([128.0, 256.0, 512.0, 1024.0]), max_size=70),
        risky=st.booleans(),
        background=st.sampled_from([0.0, 0.005, 0.01, 0.02, 0.05]),
        cpu=st.sampled_from([0.5, 1.0, 4.0, 8.0]),
        requests=st.lists(st.sampled_from([0.0, 0.001, 0.05, 0.5, 2.0]), min_size=1, max_size=5),
    )
    def test_quiet_step_is_byte_equal_to_the_full_step(self, limits, risky, background, cpu, requests):
        overheads = OverheadModel(container_background_cpu=background)
        # A 64 MiB limit puts the 150 MiB base footprint past the OOM line.
        quiet, full = _twin_nodes(overheads, limits + [64.0] * risky, cpu=cpu, requests=requests)
        # Stale usage from an earlier busy step must be overwritten too.
        for node in (quiet, full):
            for container in node.containers.values():
                container.cpu_usage = container.net_usage = container.disk_usage = 0.3
                container._net_cpu_headroom = 0.7
        full._quiet_serving = lambda: None  # force the full schedulers
        for step in (1, 2):
            quiet.step(0.5 * step, 0.5)
            full.step(0.5 * step, 0.5)
            assert _step_bytes(quiet) == _step_bytes(full)
            assert [c.container_id for c in quiet.last_oom_kills] == [
                c.container_id for c in full.last_oom_kills
            ]
            assert quiet.drain_finished() == full.drain_finished() == []

    def test_idle_node_takes_the_short_circuit(self):
        quiet, _ = _twin_nodes(OverheadModel(), [512.0] * 7)
        serving = quiet._quiet_serving()
        assert serving is not None and len(serving) == 7

    def test_empty_node_is_quiet(self):
        quiet, _ = _twin_nodes(OverheadModel(), [])
        assert quiet._quiet_serving() == []

    def test_booting_container_blocks_the_short_circuit(self):
        quiet, _ = _twin_nodes(OverheadModel(), [512.0] * 3)
        quiet.containers["svc-1.r0.c1"].freeze(2.0)
        assert quiet._quiet_serving() is None
        quiet.step(1.0, 1.0)
        quiet.step(2.0, 1.0)  # boot finishes during the full step
        assert quiet._quiet_serving() is not None

    def test_inflight_request_blocks_the_short_circuit(self):
        quiet, _ = _twin_nodes(OverheadModel(), [512.0] * 3)
        quiet.containers["svc-0.r0.c0"].accept(make_request(cpu=0.1), 0.0)
        assert quiet._quiet_serving() is None
        quiet.step(1.0, 1.0)  # the request completes and settles
        assert quiet._quiet_serving() is not None

    def test_idle_oom_risk_blocks_the_short_circuit(self):
        overheads = OverheadModel()
        # Base memory alone exceeds oom_factor x limit: idle but doomed.
        limit = 0.5 * overheads.container_base_memory / overheads.oom_factor
        quiet, full = _twin_nodes(overheads, [512.0, limit])
        assert quiet._quiet_serving() is None
        quiet.step(1.0, 1.0)
        assert [c.container_id for c in quiet.last_oom_kills] == ["svc-1.r0.c1"]

    def test_more_than_64_claimants_block_the_short_circuit(self):
        overheads = OverheadModel(container_background_cpu=0.01)
        at_bound, _ = _twin_nodes(overheads, [512.0] * 64)
        past_bound, _ = _twin_nodes(overheads, [512.0] * 65)
        assert at_bound._quiet_serving() is not None
        assert past_bound._quiet_serving() is None
        # With no background demand fair share has nothing to arbitrate.
        free, _ = _twin_nodes(dataclasses.replace(overheads, container_background_cpu=0.0), [512.0] * 65)
        assert free._quiet_serving() is not None

    def test_oversubscribed_background_blocks_the_short_circuit(self):
        overheads = OverheadModel(container_background_cpu=0.02)
        quiet, full = _twin_nodes(overheads, [512.0] * 30, cpu=1.0)  # 0.6 > 1.0 / 2
        assert quiet._quiet_serving() is None
        full._quiet_serving = lambda: None
        quiet.step(1.0, 1.0)
        full.step(1.0, 1.0)
        assert _step_bytes(quiet) == _step_bytes(full)

    def test_stress_container_blocks_the_short_circuit(self):
        overheads = OverheadModel()
        quiet, _ = _twin_nodes(overheads, [512.0])
        quiet.add_container(CpuStressContainer("stress", 1.0, overheads=overheads))
        assert quiet._quiet_serving() is None

