"""Tests for the simulated container: scheduling, memory, lifecycle."""

import pytest

from repro.cluster.container import Container, ContainerState
from repro.cluster.grants import ResourceGrants
from repro.config import OverheadModel
from repro.errors import ContainerStateError
from repro.workloads.requests import FailureReason, Phase, Request, RequestState

from tests.conftest import make_container


def make_request(cpu=0.5, mem=10.0, net=0.0, timeout=30.0) -> Request:
    return Request(
        service="svc", arrival_time=0.0, cpu_work=cpu, mem_footprint=mem, net_mbits=net, timeout=timeout
    )


class TestLifecycle:
    def test_boot_delay(self, overheads):
        container = make_container(boot=2.0, overheads=overheads)
        assert container.state is ContainerState.PENDING
        assert not container.is_serving
        container.tick_boot(1.0)
        assert container.state is ContainerState.PENDING
        container.tick_boot(1.0)
        assert container.state is ContainerState.RUNNING

    def test_no_boot_starts_running(self, overheads):
        assert make_container(overheads=overheads).state is ContainerState.RUNNING

    def test_accept_rejected_while_pending(self, overheads):
        container = make_container(boot=5.0, overheads=overheads)
        with pytest.raises(ContainerStateError):
            container.accept(make_request(), 0.0)

    def test_terminate_fails_inflight_as_removal(self, overheads):
        container = make_container(overheads=overheads)
        request = make_request()
        container.accept(request, 0.0)
        casualties = container.terminate(5.0)
        assert casualties == [request]
        assert request.failure_reason is FailureReason.REMOVAL
        assert container.state is ContainerState.STOPPED

    def test_oom_terminate_state(self, overheads):
        container = make_container(overheads=overheads)
        container.terminate(1.0, oom=True)
        assert container.state is ContainerState.OOM_KILLED

    def test_double_terminate_rejected(self, overheads):
        container = make_container(overheads=overheads)
        container.terminate(1.0)
        with pytest.raises(ContainerStateError):
            container.terminate(2.0)

    def test_invalid_allocations_rejected(self):
        with pytest.raises(ContainerStateError):
            Container("s", 0, cpu_request=-1, mem_limit=512, net_rate=0)
        with pytest.raises(ContainerStateError):
            Container("s", 0, cpu_request=1, mem_limit=0, net_rate=0)
        with pytest.raises(ContainerStateError):
            Container("s", 0, cpu_request=1, mem_limit=512, net_rate=0, max_concurrency=0)

    def test_cpu_shares_follow_request(self, overheads):
        container = make_container(cpu=2.0, overheads=overheads)
        assert container.cpu_shares == 2048


class TestCompute:
    def test_progresses_requests(self, overheads):
        container = make_container(overheads=overheads)
        request = make_request(cpu=1.0, net=0.0)
        container.accept(request, 0.0)
        container.advance(ResourceGrants(cpu=2.0), 0.5)
        assert request.cpu_done == pytest.approx(1.0)

    def test_processor_sharing_equalizes(self, overheads):
        container = make_container(overheads=overheads)
        requests = [make_request(cpu=10.0) for _ in range(4)]
        for request in requests:
            container.accept(request, 0.0)
        container.advance(ResourceGrants(cpu=4.0), 1.0)
        for request in requests:
            assert request.cpu_done == pytest.approx(1.0)

    def test_sliding_window_uses_leftover_budget(self, overheads):
        # 8 tiny requests, concurrency 2: all should finish in one fat step.
        container = make_container(concurrency=2, overheads=overheads)
        requests = [make_request(cpu=0.1, net=0.0) for _ in range(8)]
        for request in requests:
            container.accept(request, 0.0)
        container.advance(ResourceGrants(cpu=4.0), 1.0)
        assert all(r.remaining(Phase.CPU) == 0 for r in requests)

    def test_contention_slows_progress(self, overheads):
        fast = make_container(overheads=overheads)
        slow = make_container(overheads=overheads)
        r1, r2 = make_request(cpu=10.0), make_request(cpu=10.0)
        fast.accept(r1, 0.0)
        slow.accept(r2, 0.0)
        fast.advance(ResourceGrants(cpu=2.0), 1.0)
        slow.advance(ResourceGrants(cpu=2.0, contention=1.17), 1.0)
        assert r2.cpu_done == pytest.approx(r1.cpu_done / 1.17)

    def test_swap_slows_progress(self, overheads):
        container = make_container(mem=100.0, overheads=overheads)  # base 100 fills it
        request = make_request(cpu=10.0, mem=100.0)
        container.accept(request, 0.0)
        assert container.is_swapping
        container.advance(ResourceGrants(cpu=2.0), 1.0)
        # swap_slowdown = 0.5 in the test overheads
        assert request.cpu_done == pytest.approx(1.0)

    def test_usage_reflects_grant_spent(self, overheads):
        container = make_container(overheads=overheads)
        container.accept(make_request(cpu=100.0), 0.0)
        container.advance(ResourceGrants(cpu=3.0), 1.0)
        assert container.cpu_usage == pytest.approx(3.0)

    def test_idle_container_reports_background_only(self):
        overheads = OverheadModel(container_background_cpu=0.05)
        container = make_container(overheads=overheads)
        container.advance(ResourceGrants(cpu=2.0), 1.0)
        assert container.cpu_usage == pytest.approx(0.05)

    def test_invalid_grant_rejected(self, overheads):
        container = make_container(overheads=overheads)
        with pytest.raises(ContainerStateError):
            container.advance(ResourceGrants(cpu=-1.0), 1.0)
        with pytest.raises(ContainerStateError):
            container.advance(ResourceGrants(cpu=1.0), 0.0)
        with pytest.raises(ContainerStateError):
            container.advance(ResourceGrants(cpu=1.0, contention=0.9), 1.0)


class TestConcurrencyWindow:
    def test_active_set_bounded(self, overheads):
        container = make_container(concurrency=3, overheads=overheads)
        for _ in range(5):
            container.accept(make_request(), 0.0)
        assert len(container.active_requests()) == 3
        assert len(container.inflight[container.max_concurrency :]) == 2  # the backlog

    def test_queued_requests_hold_no_memory(self, overheads):
        container = make_container(concurrency=2, overheads=overheads)
        for _ in range(6):
            container.accept(make_request(mem=100.0), 0.0)
        # base 100 + 2 active x 25 (quarter ramp at admission)
        assert container.memory_working_set() == pytest.approx(150.0)


class TestMemory:
    def test_working_set_includes_base(self, overheads):
        container = make_container(overheads=overheads)
        assert container.memory_working_set() == pytest.approx(100.0)

    def test_swapping_flag(self, overheads):
        container = make_container(mem=120.0, overheads=overheads)
        assert not container.is_swapping
        container.accept(make_request(mem=200.0), 0.0)  # +50 resident at admission
        assert container.is_swapping

    def test_oom_threshold(self, node, overheads):
        # The node step kills once the settled working set passes
        # oom_factor x the limit (2 x 110 here).
        container = make_container(mem=110.0, overheads=overheads)
        node.add_container(container)
        container.accept(make_request(cpu=1000.0, mem=200.0), 0.0)
        node.step(1.0, 1.0)
        assert 100.0 + 50.0 < container.mem_usage <= 2 * 110.0
        assert node.last_oom_kills == []
        for _ in range(3):
            container.accept(make_request(cpu=1000.0, mem=200.0), 0.0)  # +50 each
        # working set just over 300 > 2 x 110
        assert container.memory_working_set() > 2 * 110.0
        node.step(2.0, 1.0)
        assert node.last_oom_kills == [container]


class TestNetwork:
    def test_transmits_after_cpu_phase(self, overheads):
        container = make_container(overheads=overheads)
        request = make_request(cpu=0.0, net=10.0)
        container.accept(request, 0.0)
        assert container.net_demand(1.0) == pytest.approx(10.0)
        container.advance(ResourceGrants(net=10.0), 1.0)
        assert request.remaining(Phase.NET) == 0.0
        assert container.net_usage == pytest.approx(10.0)

    def test_cpu_phase_requests_offer_no_network(self, overheads):
        container = make_container(overheads=overheads)
        container.accept(make_request(cpu=5.0, net=10.0), 0.0)
        assert container.net_demand(1.0) == 0.0

    def test_net_demand_capped_by_cpu_headroom(self):
        overheads = OverheadModel(net_cpu_per_mbit=0.01, container_background_cpu=0.0)
        container = make_container(overheads=overheads)
        request = make_request(cpu=0.0, net=1000.0)
        container.accept(request, 0.0)
        container.advance(ResourceGrants(cpu=1.0), 1.0)
        # headroom 1 core / 0.01 per Mbit = 100 Mbit/s max
        assert container.net_demand(1.0) == pytest.approx(100.0)

    def test_tx_counts_toward_cpu_usage(self):
        overheads = OverheadModel(net_cpu_per_mbit=0.01)
        container = make_container(overheads=overheads)
        container.accept(make_request(cpu=0.0, net=50.0), 0.0)
        container.advance(ResourceGrants(cpu=4.0), 1.0)
        container.advance(ResourceGrants(net=50.0), 1.0)
        assert container.cpu_usage >= 0.5  # 50 Mbit/s x 0.01


class TestSettlement:
    def test_completion(self, overheads):
        container = make_container(overheads=overheads)
        request = make_request(cpu=0.5, net=0.0)
        container.accept(request, 0.0)
        container.advance(ResourceGrants(cpu=4.0), 1.0)
        container.settle_requests(1.0)
        assert request.state is RequestState.SUCCEEDED
        assert container.total_completed == 1
        assert container.drain_finished() == [request]
        assert container.drain_finished() == []  # drained once

    def test_timeout_is_connection_failure(self, overheads):
        container = make_container(overheads=overheads)
        request = make_request(cpu=1000.0, timeout=5.0)
        container.accept(request, 0.0)
        container.settle_requests(5.0)
        assert request.failure_reason is FailureReason.CONNECTION
        assert container.total_failed == 1

    def test_mem_usage_updated_on_settle(self, overheads):
        container = make_container(overheads=overheads)
        container.accept(make_request(cpu=100.0, mem=200.0), 0.0)
        container.settle_requests(1.0)
        assert container.mem_usage > 100.0
