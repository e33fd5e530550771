"""Tests for the request lifecycle and failure taxonomy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.workloads.requests import FailureReason, Phase, Request, RequestState


def make_request(**kwargs) -> Request:
    defaults = dict(service="svc", arrival_time=1.0, cpu_work=0.5, mem_footprint=10.0, net_mbits=2.0)
    defaults.update(kwargs)
    return Request(**defaults)


class TestConstruction:
    def test_starts_queued(self):
        request = make_request()
        assert request.state is RequestState.QUEUED
        assert not request.is_finished

    def test_unique_ids(self):
        assert make_request().request_id != make_request().request_id

    def test_rejects_negative_demands(self):
        with pytest.raises(WorkloadError):
            make_request(cpu_work=-1.0)
        with pytest.raises(WorkloadError):
            make_request(mem_footprint=-1.0)
        with pytest.raises(WorkloadError):
            make_request(net_mbits=-1.0)

    def test_rejects_bad_timeout(self):
        with pytest.raises(WorkloadError):
            make_request(timeout=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["cpu_work", "mem_footprint", "net_mbits", "disk_mb", "timeout"])
    def test_rejects_non_finite_demands_and_timeout(self, field, value):
        with pytest.raises(WorkloadError):
            make_request(**{field: value})


class TestPhases:
    def test_cpu_then_net_phase(self):
        request = make_request()
        request.assign("c1", 1.0)
        assert request.phase is Phase.CPU
        request.advance(Phase.CPU, 0.5)
        assert request.phase is Phase.NET
        request.advance(Phase.NET, 2.0)
        assert request.phase is None

    def test_no_cpu_work_goes_straight_to_net(self):
        request = make_request(cpu_work=0.0)
        request.assign("c1", 1.0)
        assert request.phase is Phase.NET

    def test_overhead_factor_inflates_cpu(self):
        request = make_request(cpu_work=1.0)
        request.assign("c1", 1.0, overhead_factor=1.2)
        assert request.remaining(Phase.CPU) == pytest.approx(1.2)
        request.advance(Phase.CPU, 1.0)
        assert request.phase is Phase.CPU  # 0.2 still remaining

    def test_remaining_never_negative(self):
        request = make_request(cpu_work=0.5)
        request.assign("c1", 1.0)
        request.advance(Phase.CPU, 10.0)
        assert request.remaining(Phase.CPU) == 0.0

    def test_phase_is_none_until_assigned_and_after_finishing(self):
        request = make_request()
        assert request.phase is None and not request.local_work_done
        request.assign("c1", 1.0)
        assert request.phase is Phase.CPU
        request.complete(2.0)
        assert request.phase is None and not request.local_work_done
        failed = make_request()
        failed.assign("c1", 1.0)
        failed.fail(2.0, FailureReason.REMOVAL)
        assert failed.phase is None

    def test_phase_moves_on_at_the_threshold(self):
        request = make_request(cpu_work=1.0, disk_mb=1.0, net_mbits=1.0)
        request.assign("c1", 1.0)
        request.advance(Phase.CPU, 1.0 - 2e-12)
        assert request.phase is Phase.CPU  # 2e-12 left is still work
        request.advance(Phase.CPU, 1.5e-12)
        assert request.phase is Phase.DISK  # at most 1e-12 left is done
        request.advance(Phase.DISK, 1.0)
        assert request.phase is Phase.NET
        request.advance(Phase.NET, 1.0)
        assert request.phase is None and request.local_work_done

    @settings(max_examples=100, deadline=None)
    @given(
        demands=st.tuples(*[st.sampled_from([0.0, 1e-13, 0.3, 1.0])] * 3),
        steps=st.lists(
            st.tuples(st.sampled_from(list(Phase)), st.sampled_from([0.0, 1e-13, 0.1, 0.3, 1.0])),
            max_size=12,
        ),
    )
    def test_stored_phase_always_equals_the_derived_phase(self, demands, steps):
        cpu, disk, net = demands
        request = make_request(cpu_work=cpu, disk_mb=disk, net_mbits=net)
        request.assign("c1", 1.0, overhead_factor=1.1)
        assert request.phase is request.derive_phase()
        for phase, amount in steps:
            request.advance(phase, amount)
            assert request.phase is request.derive_phase()


class TestMemoryRamp:
    def test_quarter_at_admission(self):
        request = make_request(mem_footprint=100.0)
        request.assign("c1", 1.0)
        assert request.resident_memory == pytest.approx(25.0)

    def test_full_at_completion_of_work(self):
        request = make_request(mem_footprint=100.0, cpu_work=1.0, net_mbits=0.0)
        request.assign("c1", 1.0)
        request.advance(Phase.CPU, 1.0)
        assert request.resident_memory == pytest.approx(100.0)

    def test_progress_spans_both_phases(self):
        request = make_request(mem_footprint=100.0, cpu_work=1.0, net_mbits=1.0)
        request.assign("c1", 1.0)
        request.advance(Phase.CPU, 1.0)
        assert request.resident_memory == pytest.approx(100.0 * (0.25 + 0.75 * 0.5))

    def test_zero_work_counts_as_done(self):
        request = make_request(mem_footprint=100.0, cpu_work=0.0, net_mbits=0.0)
        assert request.resident_memory == 100.0


class TestTransitions:
    def test_assign_only_from_queued(self):
        request = make_request()
        request.assign("c1", 1.0)
        with pytest.raises(WorkloadError):
            request.assign("c2", 2.0)

    def test_overhead_below_one_rejected(self):
        with pytest.raises(WorkloadError):
            make_request().assign("c1", 1.0, overhead_factor=0.9)

    def test_complete_records_response_time(self):
        request = make_request(arrival_time=1.0)
        request.assign("c1", 1.5)
        request.complete(3.0)
        assert request.state is RequestState.SUCCEEDED
        assert request.response_time == pytest.approx(2.0)

    def test_fail_records_reason(self):
        request = make_request()
        request.fail(5.0, FailureReason.REMOVAL)
        assert request.state is RequestState.FAILED
        assert request.failure_reason is FailureReason.REMOVAL

    def test_double_finish_rejected(self):
        request = make_request()
        request.complete(2.0)
        with pytest.raises(WorkloadError):
            request.fail(3.0, FailureReason.CONNECTION)
        with pytest.raises(WorkloadError):
            request.complete(3.0)

    def test_deadline(self):
        request = make_request(arrival_time=10.0, timeout=5.0)
        assert request.deadline() == 15.0

    def test_negative_progress_rejected(self):
        request = make_request()
        request.assign("c1", 1.0)
        with pytest.raises(WorkloadError):
            request.advance(Phase.CPU, -0.1)
        with pytest.raises(WorkloadError):
            request.advance(Phase.NET, -0.1)
