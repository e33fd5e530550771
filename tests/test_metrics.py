"""Tests for the metrics collector, SLA accounting, and run summaries."""

import pytest

from repro.errors import ExperimentError
from repro.metrics.collector import MetricsCollector, TimelinePoint
from repro.metrics.sla import Sla, evaluate_sla
from repro.metrics.summary import RunSummary
from repro.workloads.requests import FailureReason, Request


def finished_request(service="svc", rt=1.0, fail: FailureReason | None = None) -> Request:
    request = Request(service=service, arrival_time=0.0, cpu_work=0.1)
    if fail is None:
        request.complete(rt)
    else:
        request.fail(rt, fail)
    return request


class TestCollector:
    def test_counts_by_outcome(self):
        collector = MetricsCollector()
        collector.record_request(finished_request())
        collector.record_request(finished_request(fail=FailureReason.REMOVAL))
        collector.record_request(finished_request(fail=FailureReason.CONNECTION))
        assert collector.total_requests == 3
        assert collector.total_completed == 1
        assert collector.total_removal_failures == 1
        assert collector.total_connection_failures == 1

    def test_response_times_only_for_completed(self):
        collector = MetricsCollector()
        collector.record_request(finished_request(rt=2.0))
        collector.record_request(finished_request(fail=FailureReason.REMOVAL))
        assert collector.all_response_times() == [2.0]

    def test_unfinished_rejected(self):
        collector = MetricsCollector()
        with pytest.raises(ExperimentError):
            collector.record_request(Request(service="s", arrival_time=0.0))

    def test_per_service_stats(self):
        collector = MetricsCollector()
        collector.record_requests([finished_request("a"), finished_request("b")])
        assert collector.service_names() == ["a", "b"]
        assert collector.service_stats("a").completed == 1
        with pytest.raises(ExperimentError):
            collector.service_stats("ghost")

    def test_scaling_counters(self):
        collector = MetricsCollector()
        collector.record_vertical(3)
        collector.record_scale_up()
        collector.record_scale_down(2)
        collector.record_oom()
        assert collector.vertical_scale_ops == 3
        assert collector.horizontal_scale_ups == 1
        assert collector.horizontal_scale_downs == 2
        assert collector.oom_kills == 1

    def test_timeline_ordering_enforced(self):
        collector = MetricsCollector()
        point = TimelinePoint(5.0, 1, 0, 0, 0, 0, 0, 0)
        collector.sample_timeline(point)
        with pytest.raises(ExperimentError):
            collector.sample_timeline(TimelinePoint(1.0, 1, 0, 0, 0, 0, 0, 0))


class TestSla:
    def test_report_counts(self):
        collector = MetricsCollector()
        collector.record_request(finished_request(rt=1.0))
        collector.record_request(finished_request(rt=10.0))  # slow
        collector.record_request(finished_request(fail=FailureReason.CONNECTION))
        report = evaluate_sla(collector, Sla(response_time_target=5.0))
        assert report.total_requests == 3
        assert report.slow_requests == 1
        assert report.failed_requests == 1
        assert report.violations == 2
        assert report.adherence == pytest.approx(1 / 3)

    def test_availability(self):
        collector = MetricsCollector()
        for _ in range(999):
            collector.record_request(finished_request())
        collector.record_request(finished_request(fail=FailureReason.REMOVAL))
        report = evaluate_sla(collector, Sla(availability_target=0.998))
        assert report.availability == pytest.approx(0.999)
        assert report.availability_met

    def test_penalty(self):
        collector = MetricsCollector()
        collector.record_request(finished_request(fail=FailureReason.REMOVAL))
        report = evaluate_sla(collector, Sla(penalty_per_violation=0.5))
        assert report.total_penalty == 0.5

    def test_empty_run_is_perfect(self):
        report = evaluate_sla(MetricsCollector(), Sla())
        assert report.availability == 1.0
        assert report.adherence == 1.0

    def test_validation(self):
        with pytest.raises(ExperimentError):
            Sla(response_time_target=0.0)
        with pytest.raises(ExperimentError):
            Sla(availability_target=0.0)
        with pytest.raises(ExperimentError):
            Sla(penalty_per_violation=-1.0)


class TestRunSummary:
    def make_summary(self) -> RunSummary:
        collector = MetricsCollector()
        for rt in (1.0, 2.0, 3.0):
            collector.record_request(finished_request(rt=rt))
        collector.record_request(finished_request(fail=FailureReason.REMOVAL))
        collector.record_scale_up(5)
        return RunSummary.from_collector(
            collector, algorithm="hybrid", workload="test", duration=100.0
        )

    def test_percentages(self):
        summary = self.make_summary()
        assert summary.total_requests == 4
        assert summary.percent_failed == pytest.approx(25.0)
        assert summary.percent_removal_failures == pytest.approx(25.0)
        assert summary.percent_connection_failures == 0.0
        assert summary.availability == pytest.approx(0.75)

    def test_response_statistics(self):
        summary = self.make_summary()
        assert summary.avg_response_time == pytest.approx(2.0)
        assert summary.p50_response_time == pytest.approx(2.0)

    def test_as_row_fields(self):
        row = self.make_summary().as_row()
        assert row["algorithm"] == "hybrid"
        assert row["failed_pct"] == 25.0
        assert row["scale_ups"] == 5

    def test_per_service_summaries(self):
        summary = self.make_summary()
        assert len(summary.services) == 1
        assert summary.services[0].percent_failed == pytest.approx(25.0)

    def test_empty_run(self):
        summary = RunSummary.from_collector(
            MetricsCollector(), algorithm="x", workload="w", duration=1.0
        )
        assert summary.percent_failed == 0.0
        assert summary.availability == 1.0


class TestSerialization:
    def make_summary(self) -> RunSummary:
        collector = MetricsCollector()
        collector.record_request(finished_request(rt=1.5))
        collector.record_request(finished_request(fail=FailureReason.REMOVAL))
        collector.sample_timeline(TimelinePoint(0.0, 1, 0.5, 1.0, 100.0, 200.0, 5.0, 2, 1, 3))
        collector.record_scale_up(2)
        return RunSummary.from_collector(collector, algorithm="hybrid", workload="w", duration=60.0)

    def test_json_round_trip(self):
        original = self.make_summary()
        restored = RunSummary.from_json(original.to_json())
        assert restored == original

    def test_dict_round_trip_preserves_nested(self):
        original = self.make_summary()
        restored = RunSummary.from_dict(original.to_dict())
        assert restored.services == original.services
        assert restored.timeline == original.timeline
        assert restored.percent_failed == original.percent_failed

    def test_json_is_plain_text(self):
        import json

        payload = json.loads(self.make_summary().to_json())
        assert payload["algorithm"] == "hybrid"
        assert isinstance(payload["timeline"], list)

    def test_from_dict_accepts_archived_timelines_without_cost_fields(self):
        payload = self.make_summary().to_dict()
        for point in payload["timeline"]:
            for name in ("active_nodes", "total_nodes", "window_avg_response", "window_completed", "window_failed"):
                del point[name]
        (point,) = RunSummary.from_dict(payload).timeline
        assert point.total_replicas == 1 and point.active_nodes == 0

    @pytest.mark.parametrize(
        ("mutate", "named"),
        [
            (lambda d: [d], "got list"),
            (lambda d: {k: v for k, v in d.items() if k != "oom_kills"}, "missing field 'oom_kills'"),
            (lambda d: {**d, "speed": 1.0}, "unknown field 'speed'"),
            (lambda d: {**d, "services": {"svc": 1}}, "services must be a JSON list"),
            (lambda d: {**d, "services": [{"service": "svc"}]}, "services[0] is missing field 'completed'"),
            (lambda d: {**d, "timeline": [7]}, "timeline[0] must be a JSON object"),
            (lambda d: {**d, "app": "three-tier"}, "app must be a JSON object"),
        ],
        ids=["not-an-object", "missing", "unknown", "services-not-a-list", "bad-service", "bad-point", "bad-app"],
    )
    def test_from_dict_names_the_bad_field(self, mutate, named):
        with pytest.raises(ExperimentError, match=named.replace("[", r"\[").replace("]", r"\]")):
            RunSummary.from_dict(mutate(self.make_summary().to_dict()))


class TestServicePercentiles:
    def make_summary(self) -> RunSummary:
        collector = MetricsCollector()
        for rt in (1.0, 2.0, 3.0, 4.0, 5.0):
            collector.record_request(finished_request("svc", rt=rt))
        return RunSummary.from_collector(collector, algorithm="a", workload="w", duration=10.0)

    def test_service_summary_carries_p50_and_p99(self):
        (svc,) = self.make_summary().services
        assert svc.p50_response_time == pytest.approx(3.0)
        assert svc.p95_response_time >= svc.p50_response_time
        assert svc.p99_response_time >= svc.p95_response_time

    def test_from_dict_accepts_archived_summaries_without_percentiles(self):
        # Summaries serialized before p50/p99 existed must still load.
        payload = self.make_summary().to_dict()
        for service in payload["services"]:
            del service["p50_response_time"]
            del service["p99_response_time"]
        restored = RunSummary.from_dict(payload)
        (svc,) = restored.services
        assert svc.p50_response_time == 0.0
        assert svc.p99_response_time == 0.0


class TestSlaNoTraffic:
    def test_zero_traffic_run_is_flagged(self):
        report = evaluate_sla(MetricsCollector(), Sla())
        assert report.no_traffic is True
        # Still "perfect" numerically — the flag is what distinguishes
        # "met the SLA" from "nothing happened".
        assert report.availability == 1.0

    def test_traffic_clears_the_flag(self):
        collector = MetricsCollector()
        collector.record_request(finished_request())
        report = evaluate_sla(collector, Sla())
        assert report.no_traffic is False
