"""Tests for speedup arithmetic and comparison reports."""

import pytest

from repro.analysis.compare import ComparisonReport, compare_runs
from repro.analysis.speedup import (
    crossover_replicas,
    failure_reduction,
    response_drop_percent,
    response_speedup,
    speedup_matrix,
    taper_point,
)
from repro.errors import ExperimentError
from repro.experiments.section3 import ScalingPoint
from repro.metrics.collector import MetricsCollector
from repro.metrics.summary import RunSummary
from repro.workloads.requests import FailureReason, Request


def summary(algorithm: str, rt: float, failed: int = 0, total: int = 100, workload="w") -> RunSummary:
    collector = MetricsCollector()
    for _ in range(total - failed):
        request = Request(service="s", arrival_time=0.0, cpu_work=0.1)
        request.complete(rt)
        collector.record_request(request)
    for _ in range(failed):
        request = Request(service="s", arrival_time=0.0, cpu_work=0.1)
        request.fail(rt, FailureReason.CONNECTION)
        collector.record_request(request)
    return RunSummary.from_collector(collector, algorithm=algorithm, workload=workload, duration=60.0)


class TestSpeedups:
    def test_response_speedup(self):
        assert response_speedup(summary("h", 1.0), summary("k", 1.49)) == pytest.approx(1.49)

    def test_response_drop_percent(self):
        # The paper's 59.22 % drop corresponds to a 2.45x speedup.
        drop = response_drop_percent(summary("n", 1.0), summary("k", 2.4522))
        assert drop == pytest.approx(59.22, abs=0.1)

    def test_failure_reduction(self):
        assert failure_reduction(summary("h", 1.0, failed=1), summary("k", 1.0, failed=10)) == pytest.approx(10.0)

    def test_failure_reduction_infinite_when_perfect(self):
        assert failure_reduction(summary("h", 1.0, failed=0), summary("k", 1.0, failed=5)) == float("inf")

    def test_failure_reduction_one_when_both_perfect(self):
        assert failure_reduction(summary("h", 1.0), summary("k", 1.0)) == 1.0

    def test_speedup_matrix(self):
        runs = {"kubernetes": summary("kubernetes", 2.0), "hybrid": summary("hybrid", 1.0)}
        matrix = speedup_matrix(runs)
        assert matrix["hybrid"] == pytest.approx(2.0)
        assert matrix["kubernetes"] == pytest.approx(1.0)

    def test_missing_baseline_rejected(self):
        with pytest.raises(ExperimentError):
            speedup_matrix({"hybrid": summary("hybrid", 1.0)})


class TestCurveAnalysis:
    def curve(self, times):
        return [
            ScalingPoint(replicas=n, avg_response_time=t, completed=1, failed=0)
            for n, t in zip((1, 2, 4, 8, 16), times)
        ]

    def test_crossover(self):
        a = self.curve([10, 10, 10, 10, 10])
        b = self.curve([20, 15, 9, 5, 4])
        assert crossover_replicas(a, b) == 4

    def test_no_crossover(self):
        a = self.curve([1, 1, 1, 1, 1])
        b = self.curve([2, 2, 2, 2, 2])
        assert crossover_replicas(a, b) is None

    def test_taper_point(self):
        # Gains: 20 %, 15 %, 6 %, 3 % -> taper (below 10 %) at 8 replicas.
        curve = self.curve([100, 80, 68, 64, 62])
        assert taper_point(curve, threshold=0.10) == 8

    def test_no_taper(self):
        curve = self.curve([100, 50, 25, 12, 6])
        assert taper_point(curve, threshold=0.10) is None


class TestComparisonReport:
    def runs(self):
        return {
            "kubernetes": summary("kubernetes", 2.0, failed=10),
            "hybrid": summary("hybrid", 1.4, failed=1),
            "hybridmem": summary("hybridmem", 1.3, failed=0),
        }

    def test_fastest_and_most_available(self):
        report = compare_runs("w", self.runs())
        assert report.fastest() == "hybridmem"

    def test_speedups_vs_baseline(self):
        report = compare_runs("w", self.runs())
        assert report.speedups()["hybrid"] == pytest.approx(2.0 / 1.4)

    def test_table_renders(self):
        text = compare_runs("w", self.runs()).to_table()
        assert "kubernetes" in text and "avg resp" in text

    def test_mismatched_workloads_rejected(self):
        runs = self.runs()
        runs["other"] = summary("other", 1.0, workload="different")
        with pytest.raises(ExperimentError):
            compare_runs("w", runs)

    def test_missing_baseline_rejected(self):
        with pytest.raises(ExperimentError):
            ComparisonReport("w", {"hybrid": summary("hybrid", 1.0)})

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            compare_runs("w", {})
