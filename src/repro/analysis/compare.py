"""Multi-run comparison reports.

Bundles one workload's runs under every algorithm into a single object with
the paper's derived quantities (speedups vs. Kubernetes, failure
reductions, availability floor) plus a printable table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.speedup import response_speedup
from repro.errors import ExperimentError
from repro.experiments.report import comparison_table
from repro.metrics.summary import RunSummary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.parallel.result import SweepResult


@dataclass(frozen=True)
class ComparisonReport:
    """All algorithms' results on one workload, plus derived metrics."""

    workload: str
    summaries: dict[str, RunSummary]
    baseline: str = "kubernetes"

    def __post_init__(self) -> None:
        if self.baseline not in self.summaries:
            raise ExperimentError(f"baseline {self.baseline!r} not among runs")

    def speedups(self) -> dict[str, float]:
        """Response-time speedup of each algorithm over the baseline."""
        base = self.summaries[self.baseline]
        return {name: response_speedup(s, base) for name, s in self.summaries.items()}

    def fastest(self) -> str:
        """Algorithm with the lowest user-traffic average response time."""
        return min(self.summaries, key=lambda n: self.summaries[n].user_avg_response_time)

    def most_available(self) -> str:
        """Algorithm with the fewest failed user requests (ties by name)."""
        return min(
            sorted(self.summaries),
            key=lambda n: self.summaries[n].user_percent_failed,
        )

    def availability_floor(self) -> float:
        """Worst user-traffic availability across algorithms (the paper's
        >= 99.8% check applies to Kubernetes/HyScale on CPU loads)."""
        return min(s.user_availability for s in self.summaries.values())

    def to_table(self) -> str:
        """Printable Figures-6-to-8-style table."""
        return comparison_table(self.summaries, title=self.workload)


def compare_runs(workload: str, summaries: dict[str, RunSummary], baseline: str = "kubernetes") -> ComparisonReport:
    """Build a :class:`ComparisonReport`, validating the inputs."""
    if not summaries:
        raise ExperimentError("no runs to compare")
    labels = {s.workload for s in summaries.values()}
    if len(labels) > 1:
        raise ExperimentError(f"runs come from different workloads: {sorted(labels)}")
    return ComparisonReport(workload=workload, summaries=dict(summaries), baseline=baseline)


def compare_sweep(result: SweepResult, baseline: str = "kubernetes") -> dict[str, ComparisonReport]:
    """One :class:`ComparisonReport` per workload label of a sweep result.

    Groups the shards of a :class:`~repro.parallel.SweepResult` by workload
    label and compares the algorithms within each group.  A group that does
    not contain ``baseline`` (e.g. an extensions-only sweep) falls back to
    its first algorithm in shard order, so the report still renders.
    """
    reports: dict[str, ComparisonReport] = {}
    for label, runs in result.by_label().items():
        group_baseline = baseline if baseline in runs else next(iter(runs))
        reports[label] = compare_runs(label, runs, baseline=group_baseline)
    return reports
