"""The whole evaluation in one call.

:func:`reproduce_evaluation` runs every Section VI experiment (Figures
6-8 and 10) under the algorithms the paper compares and returns the
results keyed by figure; :func:`render_reproduction` prints them with the
paper's qualitative claims alongside, so ``hyscale-repro reproduce`` gives
a one-command answer to "does this repo reproduce the paper?".

The Section III microbenchmarks (Figures 2-3) are included as curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.speedup import response_speedup
from repro.experiments.configs import bitbrains, cpu_bound, mixed, network_bound
from repro.experiments.report import comparison_table, scaling_curve_table
from repro.experiments.spec import RunSpec, SweepSpec
from repro.experiments.section3 import (
    ScalingPoint,
    cpu_scaling_curve,
    network_scaling_curve,
)
from repro.metrics.summary import RunSummary

#: Figure id -> (spec factory, algorithms the paper compares on it).
FIGURES: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "fig6a": (lambda seed: cpu_bound("low", seed=seed), ("kubernetes", "hybrid", "hybridmem")),
    "fig6b": (lambda seed: cpu_bound("high", seed=seed), ("kubernetes", "hybrid", "hybridmem")),
    "fig7a": (lambda seed: mixed("low", seed=seed), ("kubernetes", "hybrid", "hybridmem")),
    "fig7b": (lambda seed: mixed("high", seed=seed), ("kubernetes", "hybrid", "hybridmem")),
    "fig8a": (
        lambda seed: network_bound("low", seed=seed),
        ("kubernetes", "hybrid", "hybridmem", "network"),
    ),
    "fig8b": (
        lambda seed: network_bound("high", seed=seed),
        ("kubernetes", "hybrid", "hybridmem", "network"),
    ),
    "fig10": (lambda seed: bitbrains(seed=seed), ("kubernetes", "hybrid", "hybridmem")),
}

#: Figure id -> the claim printed next to the results.
CLAIMS: dict[str, str] = {
    "fig6a": "paper: hybrids fastest (1.49x over K8s), K8s slowest, >=99.8% availability",
    "fig6b": "paper: hybrids fastest (1.43x over K8s), up to 10x fewer failures",
    "fig7a": "paper: K8s beats HYSCALE_CPU (accidental memory); hybridmem best",
    "fig7b": "paper: memory-blind algorithms drop up to 23.67% of requests",
    "fig8a": "paper: everyone competitive at low burst (syscall CPU proxy)",
    "fig8b": "paper: dedicated network scaling clearly best (up to 59.22% drop)",
    "fig10": "paper: hybridmem best; K8s outperforms HYSCALE_CPU",
}


@dataclass(frozen=True)
class ReproductionResult:
    """Everything :func:`reproduce_evaluation` produced."""

    figures: dict[str, dict[str, RunSummary]]
    fig2: list[ScalingPoint]
    fig3: list[ScalingPoint]

    def speedup(self, figure: str, candidate: str, baseline: str = "kubernetes") -> float:
        """Convenience: response speedup within one figure's runs."""
        runs = self.figures[figure]
        return response_speedup(runs[candidate], runs[baseline])


def reproduce_evaluation(
    seed: int = 0,
    figures: tuple[str, ...] | None = None,
    progress: Callable[[str], None] | None = None,
    *,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> ReproductionResult:
    """Run the paper's evaluation matrix (or a subset of figure ids).

    The matrix is assembled into one :class:`SweepSpec` (seed mode
    ``"shared"`` — the paper replays the identical arrival sequence under
    every algorithm) and executed by the parallel sweep executor:
    ``jobs`` worker processes, optionally resumable via the
    content-addressed shard cache at ``cache_dir``.  Results are
    byte-identical for any ``jobs``.
    """
    selected = figures or tuple(FIGURES)
    unknown = set(selected) - set(FIGURES)
    if unknown:
        raise KeyError(f"unknown figure ids: {sorted(unknown)}; known: {sorted(FIGURES)}")

    shards: list[RunSpec] = []
    figure_of: dict[str, str] = {}
    for figure in selected:
        factory, algorithms = FIGURES[figure]
        for shard in factory(seed).to_sweep(algorithms, seed_mode="shared").shards:
            shards.append(shard)
            figure_of[shard.key] = figure

    def _report(shard: RunSpec, status: str) -> None:
        if progress is None or status == "done":
            return
        suffix = " (cached)" if status == "cached" else ""
        progress(f"{figure_of[shard.key]}: {shard.label} under {shard.policy}{suffix}")

    sweep = SweepSpec(shards=tuple(shards), seed_mode="shared")
    outcome = sweep.run(parallel=jobs, cache_dir=cache_dir, progress=_report)

    results: dict[str, dict[str, RunSummary]] = {figure: {} for figure in selected}
    for shard, summary in outcome.shards():
        results[figure_of[shard.key]][shard.policy] = summary

    if progress:
        progress("fig2: CPU horizontal scaling curve")
    fig2 = cpu_scaling_curve()
    if progress:
        progress("fig3: network horizontal scaling curve")
    fig3 = network_scaling_curve()
    return ReproductionResult(figures=results, fig2=fig2, fig3=fig3)


def render_reproduction(result: ReproductionResult) -> str:
    """The full evaluation as text, claims alongside measurements."""
    blocks = [
        scaling_curve_table(result.fig2, title="Figure 2: CPU horizontal scaling"),
        "",
        scaling_curve_table(result.fig3, title="Figure 3: network horizontal scaling"),
    ]
    for figure in sorted(result.figures):
        runs = result.figures[figure]
        blocks.append("")
        blocks.append(comparison_table(runs, title=f"{figure} — {CLAIMS.get(figure, '')}"))
        if "kubernetes" in runs:
            for name, summary in sorted(runs.items()):
                if name != "kubernetes":
                    speedup = response_speedup(summary, runs["kubernetes"])
                    blocks.append(f"  {name} vs kubernetes: {speedup:.2f}x")
    return "\n".join(blocks)
