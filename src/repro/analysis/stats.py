"""Multi-seed aggregation — the paper averages every experiment over 5 runs.

:func:`multi_seed` runs one experiment factory under one algorithm for
several seeds and aggregates the figures' y-axes (mean response, failed %)
into mean ± population-std rows, so comparisons can be made the way the
paper made them instead of off a single draw.  Both helpers run their
per-seed shards as one :class:`~repro.experiments.spec.SweepSpec`.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import ExperimentError
from repro.experiments.spec import SweepSpec
from repro.metrics.summary import RunSummary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.configs import ExperimentSpec


@dataclass(frozen=True)
class SeedAggregate:
    """Mean ± std of one algorithm's headline metrics over seeds."""

    algorithm: str
    seeds: tuple[int, ...]
    mean_response: float
    std_response: float
    mean_failed_pct: float
    std_failed_pct: float
    runs: tuple[RunSummary, ...]

    def response_interval(self, sigmas: float = 2.0) -> tuple[float, float]:
        """A +-N-sigma band around the mean response time."""
        return (
            max(0.0, self.mean_response - sigmas * self.std_response),
            self.mean_response + sigmas * self.std_response,
        )


def multi_seed(
    experiment_factory: Callable[[int], "ExperimentSpec"],
    algorithm: str,
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
) -> SeedAggregate:
    """Run ``experiment_factory(seed)`` under ``algorithm`` per seed and aggregate.

    ``experiment_factory`` returns an
    :class:`~repro.experiments.configs.ExperimentSpec` — the canonical
    factories qualify directly (``lambda seed: cpu_bound("high", seed=seed)``).
    The per-seed runs are one serial sweep, so an empty or repeated seed
    list raises :class:`~repro.errors.ExperimentError`.
    """
    runs = _seed_sweep(experiment_factory, (algorithm,), seeds)
    responses = [r.avg_response_time for r in runs]
    failures = [r.percent_failed for r in runs]
    return SeedAggregate(
        algorithm=algorithm,
        seeds=tuple(seeds),
        mean_response=statistics.mean(responses),
        std_response=statistics.pstdev(responses),
        mean_failed_pct=statistics.mean(failures),
        std_failed_pct=statistics.pstdev(failures),
        runs=runs,
    )


def ordering_holds(
    experiment_factory: Callable[[int], "ExperimentSpec"],
    faster: str,
    slower: str,
    seeds: tuple[int, ...] = (0, 1, 2),
) -> bool:
    """True if ``faster`` beats ``slower`` on response time at *every* seed.

    The reproduction's robustness criterion: an ordering that flips under
    reseeding is a coincidence, not a result.  No algorithm beats itself.
    The runs are one serial sweep, like :func:`multi_seed`'s.
    """
    if faster == slower:
        return False
    runs = _seed_sweep(experiment_factory, (faster, slower), seeds)
    return all(
        fast.avg_response_time < slow.avg_response_time
        for fast, slow in zip(runs[::2], runs[1::2])
    )


def _seed_sweep(
    experiment_factory: Callable[[int], "ExperimentSpec"],
    algorithms: tuple[str, ...],
    seeds: tuple[int, ...],
) -> tuple[RunSummary, ...]:
    """Every seed's cell fanned out over ``algorithms`` (shared seed) and run
    as one serial sweep; summaries come back seed-major, in
    ``algorithms`` order within a seed."""
    if not seeds:
        raise ExperimentError("need at least one seed")
    shards = tuple(
        shard
        for seed in seeds
        for shard in experiment_factory(seed).to_sweep(algorithms, seed_mode="shared").shards
    )
    return SweepSpec(shards=shards, seed_mode="shared").run().summaries
