"""Shared helpers for the figure-regeneration benchmarks.

Each benchmark module regenerates one table or figure from the paper:
it runs the experiment(s), prints the same rows/series the paper reports
(visible with ``pytest benchmarks/ -s`` or in the captured output), and
asserts the published *shape* — orderings and rough factors, not absolute
numbers (our substrate is a simulator, the authors' was a 24-node
testbed).  The suite is plain pytest: no timing plugin is needed.

Registered-policy comparisons go through :func:`run_matrix`, one shared-seed
:class:`~repro.experiments.spec.SweepSpec` per call, run on every CPU of the
host and cached for the session, so a (cell, algorithm) pair that two
modules compare runs once.  A run that needs a policy object uses
:meth:`~repro.experiments.configs.ExperimentSpec.run`; one that needs the
:class:`~repro.experiments.runner.Simulation` itself builds it with
``spec.to_run_spec(name).build()``.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

import pytest

from repro.experiments.configs import ExperimentSpec
from repro.experiments.spec import SweepSpec
from repro.metrics.summary import RunSummary

#: The three algorithms the paper's Figures 6-7 compare (the network scaler
#: is evaluated on network-bound loads, Figure 8).
CORE_ALGORITHMS = ("kubernetes", "hybrid", "hybridmem")
ALL_ALGORITHMS = ("kubernetes", "hybrid", "hybridmem", "network")


@pytest.fixture(scope="session")
def run_matrix(tmp_path_factory) -> Callable[..., list[dict[str, RunSummary]]]:
    """Run cells under registered algorithms: one dict per cell, by name.

    Every (cell, algorithm) pair is one shard of a single shared-seed sweep
    (each algorithm replays the cell's own arrival sequence, as
    ``ExperimentSpec.run`` would), run with one worker per CPU through a
    shard cache that lives for the pytest session.
    """
    cache_dir = tmp_path_factory.mktemp("shards")

    def run(
        cells: Sequence[ExperimentSpec], algorithms: Sequence[str] = CORE_ALGORITHMS
    ) -> list[dict[str, RunSummary]]:
        shards = tuple(
            shard
            for cell in cells
            for shard in cell.to_sweep(tuple(algorithms), seed_mode="shared").shards
        )
        result = SweepSpec(shards=shards, seed_mode="shared").run(
            parallel=os.cpu_count() or 1, cache_dir=cache_dir
        )
        summaries = iter(result.summaries)
        return [{name: next(summaries) for name in algorithms} for _ in cells]

    return run


def print_figure(title: str, summaries: dict[str, RunSummary]) -> None:
    """Emit the paper-style comparison table for one figure."""
    from repro.experiments.report import comparison_table

    print()
    print(comparison_table(summaries, title=title))
