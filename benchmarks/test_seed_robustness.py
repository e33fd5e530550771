"""Seed robustness — the headline orderings are not one lucky draw.

The paper averages each experiment over 5 runs; we check that the Figure 6
orderings (hybrids faster than Kubernetes, hybrids failing less) hold for
every seed in a small sweep, and that the speedup's spread is sane.
"""

import statistics

import pytest

from repro.analysis.speedup import response_speedup
from repro.experiments.configs import cpu_bound

SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def sweep(run_matrix):
    cells = [cpu_bound("high", seed=seed) for seed in SEEDS]
    return dict(zip(SEEDS, run_matrix(cells, ("kubernetes", "hybrid"))))


def test_seed_robustness_regenerate(sweep):
    speedups = []
    print()
    for seed, runs in sorted(sweep.items()):
        speedup = response_speedup(runs["hybrid"], runs["kubernetes"])
        speedups.append(speedup)
        print(
            f"seed {seed}: k8s rt={runs['kubernetes'].avg_response_time:.3f}s "
            f"fail={runs['kubernetes'].percent_failed:.2f}% | "
            f"hybrid rt={runs['hybrid'].avg_response_time:.3f}s "
            f"fail={runs['hybrid'].percent_failed:.2f}% | speedup {speedup:.2f}x"
        )
    mean = statistics.mean(speedups)
    spread = max(speedups) - min(speedups)
    print(f"mean speedup {mean:.2f}x, spread {spread:.2f}")
    # The ordering holds for every seed, not just the default one.
    assert all(s > 1.1 for s in speedups)


def test_seed_robustness_failures(sweep):
    for seed, runs in sweep.items():
        assert runs["hybrid"].percent_failed <= runs["kubernetes"].percent_failed, (
            f"failure ordering flipped at seed {seed}"
        )


def test_seed_robustness_arrivals_differ(sweep):
    totals = {runs["hybrid"].total_requests for runs in sweep.values()}
    assert len(totals) == len(SEEDS), "seeds must produce distinct workloads"
