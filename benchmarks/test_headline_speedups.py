"""The paper's headline numbers (abstract + Section VI), side by side.

"Results indicated up to 1.49x speedups in response times for our hybrid
algorithms, and 1.69x speedups for our network algorithm under high-burst
network loads" — plus the 10x failure reduction and >= 99.8 % availability.

This benchmark aggregates the whole evaluation matrix and prints our
measured counterparts next to the published values.  The Figure 6 and
Figure 8 runs come from the session's shard cache when those modules ran
first.
"""

import pytest

from benchmarks.conftest import ALL_ALGORITHMS
from repro.analysis.speedup import failure_reduction, response_speedup
from repro.experiments.configs import BURSTS, cpu_bound, network_bound
from repro.experiments.report import format_table


@pytest.fixture(scope="module")
def cpu_runs(run_matrix):
    return dict(zip(BURSTS, run_matrix([cpu_bound(burst) for burst in BURSTS])))


@pytest.fixture(scope="module")
def net_runs(run_matrix):
    cells = [network_bound(burst) for burst in BURSTS]
    return dict(zip(BURSTS, run_matrix(cells, ALL_ALGORITHMS)))


def test_headline_table(cpu_runs, net_runs):
    rows = []
    for burst, paper in (("low", 1.49), ("high", 1.43)):
        best = max(
            response_speedup(cpu_runs[burst][h], cpu_runs[burst]["kubernetes"])
            for h in ("hybrid", "hybridmem")
        )
        rows.append([f"hybrid speedup, CPU {burst}-burst", f"{paper:.2f}x", f"{best:.2f}x"])

    net_speedup = response_speedup(
        net_runs["high"]["network"], net_runs["high"]["hybrid"]
    )
    rows.append(["network speedup vs others, high burst", "1.69x", f"{net_speedup:.2f}x"])

    reduction = failure_reduction(
        cpu_runs["low"]["hybrid"], cpu_runs["low"]["kubernetes"]
    )
    rows.append(
        ["failure reduction vs K8s, CPU", "up to 10x", "inf" if reduction == float("inf") else f"{reduction:.1f}x"]
    )

    availability = min(
        cpu_runs[burst][name].availability
        for burst in ("low", "high")
        for name in ("hybrid", "hybridmem")
    )
    rows.append(["HyScale availability floor, CPU", ">= 99.8 %", f"{100 * availability:.2f} %"])

    print()
    print(format_table(["headline metric", "paper", "measured"], rows))


def test_hybrid_speedups_reproduce(cpu_runs):
    for burst in ("low", "high"):
        speedup = max(
            response_speedup(cpu_runs[burst][h], cpu_runs[burst]["kubernetes"])
            for h in ("hybrid", "hybridmem")
        )
        assert speedup > 1.2, f"CPU {burst}-burst hybrid speedup collapsed: {speedup:.2f}x"


def test_network_speedup_reproduces(net_runs):
    """The dedicated scaler clearly beats the hybrids at high burst."""
    speedup = response_speedup(net_runs["high"]["network"], net_runs["high"]["hybrid"])
    assert speedup > 1.1


def test_failure_reduction_reproduces(cpu_runs):
    for burst in ("low", "high"):
        reduction = failure_reduction(
            cpu_runs[burst]["hybrid"], cpu_runs[burst]["kubernetes"]
        )
        assert reduction >= 5.0 or reduction == float("inf")
