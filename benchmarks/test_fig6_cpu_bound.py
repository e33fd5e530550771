"""Figure 6 — CPU-bound experiments: % failed and average response times.

Paper findings (Section VI-A):

* "HYSCALE_CPU+Mem has the fastest response times overall, while Kubernetes
  has the slowest" — 1.49x / 1.43x speedups at low / high burst;
* "HYSCALE drastically lowers the number of failed requests (up to 10 times
  fewer compared to Kubernetes)";
* availability stays high throughout ("at least 99.8 % up-time").
"""

import pytest

from benchmarks.conftest import print_figure
from repro.analysis.speedup import response_speedup
from repro.experiments.configs import BURSTS, cpu_bound


@pytest.fixture(scope="module")
def runs(run_matrix):
    return dict(zip(BURSTS, run_matrix([cpu_bound(burst) for burst in BURSTS])))


@pytest.fixture(scope="module")
def low(runs):
    return runs["low"]


@pytest.fixture(scope="module")
def high(runs):
    return runs["high"]


def test_fig6a_regenerate(low):
    print_figure("Figure 6a: CPU-bound, low burst", low)
    assert low["hybrid"].avg_response_time < low["kubernetes"].avg_response_time
    assert low["hybridmem"].avg_response_time < low["kubernetes"].avg_response_time


def test_fig6b_regenerate(high):
    print_figure("Figure 6b: CPU-bound, high burst", high)
    assert high["hybrid"].avg_response_time < high["kubernetes"].avg_response_time


@pytest.mark.parametrize("burst", ["low", "high"])
def test_fig6_hybrids_beat_kubernetes(burst, low, high):
    runs = low if burst == "low" else high
    for hybrid in ("hybrid", "hybridmem"):
        speedup = response_speedup(runs[hybrid], runs["kubernetes"])
        assert speedup > 1.15, (
            f"{hybrid} must beat kubernetes on CPU-bound {burst} burst "
            f"(paper: 1.49x/1.43x); got {speedup:.2f}x"
        )


@pytest.mark.parametrize("burst", ["low", "high"])
def test_fig6_hybrids_fail_less(burst, low, high):
    runs = low if burst == "low" else high
    for hybrid in ("hybrid", "hybridmem"):
        assert runs[hybrid].percent_failed <= runs["kubernetes"].percent_failed


def test_fig6_availability_high(low, high):
    """HyScale maintains the paper's >= 99.8 % availability on CPU loads."""
    for runs in (low, high):
        for name in ("hybrid", "hybridmem"):
            assert runs[name].availability >= 0.998


def test_fig6_speedup_roughly_matches_paper(high):
    """High-burst speedup lands in the right regime (paper: 1.43x)."""
    speedup = response_speedup(high["hybrid"], high["kubernetes"])
    assert 1.15 <= speedup <= 4.0
