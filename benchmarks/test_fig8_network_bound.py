"""Figure 8 — network-bound experiments.

Paper findings (Section VI-A):

* "our network scaling algorithm outperformed the others overall";
* the CPU-driven algorithms "still manage to stay competitive under
  low-burst stable workloads, due to the moderate use of CPU caused by
  networking system calls";
* under high burst "dedicated network scaling shows a clear advantage"
  (response times dropping by up to 59.22 %).

Known deviation (see EXPERIMENTS.md): in our substrate Kubernetes'
accidental horizontal response to syscall CPU keeps it closer to the
network scaler than the paper's testbed showed; the paper's
"Kubernetes slowest" ordering is therefore asserted only against the
dedicated network scaler, not against the hybrids.
"""

import pytest

from benchmarks.conftest import ALL_ALGORITHMS, print_figure
from repro.experiments.configs import BURSTS, network_bound


@pytest.fixture(scope="module")
def runs(run_matrix):
    cells = [network_bound(burst) for burst in BURSTS]
    return dict(zip(BURSTS, run_matrix(cells, ALL_ALGORITHMS)))


@pytest.fixture(scope="module")
def low(runs):
    return runs["low"]


@pytest.fixture(scope="module")
def high(runs):
    return runs["high"]


def test_fig8a_regenerate(low):
    print_figure("Figure 8a: network-bound, low burst", low)


def test_fig8b_regenerate(high):
    print_figure("Figure 8b: network-bound, high burst", high)


def test_fig8_network_scaler_fastest(low, high):
    for runs in (low, high):
        best = min(runs, key=lambda n: runs[n].avg_response_time)
        assert best == "network", f"network scaler must win; got {best}"


def test_fig8_others_competitive_at_low_burst(low):
    """'They still manage to stay competitive under low-burst stable
    workloads' — within ~25 % of the dedicated scaler."""
    reference = low["network"].avg_response_time
    for name in ("kubernetes", "hybrid", "hybridmem"):
        assert low[name].avg_response_time < 1.35 * reference


def test_fig8_network_advantage_grows_with_burst(low, high):
    """The dedicated scaler's edge over the hybrids widens at high burst."""
    def gap(runs):
        return runs["hybrid"].avg_response_time / runs["network"].avg_response_time

    assert gap(high) > gap(low)


def test_fig8_network_scaler_scales_on_bandwidth(high):
    assert high["network"].horizontal_scale_ups > 0
    # The hybrids never add replicas for bandwidth (their signal is CPU).
    assert high["hybrid"].horizontal_scale_ups == 0
