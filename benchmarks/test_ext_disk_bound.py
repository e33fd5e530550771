"""Extension — disk-bound experiments (the paper's declared future work).

Section VI: "Additional computing resource types, such as disk I/O, are
also supported, however, they are not currently implemented and will be
part of future works."  We implement the axis (DESIGN.md §8) and evaluate
it with the paper's own method: the same fleet under every algorithm, low
and high burst.

Expected shape, by the same physics as Figure 8: spindle bandwidth grows
only by replication across machines, and a request waiting on disk burns no
CPU — so CPU-driven scalers are blind, and the dedicated disk scaler wins
under burst.
"""

import pytest

from benchmarks.conftest import print_figure
from repro.experiments.configs import BURSTS, disk_bound

ALGORITHMS = ("kubernetes", "hybrid", "hybridmem", "disk")


@pytest.fixture(scope="module")
def runs(run_matrix):
    return dict(zip(BURSTS, run_matrix([disk_bound(burst) for burst in BURSTS], ALGORITHMS)))


@pytest.fixture(scope="module")
def low(runs):
    return runs["low"]


@pytest.fixture(scope="module")
def high(runs):
    return runs["high"]


def test_ext_disk_low_regenerate(low):
    print_figure("Extension: disk-bound, low burst", low)
    # Everyone copes while a single spindle covers the stable load.
    worst = max(s.avg_response_time for s in low.values())
    best = min(s.avg_response_time for s in low.values())
    assert worst < 2.0 * best


def test_ext_disk_high_regenerate(high):
    print_figure("Extension: disk-bound, high burst", high)
    # The dedicated scaler must clearly beat the vertical-first hybrids.
    assert high["disk"].avg_response_time < high["hybrid"].avg_response_time
    assert high["disk"].avg_response_time < high["hybridmem"].avg_response_time


def test_ext_disk_hybrids_blind(high):
    """Vertical scaling cannot add spindles; the hybrids never scale out."""
    assert high["hybrid"].horizontal_scale_ups == 0
    assert high["disk"].horizontal_scale_ups > 0


def test_ext_disk_advantage_grows_with_burst(low, high):
    def gap(runs):
        return runs["hybrid"].avg_response_time / runs["disk"].avg_response_time

    assert gap(high) > gap(low)
