"""Figure 3 — response times of horizontal scaling for the network tests.

Paper finding (Section III-C): with a fixed 100 Mbit/s total allocation
shaped by tc, vertical network scaling changes nothing, but horizontal
scaling over more machines relieves tx-queue contention — "a large decrease
in execution time ... tapering off at around 8 replicas".
"""

import pytest

from repro.analysis.speedup import taper_point
from repro.experiments.report import scaling_curve_table
from repro.experiments.section3 import network_scaling_curve

REPLICA_COUNTS = (1, 2, 4, 8, 16)


@pytest.fixture(scope="module")
def curve():
    return network_scaling_curve(REPLICA_COUNTS)


def test_fig3_regenerate(curve):
    print()
    print(
        scaling_curve_table(
            curve, title="Figure 3: network horizontal scaling (100 Mbit/s total, net-stress co-tenant)"
        )
    )
    assert all(p.failed == 0 for p in curve)


def test_fig3_execution_time_decreases(curve):
    times = [p.avg_response_time for p in curve]
    assert times == sorted(times, reverse=True), "Figure 3 shape: time must fall with replicas"


def test_fig3_tapers_around_eight(curve):
    """The marginal gain drops below 10 % somewhere in the 8-16 range."""
    taper = taper_point(curve, threshold=0.10)
    assert taper in (8, 16)


def test_fig3_total_gain_is_significant(curve):
    by_replicas = {p.replicas: p.avg_response_time for p in curve}
    assert by_replicas[1] / by_replicas[16] > 1.3
