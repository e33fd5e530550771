"""Figure 2 — response times of horizontal scaling for the CPU tests.

Paper finding (Section III-A): with total resources held constant, response
times *increase* with the number of replicas — ~17 % co-location contention,
per-replica application (JVM) overhead, and a logarithmic cross-node
distribution cost — while the equivalent vertical allocation shows
negligible overhead.
"""

import pytest

from repro.experiments.report import scaling_curve_table
from repro.experiments.section3 import cpu_scaling_curve

REPLICA_COUNTS = (1, 2, 4, 8, 16)


@pytest.fixture(scope="module")
def curve():
    return cpu_scaling_curve(REPLICA_COUNTS)


def test_fig2_regenerate(curve):
    """Regenerate and print the Figure 2 series."""
    print()
    print(scaling_curve_table(curve, title="Figure 2: CPU horizontal scaling (640 requests, stress co-tenant)"))
    assert all(p.completed == 640 for p in curve)


def test_fig2_response_grows_with_replicas(curve):
    times = [p.avg_response_time for p in curve]
    assert times == sorted(times), "Figure 2 shape: response must grow with replica count"


def test_fig2_replication_cost_is_material(curve):
    by_replicas = {p.replicas: p.avg_response_time for p in curve}
    # The paper's 16-replica deployment is dramatically slower than 1.
    assert by_replicas[16] > 1.5 * by_replicas[1]


def test_fig2_growth_is_sublinear(curve):
    """'A logarithmic increase with the number of replicas': doubling the
    replica count must not double the response time."""
    by_replicas = {p.replicas: p.avg_response_time for p in curve}
    for small, big in ((1, 2), (2, 4), (4, 8), (8, 16)):
        assert by_replicas[big] < 2.0 * by_replicas[small]
