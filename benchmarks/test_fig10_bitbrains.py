"""Figure 10 — request statistics for the Bitbrains experiment.

Paper findings (Section VI-B):

* "HYSCALE_CPU+Mem performs the best because of its ability to scale both
  CPU and memory";
* "Kubernetes, however, outperformed the HYSCALE_CPU because of its
  preference to horizontally scale ... Kubernetes' horizontal scaling
  actions inadvertently allocated more memory to each replica".
"""

import pytest

from benchmarks.conftest import print_figure
from repro.experiments.configs import bitbrains


@pytest.fixture(scope="module")
def runs(run_matrix):
    [runs] = run_matrix([bitbrains()])
    return runs


def test_fig10_regenerate(runs):
    print_figure("Figure 10: Bitbrains Rnd replay", runs)


def test_fig10_hybridmem_best(runs):
    """Fewest failures outright; response competitive with the best.

    (At default scale hybridmem is also the outright fastest; at paper
    scale Kubernetes' surviving-request mean can edge ahead *because* it
    drops its slow requests, so the response comparison allows a small
    factor while the failure comparison stays strict.)"""
    assert runs["hybridmem"].percent_failed <= min(
        runs["kubernetes"].percent_failed, runs["hybrid"].percent_failed
    )
    best_rt = min(runs["kubernetes"].avg_response_time, runs["hybrid"].avg_response_time)
    assert runs["hybridmem"].avg_response_time <= 1.5 * best_rt


def test_fig10_kubernetes_outperforms_hybrid_cpu(runs):
    """The paper's second finding: K8s' accidental memory provisioning beats
    HYSCALE_CPU's vertical preference on this mixed trace — visible as a
    much lower failure rate (timed-out / dropped requests)."""
    assert runs["kubernetes"].percent_failed < runs["hybrid"].percent_failed


def test_fig10_hybrid_memory_blindness_visible(runs):
    assert runs["hybrid"].percent_failed > 2.0
