"""Figure 7 — mixed CPU+memory experiments.

Paper findings (Section VI-A):

* "Kubernetes and HYSCALE_CPU showed significant percentages of failed
  requests, mainly due to the lack of consideration for memory usage";
* Figure 7a ("interesting observation"): Kubernetes beats HYSCALE_CPU at low
  burst — horizontal scale-outs *accidentally* add memory, while
  HYSCALE_CPU's vertical preference leaves its replicas swapping;
* Figure 7b: response times of the memory-blind algorithms are "skewed"
  because they effectively handle fewer requests ("up to 23.67 % less");
* HYSCALE_CPU+Mem is the only algorithm that stays healthy on both axes.
"""

import pytest

from benchmarks.conftest import print_figure
from repro.experiments.configs import BURSTS, mixed


@pytest.fixture(scope="module")
def runs(run_matrix):
    return dict(zip(BURSTS, run_matrix([mixed(burst) for burst in BURSTS])))


@pytest.fixture(scope="module")
def low(runs):
    return runs["low"]


@pytest.fixture(scope="module")
def high(runs):
    return runs["high"]


def test_fig7a_regenerate(low):
    print_figure("Figure 7a: mixed CPU+memory, low burst", low)


def test_fig7b_regenerate(high):
    print_figure("Figure 7b: mixed CPU+memory, high burst", high)


def test_fig7a_kubernetes_beats_hybrid_cpu(low):
    """The paper's 'interesting observation' at low burst."""
    assert low["kubernetes"].avg_response_time < low["hybrid"].avg_response_time


def test_fig7_hybridmem_fails_least(low, high):
    for runs in (low, high):
        assert runs["hybridmem"].percent_failed <= min(
            runs["kubernetes"].percent_failed, runs["hybrid"].percent_failed
        )


def test_fig7b_memory_blind_drop_requests(high):
    """Figure 7b's 'significant difference in failed requests': the
    memory-blind hybrid drops a large share (paper: up to 23.67 % fewer
    requests effectively handled)."""
    assert high["hybrid"].percent_failed > 10.0
    assert high["hybridmem"].percent_failed < 5.0


def test_fig7b_failure_gap_vs_7a(low, high):
    """'Note the significant difference in failed requests between 7a and
    7b' (the figure caption)."""
    assert high["hybrid"].percent_failed > low["hybrid"].percent_failed


def test_fig7_hybridmem_competitive_response(low, high):
    """HYSCALE_CPU+Mem stays within a small factor of Kubernetes' response
    time at both bursts — while, unlike Kubernetes, dropping (almost) no
    requests.  (At default scale it is outright faster at low burst; at
    paper scale, where Kubernetes sheds more of its slow requests, the
    honest-response comparison narrows to a near-tie.)"""
    assert low["hybridmem"].avg_response_time < 1.5 * low["kubernetes"].avg_response_time
    assert high["hybridmem"].avg_response_time < 1.5 * high["kubernetes"].avg_response_time
    assert low["hybridmem"].percent_failed <= low["kubernetes"].percent_failed
    assert high["hybridmem"].percent_failed <= high["kubernetes"].percent_failed
