"""Extension — the ElasticDocker comparator and the paper's fairness critique.

Section II-A: ElasticDocker (vertical scaling + live migration) was "shown
to outperform Kubernetes by 37.63%.  The main flaw with this solution is
the difference in monitoring and scaling periods between ElasticDocker and
Kubernetes.  ElasticDocker polls resource usage and scales every 4 seconds,
while Kubernetes scales every 30 seconds, giving ElasticDocker an unfair
advantage to react to fluctuating workloads more quickly."

Having implemented the comparator (:mod:`repro.core.elasticdocker`), we can
*quantify* that critique:

1. replicate the original claim — ElasticDocker@4s vs Kubernetes@30s on a
   load that fits single machines: a large win;
2. level the periods at the paper's 5 s: the win shrinks — part of
   ElasticDocker's reported advantage was the measurement setup;
3. and the paper's own point: HyScale's hybrid beats ElasticDocker anyway,
   because vertical scaling plus migration still cannot exceed one
   machine's capacity.
"""

from dataclasses import replace

import pytest

from repro.analysis.speedup import response_speedup
from repro.experiments.configs import cpu_bound
from repro.experiments.report import format_table

#: Monitor period (s) -> the algorithms compared at that period.
PERIODS = {
    4.0: ("elasticdocker",),
    30.0: ("kubernetes",),
    5.0: ("elasticdocker", "kubernetes", "hybrid"),
}


def at_period(period):
    spec = cpu_bound("low")
    return replace(
        spec,
        label=f"{spec.label}@{period:.0f}s",
        config=spec.config.with_overrides(monitor_period=period),
    )


@pytest.fixture(scope="module")
def fairness_matrix(run_matrix):
    matrix = {}
    for period, algorithms in PERIODS.items():
        [runs] = run_matrix([at_period(period)], algorithms)
        matrix.update({f"{name}@{period:.0f}s": summary for name, summary in runs.items()})
    return matrix


def test_ext_elasticdocker_regenerate(fairness_matrix):
    m = fairness_matrix
    unfair = response_speedup(m["elasticdocker@4s"], m["kubernetes@30s"])
    fair = response_speedup(m["elasticdocker@5s"], m["kubernetes@5s"])
    hyscale = response_speedup(m["hybrid@5s"], m["elasticdocker@5s"])
    print()
    print(
        format_table(
            ["comparison", "paper says", "measured"],
            [
                ["ED@4s vs K8s@30s (their setup)", "37.63 % better (1.60x)", f"{unfair:.2f}x"],
                ["ED@5s vs K8s@5s (fair periods)", "'unfair advantage' removed", f"{fair:.2f}x"],
                ["HyScale vs ED, equal periods", "hybrid should win", f"{hyscale:.2f}x"],
            ],
        )
    )
    print()
    print(
        format_table(
            ["run", "avg resp (s)", "failed %", "vertical ops", "migrations incl."],
            [
                [name, f"{s.avg_response_time:.3f}", f"{s.percent_failed:.2f}",
                 str(s.vertical_scale_ops), "-"]
                for name, s in sorted(fairness_matrix.items())
            ],
        )
    )
    # The original claim reproduces under the original (unfair) setup...
    assert unfair > 1.2
    # ...and HyScale still beats the vertical-only comparator when fair.
    assert hyscale > 1.0


def test_ext_elasticdocker_fairness_gap(fairness_matrix):
    """Part of ElasticDocker's reported edge came from the period mismatch:
    levelling the periods must shrink its advantage."""
    m = fairness_matrix
    unfair = response_speedup(m["elasticdocker@4s"], m["kubernetes@30s"])
    fair = response_speedup(m["elasticdocker@5s"], m["kubernetes@5s"])
    assert fair < unfair


def test_ext_elasticdocker_is_vertical_only(fairness_matrix):
    for name, summary in fairness_matrix.items():
        if name.startswith("elasticdocker"):
            assert summary.horizontal_scale_ups == 0
            assert summary.horizontal_scale_downs == 0
