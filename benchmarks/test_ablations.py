"""Ablations of the design choices DESIGN.md calls out.

Not figures from the paper — these isolate the mechanisms the paper argues
for, so a reader can see *why* each knob exists:

* **anti-thrash intervals** (Section IV-A1): disabling the scale-down guard
  makes Kubernetes churn replicas;
* **monitor cadence** (the ElasticDocker critique in Section II-A: unequal
  monitoring periods are unfair): the paper's 5 s period reacts better than
  the Kubernetes 30 s default under bursts;
* **hybrid vs. purely-horizontal and purely-vertical scaling** (Section I's
  central claim): vertical-only hits the single-machine wall, horizontal-
  only pays replication overheads — the hybrid takes both benefits;
* **memory-bound loads** (Section VI): why the paper had to omit Kubernetes
  and HYSCALE_CPU results — memory-blind scaling collapses.
"""

from dataclasses import replace

import pytest

from repro.core.hyscale import HyScaleCpu
from repro.core.hyscale_mem import HyScaleCpuMem
from repro.core.kubernetes import KubernetesHpa
from repro.experiments.configs import cpu_bound, memory_bound
from repro.experiments.report import format_table


@pytest.fixture(scope="module")
def guard_ablation():
    spec = cpu_bound("high")
    guarded = spec.run(KubernetesHpa(scale_up_interval=3.0, scale_down_interval=50.0))
    unguarded = spec.run(KubernetesHpa(scale_up_interval=0.0, scale_down_interval=0.0))
    return guarded, unguarded


def test_ablation_interval_guard(guard_ablation):
    guarded, unguarded = guard_ablation
    print()
    print(
        format_table(
            ["variant", "scale downs", "removal fail %", "avg resp (s)"],
            [
                ["k8s, paper intervals (3s/50s)", str(guarded.horizontal_scale_downs),
                 f"{guarded.percent_removal_failures:.2f}", f"{guarded.avg_response_time:.3f}"],
                ["k8s, no intervals", str(unguarded.horizontal_scale_downs),
                 f"{unguarded.percent_removal_failures:.2f}", f"{unguarded.avg_response_time:.3f}"],
            ],
        )
    )
    # Removing the guard causes scale-down churn (thrashing).
    assert unguarded.horizontal_scale_downs > guarded.horizontal_scale_downs
    assert unguarded.percent_removal_failures >= guarded.percent_removal_failures


@pytest.fixture(scope="module")
def cadence_ablation():
    spec = cpu_bound("high")
    fast = spec.run(HyScaleCpu())
    slow = replace(spec, config=spec.config.with_overrides(monitor_period=30.0)).run(HyScaleCpu())
    return fast, slow


def test_ablation_monitor_cadence(cadence_ablation):
    fast, slow = cadence_ablation
    print()
    print(
        format_table(
            ["monitor period", "avg resp (s)", "p95 (s)", "failed %"],
            [
                ["5 s (paper experiments)", f"{fast.avg_response_time:.3f}",
                 f"{fast.p95_response_time:.3f}", f"{fast.percent_failed:.2f}"],
                ["30 s (Kubernetes default)", f"{slow.avg_response_time:.3f}",
                 f"{slow.p95_response_time:.3f}", f"{slow.percent_failed:.2f}"],
            ],
        )
    )
    # Slower reaction under bursty load costs response time.
    assert fast.avg_response_time < slow.avg_response_time


@pytest.fixture(scope="module")
def hybrid_ablation():
    spec = cpu_bound("high")
    hybrid = spec.run(HyScaleCpu())
    horizontal_only = spec.run(KubernetesHpa())
    # Vertical-only: forbid replication by capping max replicas at the
    # current minimum.
    vertical_specs = tuple(replace(s, max_replicas=s.min_replicas) for s in spec.specs)
    vertical_only = replace(spec, specs=vertical_specs).run(HyScaleCpu())
    return hybrid, horizontal_only, vertical_only


def test_ablation_hybrid_vs_pure_strategies(hybrid_ablation):
    hybrid, horizontal_only, vertical_only = hybrid_ablation
    print()
    print(
        format_table(
            ["strategy", "avg resp (s)", "failed %"],
            [
                ["hybrid (HyScale)", f"{hybrid.avg_response_time:.3f}", f"{hybrid.percent_failed:.2f}"],
                ["horizontal only (K8s)", f"{horizontal_only.avg_response_time:.3f}",
                 f"{horizontal_only.percent_failed:.2f}"],
                ["vertical only", f"{vertical_only.avg_response_time:.3f}",
                 f"{vertical_only.percent_failed:.2f}"],
            ],
        )
    )
    # Section I's claim: the hybrid beats both pure strategies when demand
    # exceeds a single machine (vertical-only hits the wall) and replication
    # carries overheads (horizontal-only pays them).
    assert hybrid.avg_response_time < horizontal_only.avg_response_time
    assert hybrid.avg_response_time < vertical_only.avg_response_time


@pytest.fixture(scope="module")
def memory_crash():
    spec = memory_bound("high")
    blind = spec.run(HyScaleCpu())
    aware = spec.run(HyScaleCpuMem())
    return blind, aware


def test_ablation_memory_bound_omitted_results(memory_crash):
    """Why the paper omits memory-bound results for K8s / HYSCALE_CPU."""
    blind, aware = memory_crash
    print()
    print(
        format_table(
            ["policy", "failed %", "OOM kills", "avg resp (s)"],
            [
                ["hyscale-cpu (memory-blind)", f"{blind.percent_failed:.2f}",
                 str(blind.oom_kills), f"{blind.avg_response_time:.3f}"],
                ["hyscale-cpu+mem", f"{aware.percent_failed:.2f}",
                 str(aware.oom_kills), f"{aware.avg_response_time:.3f}"],
            ],
        )
    )
    assert aware.percent_failed <= blind.percent_failed
    assert aware.oom_kills <= blind.oom_kills


@pytest.fixture(scope="module")
def multimetric_ablation():
    from repro.core.kubernetes_multi import KubernetesMultiMetricHpa
    from repro.experiments.configs import mixed

    spec = mixed("high")
    plain = spec.run(KubernetesHpa())
    multi = spec.run(KubernetesMultiMetricHpa(scale_up_interval=3.0, scale_down_interval=50.0))
    hybridmem = spec.run(HyScaleCpuMem())
    return plain, multi, hybridmem


def test_ablation_multimetric_kubernetes(multimetric_ablation):
    """Section II-B's critique, measured: the beta multi-metric HPA (largest
    metric wins) improves on CPU-only Kubernetes for mixed loads, but —
    still horizontal-only — keeps dropping requests the hybrid serves."""
    plain, multi, hybridmem = multimetric_ablation
    print()
    print(
        format_table(
            ["policy", "avg resp (s)", "failed %", "scale ups"],
            [
                ["kubernetes (cpu only)", f"{plain.avg_response_time:.3f}",
                 f"{plain.percent_failed:.2f}", str(plain.horizontal_scale_ups)],
                ["kubernetes-multi (cpu+mem, beta rule)", f"{multi.avg_response_time:.3f}",
                 f"{multi.percent_failed:.2f}", str(multi.horizontal_scale_ups)],
                ["hyscale cpu+mem (hybrid)", f"{hybridmem.avg_response_time:.3f}",
                 f"{hybridmem.percent_failed:.2f}", str(hybridmem.horizontal_scale_ups)],
            ],
        )
    )
    # Seeing memory helps the HPA...
    assert multi.percent_failed <= plain.percent_failed
    # ...but the hybrid still wins on failures with a fraction of the churn.
    assert hybridmem.percent_failed < multi.percent_failed
    assert hybridmem.horizontal_scale_ups < multi.horizontal_scale_ups / 2
