"""Platform ablations: placement and routing choices.

Two knobs the paper's platform fixes implicitly, isolated here:

* **Placement** — Section I frames packing as the power lever ("Increasing
  the efficiency of resource utilization on each machine, while minimizing
  the number of machines used, presents another way to lower the overall
  power consumption cost", immediately warning that ignoring machine limits
  "can lead to overloaded machines").  Bin-packing vs. spreading is exactly
  that trade: fewer powered machines vs. co-location contention.
* **Routing** — vertical scaling creates *heterogeneous* replicas (one fat,
  one thin).  Round-robin sends them equal traffic and drowns the thin one;
  the platform defaults to capacity-weighted routing for this reason.
"""

from dataclasses import replace

import pytest

from repro.cluster.placement import BinPackPlacement, SpreadPlacement
from repro.experiments.configs import cpu_bound
from repro.experiments.report import format_table
from repro.metrics import Sla
from repro.metrics.costs import evaluate_costs
from repro.platform.load_balancer import RoutingPolicy


def run_variant(placement=None, routing=RoutingPolicy.WEIGHTED_CPU, algorithm="hybrid"):
    shard = replace(cpu_bound("high").to_run_spec(algorithm), routing=routing)
    simulation = shard.build(placement=placement)
    summary = simulation.run(shard.duration)
    costs = evaluate_costs(simulation.collector, Sla(response_time_target=8.0))
    return summary, costs


@pytest.fixture(scope="module")
def placement_runs():
    return {
        "spread": run_variant(placement=SpreadPlacement()),
        "binpack": run_variant(placement=BinPackPlacement()),
    }


@pytest.fixture(scope="module")
def routing_runs():
    return {
        "weighted": run_variant(routing=RoutingPolicy.WEIGHTED_CPU),
        "round-robin": run_variant(routing=RoutingPolicy.ROUND_ROBIN),
        "least-outstanding": run_variant(routing=RoutingPolicy.LEAST_OUTSTANDING),
    }


def test_ablation_placement(placement_runs):
    rows = []
    for name, (summary, costs) in sorted(placement_runs.items()):
        rows.append(
            [
                name,
                f"{summary.avg_response_time:.3f}",
                f"{summary.percent_failed:.2f}",
                f"{costs.node_hours:.2f}",
                f"{costs.energy_kwh:.3f}",
            ]
        )
    print()
    print("Placement ablation (HyScale, CPU-bound high burst)")
    print(format_table(["placement", "avg resp (s)", "failed %", "node-h", "kWh"], rows))

    spread_summary, spread_costs = placement_runs["spread"]
    binpack_summary, binpack_costs = placement_runs["binpack"]
    # The Section I trade-off: packing powers fewer machine-hours...
    assert binpack_costs.node_hours <= spread_costs.node_hours + 1e-9
    # ...while spreading serves at least as fast (less co-location).
    assert spread_summary.avg_response_time <= binpack_summary.avg_response_time * 1.05


def test_ablation_routing(routing_runs):
    rows = [
        [name, f"{s.avg_response_time:.3f}", f"{s.p95_response_time:.2f}", f"{s.percent_failed:.2f}"]
        for name, (s, _) in sorted(routing_runs.items())
    ]
    print()
    print("Routing ablation (HyScale, CPU-bound high burst)")
    print(format_table(["routing", "avg resp (s)", "p95 (s)", "failed %"], rows))

    weighted = routing_runs["weighted"][0]
    rr = routing_runs["round-robin"][0]
    # Heterogeneous replicas make capacity-blind round-robin slower.
    assert weighted.avg_response_time < rr.avg_response_time


def test_ablation_routing_tail(routing_runs):
    """Round-robin's damage concentrates in the tail (the thin replica's
    queue), not only the mean."""
    weighted = routing_runs["weighted"][0]
    rr = routing_runs["round-robin"][0]
    assert weighted.p95_response_time <= rr.p95_response_time
