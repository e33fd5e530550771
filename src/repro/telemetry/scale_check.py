"""Self-contained monitoring-scale validation (``make telemetry-scale``).

Checks the scalable-monitoring contract end to end:

1. **Fidelity** — at every scale point each sampling policy (``full``,
   ``adaptive``, ``threshold-aware``) produces the **same simulation**:
   summary dicts and scaling-event streams are byte-compared against the
   ``full`` reference.  Sampling is observation-only; the acceptance gate
   requires zero diverging scaling actions at the paper's 24-node scale
   (and this harness asserts it at every scale).
2. **Cost** — the steady-state observation cost charged by the
   :class:`~repro.telemetry.cost.ObservationCostModel` over the measured
   window is compared per policy; the acceptance criterion — ``adaptive``
   at 1,000 nodes collects at >= 5x less simulated cost than ``full`` —
   is asserted.
3. **Export locality** — a sharded registry at bench scale is exported
   twice: the full merged snapshot versus a single shard.  A single
   shard must cost time proportional to the series it touches (within a
   2x slack factor), evidencing O(series touched) exports.

Writes a machine-readable report (default ``BENCH_telemetry_scale.json``
— uploaded as a CI artifact next to the other BENCH files).  Exits
non-zero on any failed check.

Run directly::

    PYTHONPATH=src python -m repro.telemetry.scale_check --out BENCH_telemetry_scale.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cluster import MicroserviceSpec
from repro.cluster.node import Node
from repro.cluster.placement import PlacementStrategy
from repro.cluster.resources import ResourceVector
from repro.config import ClusterConfig, SimulationConfig
from repro.experiments.runner import Simulation
# A *reference* to the profiler's timer (never a module-level wall-clock
# call): timing here measures exporter throughput, not simulated behaviour.
from repro.obs.profiler import DEFAULT_TIMER
from repro.telemetry.registry import MetricRegistry
from repro.telemetry.sharding import ShardedMetricRegistry, merge_shard_snapshots
from repro.telemetry.snapshot import snapshot_to_jsonl
from repro.workloads import CPU_BOUND, HighBurstLoad, ServiceLoad

#: Sampling policies swept at every scale point (``full`` is the reference).
POLICIES = ("full", "adaptive", "threshold-aware")

#: Bench fleet shape: (worker nodes, fill services, replicas each).  One
#: hot bursty service on a sea of quiet fill replicas, sized at ~18
#: containers per node so the quiet majority is *observably* quiet: idle
#: usage is fixed per container (``container_background_cpu`` cores,
#: ``container_base_memory`` MiB), and 18 of them put a node at cpu ~0.09 /
#: memory ~0.33 — outside the default guard band on every axis.  A monitoring bench whose fill
#: nodes are parked inside the band would (correctly) never decay.
SCALES = (
    (24, 12, 36),
    (200, 20, 180),
    (1000, 100, 180),
)

#: Telemetry pull cadence for the bench (simulated seconds).
SAMPLE_EVERY = 2.0

#: Untimed sim-seconds before the measured window: long enough for boots
#: to finish, boot-churn hot windows to lapse, and quiet nodes to decay
#: to their steady-state cadence (max_backoff intervals).
WARMUP_DURATION = 30.0

#: Measured sim-seconds per scale point.
BENCH_DURATIONS = {24: 60.0, 200: 60.0, 1000: 40.0}

#: Acceptance criteria.
COST_REDUCTION_THRESHOLD = 5.0
DIVERGENCE_NODES = 24

#: Export-locality probe shape and slack.
EXPORT_SHARDS = 8
EXPORT_NODES = 2500
EXPORT_CAPTURES = 16
EXPORT_SLACK = 2.0


class _RoundRobinPlacement(PlacementStrategy):
    """O(1)-amortized deterministic spread: first fit from a moving cursor."""

    def __init__(self) -> None:
        self._cursor = 0

    def choose(
        self,
        nodes: list[Node],
        request: ResourceVector,
        *,
        exclude_service: str | None = None,
    ) -> Node | None:
        count = len(nodes)
        for probe in range(count):
            node = nodes[(self._cursor + probe) % count]
            if node.can_fit(request):
                self._cursor = (self._cursor + probe + 1) % count
                return node
        return None

    def rank(self, candidates: list[Node], request: ResourceVector) -> Node:
        return candidates[0]


# ----------------------------------------------------------------------
# Policy sweep (fidelity + observation cost)
# ----------------------------------------------------------------------
def _scale_simulation(policy: str, nodes: int, fill_services: int, replicas: int) -> Simulation:
    config = SimulationConfig(cluster=ClusterConfig(worker_nodes=nodes), seed=7)
    specs = [
        MicroserviceSpec(
            name="hot", cpu_request=0.5, mem_limit=512.0, net_rate=50.0, max_replicas=16
        )
    ]
    loads = [
        ServiceLoad(
            service="hot",
            profile=CPU_BOUND,
            pattern=HighBurstLoad(base=4.0, peak=14.0, period=40.0, duty=0.4),
        )
    ]
    for i in range(fill_services):
        specs.append(
            MicroserviceSpec(
                name=f"fill-{i:03d}",
                cpu_request=0.05,
                mem_limit=128.0,
                net_rate=1.0,
                min_replicas=replicas,
                max_replicas=replicas,
            )
        )
    return Simulation.build(
        config=config,
        specs=specs,
        loads=loads,
        policy="hybrid",
        workload_label="telemetry-scale",
        placement=_RoundRobinPlacement(),
        telemetry=MetricRegistry(),
        timeline_every=SAMPLE_EVERY,
        sampling=policy,
    )


def _run_policy(policy: str, nodes: int, fill_services: int, replicas: int) -> dict:
    """One warmed-up run; returns artefacts plus the window's cost delta."""
    duration = BENCH_DURATIONS[nodes]
    simulation = _scale_simulation(policy, nodes, fill_services, replicas)
    simulation.run(WARMUP_DURATION)
    controller = simulation.telemetry.sampling
    warm_cost = controller.budget.collection_cost_seconds
    warm_observed = controller.budget.nodes_observed
    warm_skipped = controller.budget.nodes_skipped
    started = DEFAULT_TIMER()
    summary = simulation.run(duration)
    wall = DEFAULT_TIMER() - started
    budget = controller.budget
    return {
        "policy": policy,
        "summary": summary.to_dict(),
        "events": list(simulation.collector.events.events()),
        "budget": budget.to_dict(),
        "window_cost_seconds": round(budget.collection_cost_seconds - warm_cost, 9),
        "window_nodes_observed": budget.nodes_observed - warm_observed,
        "window_nodes_skipped": budget.nodes_skipped - warm_skipped,
        "staleness_bound_seconds": controller.max_staleness(),
        "wall_seconds": round(wall, 6),
        "containers": sum(
            len(node.containers) for node in simulation.cluster.nodes.values()
        ),
    }


def _sweep_scale(nodes: int, fill_services: int, replicas: int, checks: dict[str, bool]) -> dict:
    point: dict = {
        "nodes": nodes,
        "warmup": WARMUP_DURATION,
        "window": BENCH_DURATIONS[nodes],
        "sample_every": SAMPLE_EVERY,
        "policies": {},
    }
    reference: dict | None = None
    for policy in POLICIES:
        result = _run_policy(policy, nodes, fill_services, replicas)
        if reference is None:
            reference = result
            point["containers"] = result["containers"]
        diverging = sum(
            1 for a, b in zip(result["events"], reference["events"]) if a != b
        ) + abs(len(result["events"]) - len(reference["events"]))
        summary_identical = result["summary"] == reference["summary"]
        reduction = (
            round(reference["window_cost_seconds"] / result["window_cost_seconds"], 4)
            if result["window_cost_seconds"] > 0
            else None
        )
        point["policies"][policy] = {
            "budget": result["budget"],
            "window_cost_seconds": result["window_cost_seconds"],
            "window_nodes_observed": result["window_nodes_observed"],
            "window_nodes_skipped": result["window_nodes_skipped"],
            "staleness_bound_seconds": result["staleness_bound_seconds"],
            "wall_seconds": result["wall_seconds"],
            "scaling_events": len(result["events"]),
            "diverging_events": diverging,
            "summary_identical": summary_identical,
            "cost_reduction_vs_full": reduction,
        }
        checks[f"fidelity_{nodes}_{policy}"] = summary_identical and diverging == 0
    return point


# ----------------------------------------------------------------------
# Export locality (sharded snapshots are O(series touched))
# ----------------------------------------------------------------------
def _export_probe() -> dict:
    """Time a full merged export against a single-shard export."""
    registry = ShardedMetricRegistry(shards=EXPORT_SHARDS)
    cpu = registry.gauge("node_cpu_utilization_ratio", "bench", labels=("node",))
    mem = registry.gauge("node_memory_utilization_ratio", "bench", labels=("node",))
    starts = registry.counter("container_starts", "bench", labels=("node",))
    for i in range(EXPORT_NODES):
        node = f"worker-{i:04d}"
        cpu.labels(node=node).set(i / EXPORT_NODES)
        mem.labels(node=node).set(1.0 - i / EXPORT_NODES)
        starts.labels(node=node).inc(i % 7)
    for tick in range(EXPORT_CAPTURES):
        registry.capture(float(tick))  # lint: disable=OBS002(bench primes a synthetic registry outside any run)
    now = float(EXPORT_CAPTURES - 1)

    started = DEFAULT_TIMER()
    merged = merge_shard_snapshots(
        [registry.shard_snapshot(i, now=now) for i in range(EXPORT_SHARDS)]
    )
    full_seconds = DEFAULT_TIMER() - started

    started = DEFAULT_TIMER()
    single = registry.shard_snapshot(0, now=now)
    single_seconds = DEFAULT_TIMER() - started

    total_series = sum(len(family) for family in registry.families())
    shard_series = sum(len(family) for family in registry.shards[0].families())
    touched_fraction = shard_series / total_series if total_series else 0.0
    time_fraction = single_seconds / full_seconds if full_seconds > 0 else None
    return {
        "shards": EXPORT_SHARDS,
        "series": total_series,
        "shard_series": shard_series,
        "captures": EXPORT_CAPTURES,
        "merged_lines": len(merged),
        "single_shard_lines": len(single),
        "full_export_seconds": round(full_seconds, 6),
        "single_shard_seconds": round(single_seconds, 6),
        "touched_fraction": round(touched_fraction, 6),
        "time_fraction": round(time_fraction, 6) if time_fraction is not None else None,
        "slack": EXPORT_SLACK,
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run_check(out: Path) -> int:
    """Run the policy sweep and export probe, validate, write the report."""
    checks: dict[str, bool] = {}

    scale_points = []
    for nodes, fill_services, replicas in SCALES:
        scale_points.append(_sweep_scale(nodes, fill_services, replicas, checks))

    divergence_point = next(p for p in scale_points if p["nodes"] == DIVERGENCE_NODES)
    checks[f"divergence_zero_{DIVERGENCE_NODES}"] = all(
        entry["diverging_events"] == 0 for entry in divergence_point["policies"].values()
    )

    top = scale_points[-1]
    adaptive_reduction = top["policies"]["adaptive"]["cost_reduction_vs_full"]
    checks["adaptive_cost_reduction_1000_at_least_5x"] = (
        adaptive_reduction is not None and adaptive_reduction >= COST_REDUCTION_THRESHOLD
    )

    export = _export_probe()
    checks["sharded_export_o_series_touched"] = (
        export["time_fraction"] is not None
        and export["time_fraction"] <= export["touched_fraction"] * EXPORT_SLACK
    )

    report = {
        "schema": "repro.telemetry-scale/1",
        "policies": list(POLICIES),
        "sample_every": SAMPLE_EVERY,
        "cost_reduction_threshold": COST_REDUCTION_THRESHOLD,
        "scales": scale_points,
        "export": export,
        "checks": checks,
        "ok": all(checks.values()),
    }
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    for name, passed in sorted(checks.items()):
        print(f"  {'PASS' if passed else 'FAIL'}  {name}")
    print(
        f"telemetry-scale: {len(POLICIES)} policies, zero divergence at "
        f"{DIVERGENCE_NODES} nodes, x{adaptive_reduction} cheaper collection at "
        f"{top['nodes']} nodes ({top['containers']} containers) -> {out}"
    )
    return 0 if report["ok"] else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point for ``python -m repro.telemetry.scale_check``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_telemetry_scale.json"),
        help="report path (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    return run_check(args.out)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
