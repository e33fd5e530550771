"""Self-contained application-graph validation (``make app-bench``).

Checks the back-pressure direction of the canonical three-tier app
(frontend -> api -> 2x db) end to end under the ``hybrid`` policy, at the
paper's cluster shape (24 machines: 19 workers + 5 load balancers):
capping the db tier's replicas turns it into a bottleneck whose damage
must surface *upstream* — the ingress (frontend) end-to-end latency and
failure rate must degrade monotonically as the cap tightens.  This is the
observable the whole AppRequest lifecycle exists to produce.

Writes a machine-readable report (default ``BENCH_app_graph.json`` —
uploaded as a CI artifact next to the other BENCH files).  Exits non-zero
on any failed check.

Run directly::

    PYTHONPATH=src python -m repro.experiments.app_check --out BENCH_app_graph.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.config import ClusterConfig, SimulationConfig
from repro.experiments.runner import Simulation
from repro.metrics.sla import Sla, evaluate_sla
from repro.metrics.summary import RunSummary
from repro.workloads import CPU_BOUND, LowBurstLoad, ServiceLoad, three_tier_app

#: Paper testbed shape: 19 worker nodes (24 machines minus 5 LBs).
WORKER_NODES = 19

#: Simulated seconds per probe run.
DURATION = 150.0

#: Ingress load on the frontend tier (req/s, +/-30 % swell).
INGRESS_RATE = 8.0

#: db replica caps for the back-pressure staircase, loosest first.
DB_CAPS = (16, 2, 1)

#: End-to-end response-time target the staircase is scored against.  The
#: headline observable is the *violation rate* — ingress requests that
#: failed or blew the target — because completed-only latency collapses
#: once timeouts dominate (the survivors are the fast requests).
SLA_TARGET_S = 8.0


def _build(db_max_replicas: int) -> Simulation:
    app = three_tier_app(db_max_replicas=db_max_replicas)
    return Simulation.build(
        config=SimulationConfig(cluster=ClusterConfig(worker_nodes=WORKER_NODES), seed=7),
        loads=[
            ServiceLoad(
                service="frontend",
                profile=CPU_BOUND,
                pattern=LowBurstLoad(base=INGRESS_RATE, amplitude=0.3, period=120.0),
            )
        ],
        policy="hybrid",
        workload_label="app-check/three-tier",
        app=app,
    )


def _run_summary(db_max_replicas: int) -> tuple[RunSummary, float]:
    """One probe run; returns (summary, ingress SLO-violation percentage)."""
    simulation = _build(db_max_replicas)
    simulation.run(DURATION)
    sla_report = evaluate_sla(simulation.collector, Sla(response_time_target=SLA_TARGET_S))
    violation_pct = 100.0 * (1.0 - sla_report.adherence)
    return simulation.summary(), violation_pct


def _app_row(summary: RunSummary) -> dict:
    """The ingress-view numbers a degradation staircase is judged on."""
    app = summary.app
    assert app is not None  # graph runs always carry the ingress block
    return {
        "ingress_requests": app.ingress_requests,
        "internal_requests": app.internal_requests,
        "avg_response_s": round(app.avg_response_time, 6),
        "p95_response_s": round(app.p95_response_time, 6),
        "p99_response_s": round(app.p99_response_time, 6),
        "failed_pct": round(app.percent_failed, 6),
    }


def run_check(out: Path) -> int:
    """Execute every check, write the report, return a process exit code."""
    checks: dict[str, bool] = {}

    staircase = []
    for cap in DB_CAPS:
        summary, violation_pct = _run_summary(cap)
        staircase.append(
            {
                "db_max_replicas": cap,
                "slo_violation_pct": round(violation_pct, 6),
                **_app_row(summary),
            }
        )
    degraded = all(
        later["slo_violation_pct"] >= earlier["slo_violation_pct"]
        for earlier, later in zip(staircase, staircase[1:])
    )
    measurable = staircase[-1]["slo_violation_pct"] > staircase[0]["slo_violation_pct"]
    checks["backpressure_monotone"] = degraded
    checks["backpressure_measurable"] = measurable

    report = {
        "schema": "repro.app-check/2",
        "worker_nodes": WORKER_NODES,
        "duration": DURATION,
        "ingress_rate": INGRESS_RATE,
        "sla_target_s": SLA_TARGET_S,
        "db_caps": list(DB_CAPS),
        "backpressure": staircase,
        "checks": checks,
        "ok": all(checks.values()),
    }
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    for name, passed in sorted(checks.items()):
        print(f"  {'PASS' if passed else 'FAIL'}  {name}")
    healthy, capped = staircase[0], staircase[-1]
    print(
        f"app-bench: three-tier at {WORKER_NODES} workers; capping db "
        f"{DB_CAPS[0]} -> {DB_CAPS[-1]} moved ingress SLO violations "
        f"{healthy['slo_violation_pct']:.2f}% -> {capped['slo_violation_pct']:.2f}% "
        f"(failures {healthy['failed_pct']:.2f}% -> {capped['failed_pct']:.2f}%) -> {out}"
    )
    return 0 if report["ok"] else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point for ``python -m repro.experiments.app_check``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_app_graph.json"),
        help="report path (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    return run_check(args.out)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
