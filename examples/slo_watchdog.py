"""SLO watchdog: burn-rate alerts over a Bitbrains replay.

Streams live telemetry while replaying a synthetic GWA-T-12 Bitbrains
trace under HyScale_CPU+Mem, with an aggressive SLA attached so the spiky
trace actually burns error budget.  The :class:`repro.telemetry.SloTracker`
evaluates the classic SRE multiwindow rules (a fast page and a slow
ticket) every sampling interval; alert transitions are deterministic,
sim-timestamped events, printed here as the watchdog's incident log.

Demonstrates the full telemetry surface in ~80 lines: a recording
:class:`~repro.telemetry.MetricRegistry`, SLO burn-rate tracking, the
``top``-style frame renderer, and the OpenMetrics/JSONL exporters.

Run with::

    python examples/slo_watchdog.py
"""

from repro import Observe, Simulation, SimulationConfig, Sla
from repro.cluster import MicroserviceSpec
from repro.config import ClusterConfig
from repro.telemetry import (
    BurnWindow,
    MetricRegistry,
    SloTracker,
    render_openmetrics,
    render_top,
    snapshot_to_jsonl,
)
from repro.workloads import generate_bitbrains_trace
from repro.workloads.bitbrains import bitbrains_service_loads


def main() -> None:
    trace = generate_bitbrains_trace(n_vms=60, duration=420.0, interval=10.0, seed=7)
    loads = bitbrains_service_loads(trace, n_services=3, base_rate=10.0)
    specs = [
        MicroserviceSpec(
            name=load.service,
            cpu_request=0.5,
            mem_limit=512.0,
            net_rate=50.0,
            min_replicas=1,
            max_replicas=4,
            target_utilization=0.5,
            profile="mixed",
        )
        for load in loads
    ]

    # A tight SLA (1.5 s target, 99 % availability) plus short horizons:
    # the spiky trace will overrun the target and burn budget visibly.
    sla = Sla(response_time_target=1.5, availability_target=0.99)
    registry = MetricRegistry()
    slo = SloTracker(
        sla,
        windows=(
            BurnWindow(name="fast", horizon=60.0, threshold=10.0),
            BurnWindow(name="slow", horizon=240.0, threshold=4.0),
        ),
    )

    sim = Simulation.build(
        config=SimulationConfig(cluster=ClusterConfig(worker_nodes=4), seed=7),
        specs=specs,
        loads=loads,
        policy="hybridmem",
        workload_label="slo-watchdog",
        observe=Observe(telemetry=registry, slo=slo),
    )
    summary = sim.run(duration=420.0)
    now = sim.engine.clock.now

    print(render_top(registry, now=now, slo=slo, title="slo-watchdog"))

    print("incident log (burn-rate alert transitions):")
    alerts = slo.alerts()
    for alert in alerts:
        print(
            f"  t={alert.time:6.1f}s  {alert.service:<14} {alert.window:<5} "
            f"{alert.state.upper():<9} burn={alert.burn_rate:6.2f} (threshold {alert.threshold})"
        )
    if not alerts:
        print("  (no alerts fired — loosen the SLA to see the watchdog bite)")

    fired = sum(1 for a in alerts if a.state == "firing")
    exposition = render_openmetrics(registry)
    snapshot = snapshot_to_jsonl(registry, now=now, alerts=alerts)
    print()
    print(f"requests handled : {summary.total_requests}")
    print(f"alerts fired     : {fired}")
    print(f"openmetrics      : {len(exposition.splitlines())} lines (# EOF terminated)")
    print(f"jsonl snapshot   : {len(snapshot.splitlines())} lines, schema repro.telemetry/1")


if __name__ == "__main__":
    main()
