"""A ``top``-style plain-text dashboard over the live metric registry.

:func:`render_top` formats one frame — cluster header, per-node gauges,
per-service traffic with histogram-estimated latency quantiles, and SLO
burn-rate state — purely from registry contents, so frames are themselves
deterministic text.  :func:`run_top` drives a built simulation interval by
interval and writes a frame per interval, tolerating a closed pipe
(``hyscale-repro top | head`` must exit cleanly, not stack-trace).

Rates shown in frames are computed from the series rings written by
``MetricRegistry.capture`` — the dashboard never keeps state of its own.
"""

from __future__ import annotations

from typing import IO, Iterable

from repro.telemetry.instruments import Counter, Gauge, Histogram
from repro.telemetry.registry import MetricRegistry
from repro.telemetry.slo import SloTracker

#: Trailing window used for the dashboard's rate columns (sim seconds).
RATE_WINDOW = 30.0


def series_rate(child: Counter, now: float, window: float = RATE_WINDOW) -> float:
    """Per-second increase of a counter over its trailing ring window."""
    base_time = None
    base_value = 0.0
    cutoff = now - window
    for time, value in child.history:
        if time > cutoff + 1e-9:
            break
        base_time, base_value = time, value
    if base_time is None:
        # Ring starts inside the window: rate since the start of the run.
        base_time = 0.0
    elapsed = now - base_time
    if elapsed <= 0:
        return 0.0
    return (child.value - base_value) / elapsed


def _scalar(registry: MetricRegistry, name: str, *values: str) -> float:
    family = registry.get(name)
    if family is None:
        return 0.0
    child = family.peek(*values)
    if child is None:
        return 0.0
    if isinstance(child, Histogram):
        return float(child.count)
    return child.value


def _children(registry: MetricRegistry, name: str) -> Iterable[tuple[tuple[str, ...], object]]:
    family = registry.get(name)
    if family is None:
        return ()
    return family.children()


def _bar(fraction: float, width: int = 10) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def render_top(
    registry: MetricRegistry,
    *,
    now: float,
    slo: SloTracker | None = None,
    title: str = "",
    max_nodes: int | None = None,
) -> str:
    """One dashboard frame as plain text (no ANSI codes).

    ``max_nodes`` caps the node panel at the K busiest nodes — ranked by
    their binding resource (the max of cpu/mem/net utilization), ties
    broken by name — with a trailing ``(+N more nodes)`` line.  ``None``
    (the default) renders every node in registration order, which keeps
    small-fleet frames byte-identical to the pre-``max_nodes`` dashboard.
    """
    _check_max_nodes(max_nodes)
    lines: list[str] = []
    header = f"hyscale-repro top — t={now:.1f}s"
    if title:
        header += f" — {title}"
    lines.append(header)
    lines.append(
        "steps={:.0f}  routed={:.0f}  rejected={:.0f}  backlog={:.0f}  oom={:.0f}".format(
            _scalar(registry, "sim_steps"),
            _scalar(registry, "lb_requests_routed"),
            _scalar(registry, "lb_requests_rejected"),
            _scalar(registry, "lb_backlog_requests"),
            _scalar(registry, "oom_kills"),
        )
    )
    lines.append(
        "scaling: ticks={:.0f} emitted={:.0f} applied={:.0f} failed={:.0f}".format(
            _scalar(registry, "monitor_ticks"),
            _scalar(registry, "monitor_actions_emitted"),
            _scalar(registry, "monitor_actions_applied"),
            _scalar(registry, "monitor_actions_failed"),
        )
    )

    node_rows = list(_children(registry, "node_cpu_utilization_ratio"))
    if node_rows:
        hidden = 0
        if max_nodes is not None:
            ranked = []
            for values, child in node_rows:
                node = values[0]
                assert isinstance(child, Gauge)
                binding = max(
                    child.value,
                    _scalar(registry, "node_memory_utilization_ratio", node),
                    _scalar(registry, "node_network_utilization_ratio", node),
                )
                ranked.append((-binding, node, (values, child)))
            ranked.sort(key=lambda entry: entry[:2])
            hidden = max(0, len(ranked) - max_nodes)
            node_rows = [entry[2] for entry in ranked[:max_nodes]]
        lines.append("")
        lines.append(f"{'NODE':<12} {'CPU':<16} {'MEM':<16} {'NET':<16} {'CTRS':>4}")
        for values, child in node_rows:
            node = values[0]
            assert isinstance(child, Gauge)
            cpu = child.value
            mem = _scalar(registry, "node_memory_utilization_ratio", node)
            net = _scalar(registry, "node_network_utilization_ratio", node)
            containers = _scalar(registry, "node_containers", node)
            lines.append(
                f"{node:<12} {_bar(cpu)} {cpu * 100:4.0f}% {_bar(mem)} {mem * 100:4.0f}% "
                f"{_bar(net)} {net * 100:4.0f}% {containers:4.0f}"
            )
        if hidden:
            lines.append(f"(+{hidden} more node{'s' if hidden != 1 else ''})")

    service_rows = list(_children(registry, "service_replicas"))
    if service_rows:
        lines.append("")
        lines.append(
            f"{'SERVICE':<16} {'REPL':>4} {'OFFER/S':>8} {'DONE/S':>8} "
            f"{'FAIL/S':>8} {'P50':>7} {'P95':>7} {'P99':>7}"
        )
        latency = registry.get("request_response_seconds")
        offered = registry.get("requests_offered")
        completed = registry.get("requests_completed")
        failed = registry.get("requests_failed")
        for values, child in service_rows:
            service = values[0]
            assert isinstance(child, Gauge)
            offer_rate = done_rate = 0.0
            if offered is not None:
                offer_child = offered.peek(service)
                if isinstance(offer_child, Counter):
                    offer_rate = series_rate(offer_child, now)
            if completed is not None:
                done_child = completed.peek(service)
                if isinstance(done_child, Counter):
                    done_rate = series_rate(done_child, now)
            fail_rate = 0.0
            if failed is not None:
                for fail_values, fail_child in failed.children():
                    if fail_values[0] == service:
                        assert isinstance(fail_child, Counter)
                        fail_rate += series_rate(fail_child, now)
            p50 = p95 = p99 = 0.0
            if latency is not None:
                hist = latency.peek(service)
                if isinstance(hist, Histogram) and hist.count:
                    p50, p95, p99 = (
                        hist.quantile(0.5),
                        hist.quantile(0.95),
                        hist.quantile(0.99),
                    )
            lines.append(
                f"{service:<16} {child.value:4.0f} {offer_rate:8.2f} {done_rate:8.2f} "
                f"{fail_rate:8.2f} {p50:6.2f}s {p95:6.2f}s {p99:6.2f}s"
            )

    # Application-graph user view: rendered only when the run recorded
    # end-to-end ingress observations, so single-service frames are
    # byte-identical to pre-graph releases.  Per-service rows above count
    # *all* tier traffic (capacity); these rows count each user request
    # exactly once.
    app_rows = list(_children(registry, "app_request_response_seconds"))
    if app_rows:
        lines.append("")
        lines.append(
            f"{'APP INGRESS':<16} {'IN/S':>8} {'E2E-P50':>8} {'E2E-P95':>8} {'E2E-P99':>8}"
        )
        ingress = registry.get("requests_ingress")
        internal = registry.get("requests_internal")
        for values, hist in app_rows:
            service = values[0]
            in_rate = 0.0
            if ingress is not None:
                in_child = ingress.peek(service)
                if isinstance(in_child, Counter):
                    in_rate = series_rate(in_child, now)
            p50 = p95 = p99 = 0.0
            if isinstance(hist, Histogram) and hist.count:
                p50, p95, p99 = (
                    hist.quantile(0.5),
                    hist.quantile(0.95),
                    hist.quantile(0.99),
                )
            lines.append(
                f"{service:<16} {in_rate:8.2f} {p50:7.2f}s {p95:7.2f}s {p99:7.2f}s"
            )
        if internal is not None:
            internal_rate = 0.0
            for _, int_child in internal.children():
                if isinstance(int_child, Counter):
                    internal_rate += series_rate(int_child, now)
            lines.append(f"{'(internal)':<16} {internal_rate:8.2f}")

    if slo is not None and slo.services():
        lines.append("")
        lines.append(f"{'SLO':<16} {'WINDOW':<8} {'BURN':>8} {'BUDGET':>8}  STATE")
        firing = set(slo.firing())
        for service in slo.services():
            remaining = slo.budget_remaining(service)
            for window in slo.windows:
                burn = slo.burn_rate(service, window.horizon, now)
                state = "FIRING" if (service, window.name) in firing else "ok"
                lines.append(
                    f"{service:<16} {window.name:<8} {burn:8.2f} {remaining * 100:7.1f}%  {state}"
                )

    return "\n".join(lines) + "\n"


def _check_max_nodes(max_nodes: int | None) -> None:
    if max_nodes is not None and max_nodes < 1:
        raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")


def run_top(
    simulation: object,
    *,
    duration: float,
    interval: float,
    stream: IO[str],
    title: str = "",
    clear: bool = False,
    max_nodes: int | None = None,
) -> int:
    """Drive ``simulation`` and write one frame per simulated interval.

    ``simulation`` is a built :class:`repro.experiments.Simulation` (typed
    loosely to keep this module import-light).  The engine moves in whole
    steps, so each frame lands on the last step boundary at or before its
    due time, and the run ends at the last boundary within ``duration``.
    Raises ``ValueError`` for an ``interval`` shorter than one step or a
    ``max_nodes`` below 1.  Returns the number of frames written; stops
    early — cleanly — if the stream's consumer goes away
    (``BrokenPipeError``), so piping into ``head`` works.
    """
    engine = simulation.engine  # type: ignore[attr-defined]
    hub = simulation.telemetry  # type: ignore[attr-defined]
    if hub is None:
        raise ValueError("run_top needs a simulation observed with a telemetry registry")
    clock = engine.clock
    if not interval >= clock.dt:  # written so that NaN fails too
        raise ValueError(f"interval must be at least one step ({clock.dt:g} s), got {interval:g}")
    _check_max_nodes(max_nodes)
    frames = 0
    end = clock.now + duration
    due = clock.now
    try:
        # Loop on the clock, not on the time asked for: ``run_for`` takes
        # whole steps only, so it can pass less time than it was given.
        while clock.now + clock.dt <= end + 1e-9:
            due = min(due + interval, end)
            engine.run_for(due - clock.now)
            if clear:
                stream.write("\x1b[2J\x1b[H")
            stream.write(
                render_top(
                    hub.registry,
                    now=clock.now,
                    slo=hub.slo,
                    title=title,
                    max_nodes=max_nodes,
                )
            )
            stream.write("\n")
            stream.flush()
            frames += 1
    except BrokenPipeError:
        pass
    return frames
