#!/usr/bin/env python3
"""Benchmark of the HyScale simulator: end-to-end host-time metrics and a
traced per-layer breakdown, on three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper-mixed --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload fleet-1000 --seed 1 --trace 1
    python3 perfbench/run.py --workload all          # every workload, both modes

``--trace 0`` times untraced repeats of the workload back to back for
``--seconds`` wall seconds and reports the end-to-end metrics.  ``--trace
1`` runs one untraced and one traced repeat and reports the per-layer
metrics.  Every repeat is checked (see ``checks.py``); the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TIMER = time.perf_counter
WORKLOADS = ("paper-mixed", "three-tier", "fleet-1000")


@dataclass
class Repeat:
    """One simulated horizon of one workload."""

    simulation: object
    summary: object
    setup_s: float
    #: Simulated seconds of the timed steps (the horizon minus the warm-up).
    timed_sim_s: float
    step_s: list[float]
    tick_steps: list[bool]
    #: Requests settled during the timed steps, internal graph calls included.
    settled: int
    summary_s: float


def _steps(simulation, horizon_s: float) -> int:
    return int(round(horizon_s / simulation.engine.clock.dt))


def warm_up(simulation, steps: int) -> int:
    """Step untimed through the first autoscaling round; returns the steps taken.

    The first round right-sizes every freshly deployed replica at once (about
    10,000 vertical operations on ``fleet-1000``), a deployment transient
    that is not the steady per-round cost the tick metric measures.
    """
    log = simulation.monitor.log
    taken = 0
    while log.ticks == 0:
        if taken == steps:
            raise RuntimeError("the horizon ends before the first autoscaling round")
        simulation.engine.step()
        taken += 1
    return taken


def run_repeat(scenario, seed: int) -> Repeat:
    """Build and run one horizon untraced, timing every step after the warm-up."""
    start = TIMER()
    simulation = scenario.build(seed)
    setup_s = TIMER() - start
    engine = simulation.engine
    log = simulation.monitor.log
    collector = simulation.collector
    steps = _steps(simulation, scenario.horizon_s)
    timed = steps - warm_up(simulation, steps)
    settled_before = collector.total_requests
    step_s: list[float] = []
    tick_steps: list[bool] = []
    for _ in range(timed):
        ticks = log.ticks
        start = TIMER()
        engine.step()
        step_s.append(TIMER() - start)
        tick_steps.append(log.ticks != ticks)
    settled = collector.total_requests - settled_before
    start = TIMER()
    summary = simulation.summary()
    summary_s = TIMER() - start
    timed_sim_s = timed * engine.clock.dt
    return Repeat(simulation, summary, setup_s, timed_sim_s, step_s, tick_steps, settled, summary_s)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fail(workload: str, exc: BaseException) -> None:
    print(f"perfbench: {workload}: repeat failed: {exc}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def check_pinned(scenario) -> None:
    """Run the default seed untimed for the pin horizon and check its digest.

    Every run calls this first, whatever its seed, so a change that alters
    what is simulated fails the check instead of reading as a speed-up.
    """
    from checks import DEFAULT_SEED, check_pin

    simulation = scenario.build(DEFAULT_SEED)
    for _ in range(_steps(simulation, scenario.pin_horizon_s)):
        simulation.engine.step()
    check_pin(scenario.name, simulation, simulation.summary())


# ----------------------------------------------------------------------
# End-to-end (untraced)
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float) -> dict:
    from checks import check_repeat
    from scenarios import SCENARIOS

    scenario = SCENARIOS[workload]
    setup_samples: list[float] = []
    runs: list[list[float]] = []
    tick_steps: list[bool] = []
    settled = 0
    timed_sim_s = 0.0
    attempted = failed = 0
    seen: set[str] = set()
    attempted += 1
    try:
        check_pinned(scenario)
    except Exception as exc:
        failed += 1
        _fail(workload, exc)
    gc.collect()
    began = TIMER()
    rounds = 0
    while True:
        attempted += 1
        rounds += 1
        builds: list[float] = []
        try:
            rep = run_repeat(scenario, seed)
            check_repeat(workload, seed, rep.simulation, rep.summary, seen)
        except Exception as exc:  # a failed repeat is a failed operation
            failed += 1
            _fail(workload, exc)
        else:
            builds.append(rep.setup_s)
            runs.append(rep.step_s)
            tick_steps = rep.tick_steps
            settled = rep.settled
            timed_sim_s = rep.timed_sim_s
        rep = None
        gc.collect()
        # No forced collection between these builds: a build that follows
        # gc.collect() runs up to 1.6x slower, by an amount that changes
        # from process to process.
        for _ in range(scenario.extra_builds):
            start = TIMER()
            scenario.build(seed)
            builds.append(TIMER() - start)
        # One set-up sample per round: the fastest of its builds, for the
        # same reason as the fastest time per step index below.
        setup_samples.append(min(builds))
        elapsed = TIMER() - began
        # At least two rounds, so every step time is the faster of two.
        if rounds >= 2 and elapsed + 0.5 * elapsed / rounds >= seconds:
            break

    metrics = {}
    if runs:
        # Repeats are identical, so step i does the same work in each.  Host
        # interference only ever adds time, so the fastest of the repeats is
        # the best estimate of each step's own cost.
        profile = [min(times) for times in zip(*runs)]
        wall = sum(profile)
        metrics = {
            "sim_s_per_wall_s": (timed_sim_s / wall, "s/s"),
            "requests_per_wall_s": (settled / wall, "1/s"),
            "tick_ms_mean": (1e3 * statistics.fmean(t for t, tick in zip(profile, tick_steps) if tick), "ms"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MiB"),
        }
    info = {
        "repeats": len(runs),
        "steps": len(tick_steps),
        "ticks": sum(tick_steps),
        "setup_samples": len(setup_samples),
        "digest": next(iter(seen), None),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


# ----------------------------------------------------------------------
# Per-layer (one untraced and one traced repeat)
# ----------------------------------------------------------------------
def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _routed(front, router) -> int:
    """Requests routed so far by the front balancer and every graph edge."""
    routed = front.total_routed
    if router is not None:
        routed += sum(e["routed"] for e in router.edge_stats().values())
    return routed


def trace(workload: str, seed: int) -> dict:
    from checks import CheckFailed, check_repeat
    from scenarios import SCENARIOS
    from tracing import LAYERS, STEP, Tracer, all_restored, instrument, trace_policy

    scenario = SCENARIOS[workload]
    seen: set[str] = set()
    attempted = failed = 0
    metrics: dict = {}
    try:
        attempted += 1
        check_pinned(scenario)
        gc.collect()

        attempted += 1
        ref = run_repeat(scenario, seed)
        check_repeat(workload, seed, ref.simulation, ref.summary, seen)
        untraced_wall = sum(ref.step_s)
        ordered = sorted(ref.step_s)
        step_p50 = statistics.median(ordered)
        step_p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
        tick_p50 = statistics.median(t for t, tick in zip(ref.step_s, ref.tick_steps) if tick)
        summary_s = ref.summary_s
        tick_share = _pct(sum(ref.tick_steps), len(ref.tick_steps))
        ref = None
        gc.collect()

        attempted += 1
        tracer = Tracer()
        backlog_total = 0
        with instrument(tracer) as patches:
            simulation = scenario.build(seed)
            undo = trace_policy(tracer, simulation.policy)
            engine = simulation.engine
            front = simulation.load_balancer
            router = simulation.router
            steps = _steps(simulation, scenario.horizon_s)
            timed = steps - warm_up(simulation, steps)
            tracer.reset()  # deployment and warm-up are not measured step time
            log = simulation.monitor.log
            applied_before = log.actions_applied
            routed_before = _routed(front, router)
            internal_before = router.total_internal if router is not None else 0
            for _ in range(timed):
                with tracer.step():
                    engine.step()
                backlog_total += front.backlog()
                if router is not None:
                    backlog_total += sum(e["backlog"] for e in router.edge_stats().values())
            undo()
        summary = simulation.summary()
        if not all_restored(patches) or "decide" in vars(simulation.policy):
            raise CheckFailed("tracing left a wrapped function behind")
        check_repeat(workload, seed, simulation, summary, seen)

        step_total = tracer.step_seconds()
        self_s = tracer.self_seconds()
        covered = sum(self_s.values())
        if abs(covered - step_total) > 1e-6 * step_total:
            raise CheckFailed(f"layer self times {covered} != traced step time {step_total}")

        for name in LAYERS:
            layer = tracer.layers[name]
            metrics[f"{name}_s"] = (self_s[name], "s")
            metrics[f"{name}_calls"] = (layer.calls, "count")
            metrics[f"{name}_share"] = (_pct(self_s[name], step_total), "%")
        c = tracer.counters
        calls = {name: layer.calls for name, layer in tracer.layers.items()}
        advances = calls["cluster.advance_cpu"] + calls["cluster.advance_disk"] + calls["cluster.advance_net"]
        routed = _routed(front, router) - routed_before
        internal = (router.total_internal if router is not None else 0) - internal_before
        metrics.update(
            {
                "trace.step_s": (step_total, "s"),
                "trace.untraced_step_s": (untraced_wall, "s"),
                "trace.overhead_ratio": (_ratio(step_total, untraced_wall), "x"),
                "sim.step_ms_p50": (1e3 * step_p50, "ms"),
                "sim.step_ms_p99": (1e3 * step_p99, "ms"),
                "sim.tick_ms_p50": (1e3 * tick_p50, "ms"),
                "sim.tick_step_share": (tick_share, "%"),
                "cluster.quiet_node_share": (_pct(c["quiet_node_steps"], c["node_steps"]), "%"),
                "cluster.inflight_mean": (_ratio(c["inflight_scanned"], advances), "count"),
                "nm.samples": (calls["dockersim.stats"], "count"),
                "lb.routed_ratio": (_ratio(routed, calls["lb.submit"]), "ratio"),
                "lb.backlog_mean": (_ratio(backlog_total, calls[STEP]), "count"),
                "graph.internal_calls": (internal, "count"),
                "monitor.actions_applied_ratio": (
                    _ratio(log.actions_applied - applied_before, c["actions_emitted"]),
                    "ratio",
                ),
                "metrics.summary_s": (summary_s, "s"),
                "model.user_requests": (summary.user_requests, "count"),
                "model.user_failed_pct": (summary.user_percent_failed, "%"),
                "model.user_p99_s": (summary.user_p99_response_time, "sim_s"),
                "model.scale_ups": (summary.horizontal_scale_ups, "count"),
                "model.vertical_ops": (summary.vertical_scale_ops, "count"),
                "model.oom_kills": (summary.oom_kills, "count"),
            }
        )
    except Exception as exc:
        failed += 1
        metrics = {}
        _fail(workload, exc)
    info = {"digest": next(iter(seen), None)}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _print_metrics(prefix: str, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{prefix}{name:<40} {value:>16.6g} {unit}")


def run_all(seed: int, seconds: float) -> dict:
    """Every workload in both modes, each in its own process.

    Separate processes keep ``peak_rss_mb`` the peak of one workload's run
    rather than of every run before it.
    """
    attempted = failed = 0
    metrics: dict = {}
    for workload in WORKLOADS:
        for mode in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
            argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(mode)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {"attempted": 1, "failed": 1, "metrics": {}}
                print(f"perfbench: {workload} trace={mode} exited {proc.returncode} without a result", file=sys.stderr)
            else:
                print("\n".join(lines[:-1]))
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{workload}:{name}": value for name, value in result["metrics"].items()})
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
        metrics = result["metrics"]
    else:
        sys.path.insert(0, str(SRC))
        run = trace if args.trace else measure
        params = (args.workload, args.seed) if args.trace else (args.workload, args.seed, args.seconds)
        result = run(*params)
        print(f"# {args.workload} trace={args.trace} seed={args.seed} {json.dumps(result['info'])}")
        _print_metrics("  ", result["metrics"])
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()}

    correct = result["failed"] == 0 and bool(metrics)
    out = {"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
