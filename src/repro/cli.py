"""Command-line interface: run any paper experiment from a shell.

Mirrors the paper's platform knob that algorithms "can be specified at
initialization or through the command-line interface" (Section V-C).

Examples::

    hyscale-repro list
    hyscale-repro run cpu --burst high --algorithms kubernetes hybrid
    hyscale-repro run mixed --costs --events 10 --timeline
    hyscale-repro run bitbrains --json runs.json && hyscale-repro inspect runs.json
    hyscale-repro run cpu --algorithms hybrid --trace-out t.jsonl
    hyscale-repro explain t.jsonl --actions-only # why did each action fire?
    hyscale-repro profile --workload cpu --json BENCH_phase_profile.json
    hyscale-repro reproduce --jobs 4 --cache-dir .sweep-cache  # parallel + resumable
    hyscale-repro section3 --which network
    hyscale-repro trace --vms 50 --duration 600
    hyscale-repro lint                           # the static analyzer (python -m repro.devtools)
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.analysis.compare import compare_runs
from repro.core.registry import registered_policies
from repro.errors import ExperimentError, WorkloadError
from repro.experiments.configs import (
    ALGORITHMS,
    BURSTS,
    ExperimentSpec,
)
from repro.experiments.report import (
    memory_table,
    scaling_curve_table,
    trace_series_table,
)
from repro.experiments.section3 import (
    cpu_scaling_curve,
    memory_scaling_table,
    network_scaling_curve,
)
from repro.experiments.spec import SEED_MODES, RunSpec
from repro.instrument import Observe
from repro.platform.routing import DEFAULT_ROUTING, registered_routings
from repro.telemetry.sampling import registered_sampling_policies
from repro.workloads.bitbrains import generate_bitbrains_trace
from repro.workloads.registry import (
    registered_apps,
    registered_workloads,
    resolve_app,
    resolve_workload,
)

#: Every workload name the CLI accepts, sorted.
WORKLOADS = registered_workloads()


def _build_spec(
    workload: str | None, burst: str, seed: int, app: str | None = None
) -> ExperimentSpec:
    if app is not None:
        return resolve_app(app)(burst, seed=seed)
    assert workload is not None  # argparse/_cmd_run guarantee one of the two
    factory, takes_burst = resolve_workload(workload)
    return factory(burst, seed=seed) if takes_burst else factory(seed=seed)


def _cmd_list(_: argparse.Namespace) -> int:
    print("workloads :", ", ".join(WORKLOADS))
    print("apps      :", ", ".join(registered_apps()))
    print("bursts    :", ", ".join(BURSTS))
    extensions = [name for name in registered_policies() if name not in ALGORITHMS]
    print("algorithms:", ", ".join(ALGORITHMS), "(+ extensions:", ", ".join(extensions) + ")")
    print("routing   :", ", ".join(registered_routings()))
    return 0


def _trace_path(base: str, algorithm: str, multiple: bool) -> str:
    """Per-algorithm trace file: ``t.jsonl`` -> ``t.hybrid.jsonl`` when the
    run covers several algorithms, unchanged for a single one."""
    if not multiple:
        return base
    root, dot, ext = base.rpartition(".")
    if not dot:
        return f"{base}.{algorithm}"
    return f"{root}.{algorithm}.{ext}"


def _run_progress(shard: RunSpec, status: str) -> None:
    """Shard progress for ``run``/sweep paths, mirroring the serial banner."""
    if status == "running":
        print(f"running {shard.label} under {shard.policy} ...", file=sys.stderr)
    elif status == "cached":
        print(f"running {shard.label} under {shard.policy} ... (cached)", file=sys.stderr)


def _jobs_ok(jobs: int) -> bool:
    """``--jobs`` names at least one worker; else print the usage error."""
    if jobs >= 1:
        return True
    print(f"error: --jobs must be at least 1, got {jobs}", file=sys.stderr)
    return False


def _cmd_run(args: argparse.Namespace) -> int:
    if (args.workload is None) == (args.app is None):
        print("error: pass exactly one of a workload name or --app", file=sys.stderr)
        return 2
    repeated = sorted({name for name in args.algorithms if args.algorithms.count(name) > 1})
    if repeated:
        print(f"error: --algorithms names {', '.join(repeated)} more than once", file=sys.stderr)
        return 2
    if not _jobs_ok(args.jobs):
        return 2
    spec = _build_spec(args.workload, args.burst, args.seed, app=args.app)
    # One shard list serves both paths, so --seed-mode and --routing mean
    # the same whether a run fans out or is observed in-process.
    sweep = spec.to_sweep(tuple(args.algorithms), seed_mode=args.seed_mode)
    sweep = replace(
        sweep, shards=tuple(replace(shard, routing=args.routing) for shard in sweep.shards)
    )
    summaries = {}
    cost_reports = {}
    event_logs = {}
    wants_metrics = bool(args.metrics_out or args.openmetrics_out)
    wants_sampling = args.sampling != "full"
    multiple = len(args.algorithms) > 1
    if args.costs or args.events > 0 or args.trace_out or wants_metrics or wants_sampling:
        # Observation plumbing (traces, cost ledgers, live registries,
        # sampling controllers) needs the Simulation object in-process, so
        # this path runs the shards serially and uncached; the plain
        # comparison path below fans out.
        from repro.obs import DecisionTracer, write_trace_jsonl
        from repro.telemetry import MetricRegistry

        for shard in sweep.shards:
            algorithm = shard.policy
            print(f"running {shard.label} under {algorithm} ...", file=sys.stderr)
            tracer = DecisionTracer() if args.trace_out else None
            # Sampling decides what the live registry collects, so it
            # needs a recording registry even without export flags.
            registry = MetricRegistry() if wants_metrics or wants_sampling else None
            slo = None
            if wants_metrics:
                from repro.metrics import Sla
                from repro.telemetry import SloTracker

                slo = SloTracker(Sla(response_time_target=args.sla_target))
            simulation = shard.build(
                observe=Observe(
                    tracer=tracer,
                    telemetry=registry,
                    slo=slo,
                    sampling=args.sampling if wants_sampling else None,
                )
            )
            summaries[algorithm] = simulation.run(shard.duration)
            if wants_sampling and simulation.telemetry is not None:
                controller = simulation.telemetry.sampling
                budget = controller.budget
                print(
                    f"sampling {args.sampling}: observed {budget.nodes_observed} "
                    f"node passes, skipped {budget.nodes_skipped}, simulated "
                    f"collection cost {budget.collection_cost_seconds:.3f}s "
                    f"(staleness bound {controller.max_staleness():.0f}s)",
                    file=sys.stderr,
                )
            if tracer is not None:
                path = _trace_path(args.trace_out, algorithm, multiple)
                count = write_trace_jsonl(tracer.spans(), path)
                print(f"wrote {count} decision spans to {path}", file=sys.stderr)
            if registry is not None and slo is not None:
                now = simulation.engine.clock.now
                if args.metrics_out:
                    from repro.telemetry import write_snapshot_jsonl

                    path = _trace_path(args.metrics_out, algorithm, multiple)
                    count = write_snapshot_jsonl(registry, path, now=now, alerts=slo.alerts())
                    print(f"wrote {count} metric snapshot lines to {path}", file=sys.stderr)
                if args.openmetrics_out:
                    from repro.telemetry import write_openmetrics

                    path = _trace_path(args.openmetrics_out, algorithm, multiple)
                    count = write_openmetrics(registry, path)
                    print(f"wrote {count} OpenMetrics samples to {path}", file=sys.stderr)
                fired = [a for a in slo.alerts() if a.state == "firing"]
                if fired:
                    print(
                        f"SLO: {len(fired)} burn-rate alert(s) fired "
                        f"({', '.join(sorted({f'{a.service}/{a.window}' for a in fired}))})",
                        file=sys.stderr,
                    )
            if args.costs:
                from repro.metrics import Sla
                from repro.metrics.costs import evaluate_costs

                sla = Sla(response_time_target=args.sla_target)
                cost_reports[algorithm] = evaluate_costs(simulation.collector, sla)
            if args.events > 0:
                event_logs[algorithm] = simulation.collector.events
    else:
        result = sweep.run(
            parallel=args.jobs, cache_dir=args.cache_dir, progress=_run_progress
        )
        summaries = dict(zip(args.algorithms, result.summaries))
    # When the requested baseline was not among the runs (e.g. a single
    # non-baseline algorithm), fall back to the first run so the table
    # still renders.
    baseline = args.baseline if args.baseline in summaries else args.algorithms[0]
    report = compare_runs(spec.label, summaries, baseline=baseline)
    print(report.to_table())
    if len(summaries) > 1:
        print()
        for name, speedup in sorted(report.speedups().items()):
            if name != baseline:
                print(f"speedup of {name} over {baseline}: {speedup:.2f}x")
    if cost_reports:
        from repro.experiments.report import format_table
        from repro.metrics.costs import cost_comparison_rows

        print()
        print(f"run cost (SLA target {args.sla_target:.1f}s)")
        print(
            format_table(
                ["algorithm", "kWh", "node-h", "violations", "total", "savings"],
                cost_comparison_rows(cost_reports, baseline=baseline),
            )
        )
    if event_logs:
        from repro.metrics.events import decision_summary, render_event_log

        for name in sorted(event_logs):
            log = event_logs[name]
            print()
            print(f"--- scaling events: {name} (last {args.events}) ---")
            print(render_event_log(log, limit=args.events))
            print("decision mix:", decision_summary(log))
    if args.json:
        import json

        payload = {name: summary.to_dict() for name, summary in summaries.items()}
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}", file=sys.stderr)
    if args.timeline:
        from repro.analysis.timeline import allocation_efficiency, render_timeline

        for name in sorted(summaries):
            summary = summaries[name]
            if len(summary.timeline) >= 2:
                print()
                print(f"--- {name} ---")
                print(render_timeline(list(summary.timeline)))
                print(f"allocation efficiency: {allocation_efficiency(summary.timeline):.2f}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Run one workload live, printing a dashboard frame per interval."""
    from repro.metrics import Sla
    from repro.telemetry import MetricRegistry, SloTracker, run_top

    spec = _build_spec(args.workload, args.burst, args.seed)
    observe = Observe(
        telemetry=MetricRegistry(),
        slo=SloTracker(Sla(response_time_target=args.sla_target)),
        sampling=args.sampling,
    )
    shard = replace(spec.to_run_spec(args.algorithm), timeline_every=min(5.0, args.interval))
    simulation = shard.build(observe=observe)
    duration = args.duration if args.duration is not None else spec.duration
    try:
        frames = run_top(
            simulation,
            duration=duration,
            interval=args.interval,
            stream=sys.stdout,
            title=f"{spec.label} / {args.algorithm}",
            clear=args.clear and sys.stdout.isatty(),
            max_nodes=args.nodes,
        )
        print(f"{frames} frame(s), t={simulation.engine.clock.now:.1f}s", file=sys.stderr)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) went away: exit quietly.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
    return 0


def _cmd_section3(args: argparse.Namespace) -> int:
    if args.which in ("cpu", "all"):
        print(scaling_curve_table(cpu_scaling_curve(), title="Figure 2: CPU horizontal scaling"))
        print()
    if args.which in ("memory", "all"):
        print(memory_table(memory_scaling_table(), title="Section III-B: memory scaling"))
        print()
    if args.which in ("network", "all"):
        print(
            scaling_curve_table(
                network_scaling_curve(), title="Figure 3: network horizontal scaling (100 Mbit/s total)"
            )
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        trace = generate_bitbrains_trace(
            n_vms=args.vms, duration=args.duration, interval=args.interval, seed=args.seed
        )
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        trace_series_table(
            list(trace.times()),
            list(trace.aggregate_cpu()),
            list(trace.aggregate_mem()),
            stride=args.stride,
            title=f"Figure 9: synthetic Bitbrains Rnd aggregate ({trace.n_vms} VMs)",
        )
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.timeline import allocation_efficiency, render_timeline
    from repro.metrics.summary import RunSummary

    try:
        with open(args.path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {args.path} is not a JSON dump: {exc}", file=sys.stderr)
        return 2
    if not isinstance(payload, dict):
        print(
            f"error: {args.path} is not a `run --json` dump: expected an object mapping run "
            f"names to summaries, got {type(payload).__name__}",
            file=sys.stderr,
        )
        return 2
    summaries = {}
    for name, data in payload.items():
        try:
            summaries[name] = RunSummary.from_dict(data)
        except ExperimentError as exc:
            print(f"error: {args.path} is not a `run --json` dump: run {name!r}: {exc}", file=sys.stderr)
            return 2
    workload = next(iter(summaries.values())).workload if summaries else "?"
    baseline = "kubernetes" if "kubernetes" in summaries else next(iter(sorted(summaries)), None)
    if baseline is None:
        print("(empty dump)")
        return 1
    report = compare_runs(workload, summaries, baseline=baseline)
    print(report.to_table())
    if args.timeline:
        for name in sorted(summaries):
            summary = summaries[name]
            if len(summary.timeline) >= 2:
                print()
                print(f"--- {name} ---")
                print(render_timeline(list(summary.timeline)))
                print(f"allocation efficiency: {allocation_efficiency(summary.timeline):.2f}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.errors import ObservabilityError
    from repro.obs import read_trace_jsonl, render_explain

    try:
        spans = read_trace_jsonl(args.path)
    except (OSError, ObservabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(
            render_explain(
                spans,
                limit=args.limit,
                service=args.service,
                actions_only=args.actions_only,
            )
        )
    except BrokenPipeError:
        # Reader (head, less) closed the pipe mid-render: not an error.
        sys.stderr.close()
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import PhaseProfiler

    if args.duration is not None and not args.duration >= 0:  # NaN fails too
        print(f"error: --duration must be non-negative, got {args.duration:g}", file=sys.stderr)
        return 2
    spec = _build_spec(args.workload, args.burst, args.seed)
    duration = args.duration if args.duration is not None else spec.duration
    profiler = PhaseProfiler()
    print(f"profiling {spec.label} under {args.algorithm} ...", file=sys.stderr)
    spec.to_run_spec(args.algorithm).build(observe=Observe(profiler=profiler)).run(duration)
    print(profiler.render())
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(profiler.to_json())
            handle.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.analyzer import run

    return run(args)


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.suite import render_reproduction, reproduce_evaluation

    if not _jobs_ok(args.jobs):
        return 2
    figures = tuple(args.figures) if args.figures else None
    result = reproduce_evaluation(
        seed=args.seed,
        figures=figures,
        progress=lambda msg: print(f"running {msg} ...", file=sys.stderr),
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )
    print(render_reproduction(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument schema (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="hyscale-repro",
        description="Reproduce the HyScale (ICDCS 2019) experiments on the cluster simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, bursts, and algorithms").set_defaults(func=_cmd_list)

    run = sub.add_parser("run", help="run one evaluation workload under one or more algorithms")
    run.add_argument("workload", nargs="?", choices=WORKLOADS, default=None)
    run.add_argument(
        "--app",
        choices=registered_apps(),
        default=None,
        help="run a registered application graph instead of a single-service "
        "workload (mutually exclusive with the workload positional; "
        "see docs/app_graphs.md)",
    )
    run.add_argument("--burst", choices=BURSTS, default="low")
    run.add_argument("--algorithms", nargs="+", choices=registered_policies(), default=list(ALGORITHMS))
    run.add_argument("--baseline", choices=registered_policies(), default="kubernetes")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--costs",
        action="store_true",
        help="also price each run (energy + occupancy + SLA penalties)",
    )
    run.add_argument(
        "--events",
        type=int,
        default=0,
        metavar="N",
        help="print the last N scaling events of each run (the audit trail)",
    )
    run.add_argument(
        "--timeline",
        action="store_true",
        help="render each run's cluster timeline as text sparklines",
    )
    run.add_argument(
        "--json",
        metavar="PATH",
        help="dump every run's full summary (incl. timeline) as JSON",
    )
    run.add_argument(
        "--sla-target",
        type=float,
        default=8.0,
        help="response-time SLA target in seconds for --costs (default 8.0)",
    )
    run.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="record every scaling decision and write a JSONL trace "
        "(per-algorithm suffix when several algorithms run)",
    )
    run.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="stream telemetry during the run and write the final JSONL "
        "metric snapshot (per-algorithm suffix when several algorithms run)",
    )
    run.add_argument(
        "--openmetrics-out",
        metavar="PATH",
        default=None,
        help="stream telemetry during the run and write the final OpenMetrics "
        "exposition text (per-algorithm suffix when several algorithms run)",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the sweep (default 1; results are "
        "byte-identical for any N)",
    )
    run.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="content-addressed shard cache; completed runs are reused "
        "on the next invocation (resumable sweeps)",
    )
    run.add_argument(
        "--seed-mode",
        choices=SEED_MODES,
        default="shared",
        help="'shared' replays the identical arrival sequence under every "
        "algorithm (the paper's method, default); 'per_shard' derives an "
        "independent stream per (workload, algorithm) shard",
    )
    run.add_argument(
        "--sampling",
        choices=registered_sampling_policies(),
        default="full",
        help="telemetry sampling policy: 'full' collects every node every "
        "interval (default, byte-identical to earlier releases); 'adaptive' "
        "and 'threshold-aware' decay quiet nodes' cadence and charge an "
        "observation-cost budget (observation-only; see docs/telemetry.md)",
    )
    run.add_argument(
        "--routing",
        choices=registered_routings(),
        default=DEFAULT_ROUTING,
        help="front load-balancer routing policy, and the default for "
        "application-graph edges that do not pin their own "
        "(default %(default)s; see docs/app_graphs.md)",
    )
    run.set_defaults(func=_cmd_run)

    top = sub.add_parser(
        "top", help="run one workload with live telemetry and print a top-style dashboard"
    )
    top.add_argument("workload", choices=WORKLOADS)
    top.add_argument("--burst", choices=BURSTS, default="low")
    top.add_argument("--algorithm", choices=registered_policies(), default="hybrid")
    top.add_argument("--seed", type=int, default=0)
    top.add_argument(
        "--duration",
        type=float,
        default=None,
        help="simulated seconds to run (default: the workload's full duration)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=30.0,
        help="simulated seconds between dashboard frames (default 30)",
    )
    top.add_argument(
        "--sla-target",
        type=float,
        default=8.0,
        help="response-time SLA target in seconds for the SLO panel (default 8.0)",
    )
    top.add_argument(
        "--clear",
        action="store_true",
        help="clear the terminal between frames (live-view mode)",
    )
    top.add_argument(
        "--nodes",
        type=int,
        default=None,
        metavar="K",
        help="show only the K busiest nodes (ranked by their binding "
        "resource) with a '+N more' footer; default: every node",
    )
    top.add_argument(
        "--sampling",
        choices=registered_sampling_policies(),
        default="full",
        help="telemetry sampling policy for the live registry "
        "(see docs/telemetry.md)",
    )
    top.set_defaults(func=_cmd_top)

    explain = sub.add_parser(
        "explain", help="render a decision trace written by `run --trace-out`"
    )
    explain.add_argument("path", help="JSONL trace file")
    explain.add_argument("--limit", type=int, default=None, metavar="N",
                         help="only the last N decision spans")
    explain.add_argument("--service", default=None,
                         help="restrict to one microservice")
    explain.add_argument("--actions-only", action="store_true",
                         help="skip ticks that emitted no actions")
    explain.set_defaults(func=_cmd_explain)

    profile = sub.add_parser(
        "profile", help="run one workload with per-phase wall-time attribution"
    )
    profile.add_argument("--workload", choices=WORKLOADS, default="cpu")
    profile.add_argument("--burst", choices=BURSTS, default="low")
    profile.add_argument("--algorithm", choices=registered_policies(), default="hybrid")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--duration", type=float, default=None,
                         help="simulated seconds (default: the workload's own duration)")
    profile.add_argument("--json", metavar="PATH", default=None,
                         help="also write the phase report as JSON")
    profile.set_defaults(func=_cmd_profile)

    rep = sub.add_parser(
        "reproduce", help="run the paper's whole evaluation matrix and print every figure"
    )
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument(
        "--figures",
        nargs="+",
        choices=("fig6a", "fig6b", "fig7a", "fig7b", "fig8a", "fig8b", "fig10"),
        help="restrict to specific figures (default: all)",
    )
    rep.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the evaluation matrix (default 1; "
        "results are byte-identical for any N)",
    )
    rep.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="content-addressed shard cache; an interrupted reproduction "
        "resumes from the completed shards",
    )
    rep.set_defaults(func=_cmd_reproduce)

    s3 = sub.add_parser("section3", help="run the Section III microbenchmarks (Figures 2-3)")
    s3.add_argument("--which", choices=("cpu", "memory", "network", "all"), default="all")
    s3.set_defaults(func=_cmd_section3)

    inspect_cmd = sub.add_parser("inspect", help="re-render a --json dump of earlier runs")
    inspect_cmd.add_argument("path", help="JSON file written by `run --json`")
    inspect_cmd.add_argument("--timeline", action="store_true",
                             help="also render saved timelines")
    inspect_cmd.set_defaults(func=_cmd_inspect)

    from repro.devtools import add_arguments as add_lint_arguments

    lint = sub.add_parser(
        "lint",
        help="run the static analyzer, as `python -m repro.devtools` (rules in docs/dev-tooling.md)",
    )
    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    trace = sub.add_parser("trace", help="print the synthetic Bitbrains aggregate (Figure 9)")
    trace.add_argument("--vms", type=int, default=100)
    trace.add_argument("--duration", type=float, default=1200.0)
    trace.add_argument("--interval", type=float, default=30.0)
    trace.add_argument("--stride", type=int, default=1)
    trace.add_argument("--seed", type=int, default=0)
    trace.set_defaults(func=_cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``hyscale-repro`` console script."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
