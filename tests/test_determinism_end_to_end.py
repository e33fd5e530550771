"""Determinism regression: one ``SimulationConfig`` fully determines a run.

This is the backstop behind the DET lint rules: even if a nondeterminism
escape slips past static analysis, running the same configuration twice and
comparing bit-for-bit will fail loudly.  Everything is rebuilt from scratch
for each run — shared state between runs would mask the very bugs this test
exists to catch.
"""

from repro.cluster import MicroserviceSpec, RandomPlacement
from repro.config import ClusterConfig, SimulationConfig
from repro.core.hyscale import (
    _by_container_id,
    _by_cpu_utilization,
    _by_cpu_utilization_desc,
)
from repro.core.hyscale_mem import HyScaleCpuMem
from repro.core.registry import registered_policies
from repro.experiments.configs import cpu_bound, make_policy
from repro.experiments.runner import Simulation
from repro.instrument import Observe
from repro.metrics.sla import Sla
from repro.obs import DecisionTracer, PhaseProfiler, spans_to_jsonl
from repro.sanitizer import SimSanitizer
from repro.sim.rng import RngStreams
from repro.telemetry import (
    MetricRegistry,
    SloTracker,
    parse_openmetrics,
    render_openmetrics,
    snapshot_to_jsonl,
)
from repro.telemetry.snapshot import parse_snapshot_line
from repro.workloads import CPU_BOUND, MIXED, HighBurstLoad, ServiceLoad
from repro.workloads.bitbrains import generate_bitbrains_trace
from repro.workloads.generator import ClientLoadGenerator


class _FakeReplica:
    """Minimal stand-in with the two fields the sort keys read."""

    def __init__(self, container_id: str, cpu_utilization: float):
        self.container_id = container_id
        self.cpu_utilization = cpu_utilization


def _fresh_simulation(
    seed: int,
    *,
    random_placement: bool = False,
    observe: Observe = Observe(),
) -> Simulation:
    """Build a small but busy experiment entirely from ``seed``."""
    config = SimulationConfig(cluster=ClusterConfig(worker_nodes=4), seed=seed)
    specs = [
        MicroserviceSpec(
            name=f"svc-{i}", cpu_request=0.5, mem_limit=512.0, net_rate=50.0, max_replicas=8
        )
        for i in range(2)
    ]
    loads = [
        ServiceLoad(
            service=spec.name,
            profile=CPU_BOUND,
            pattern=HighBurstLoad(base=4.0, peak=14.0, period=40.0, duty=0.4),
        )
        for spec in specs
    ]
    placement = RandomPlacement(RngStreams(config.seed)) if random_placement else None
    return Simulation.build(
        config=config,
        specs=specs,
        loads=loads,
        policy=HyScaleCpuMem(),
        workload_label="determinism-probe",
        placement=placement,
        observe=observe,
    )


def _run_once(seed: int, *, random_placement: bool = False) -> tuple[dict, list, list]:
    simulation = _fresh_simulation(seed, random_placement=random_placement)
    summary = simulation.run(90.0)
    events = list(simulation.collector.events.events())
    timeline = list(simulation.collector.timeline)
    return summary.to_dict(), events, timeline


class TestEndToEndDeterminism:
    def test_same_seed_is_bit_identical(self):
        first_summary, first_events, first_timeline = _run_once(seed=7)
        second_summary, second_events, second_timeline = _run_once(seed=7)
        assert first_summary == second_summary
        assert first_events == second_events
        assert first_timeline == second_timeline
        # The run actually did something worth comparing.
        assert first_summary["total_requests"] > 100
        assert first_events, "expected scaling activity in the probe run"

    def test_same_seed_with_random_placement_is_bit_identical(self):
        first = _run_once(seed=11, random_placement=True)
        second = _run_once(seed=11, random_placement=True)
        assert first == second

    def test_different_seed_changes_the_run(self):
        baseline = _run_once(seed=7)
        shifted = _run_once(seed=8)
        assert baseline != shifted

    def test_experiment_factory_runs_identically(self):
        # Through the public factory + policy registry, as the CLI does.
        spec_a = cpu_bound("low", seed=3)
        spec_b = cpu_bound("low", seed=3)
        sim_a = Simulation.build(
            config=spec_a.config,
            specs=list(spec_a.specs),
            loads=list(spec_a.loads),
            policy=make_policy("hybrid", spec_a.config),
            workload_label=spec_a.label,
        )
        sim_b = Simulation.build(
            config=spec_b.config,
            specs=list(spec_b.specs),
            loads=list(spec_b.loads),
            policy=make_policy("hybrid", spec_b.config),
            workload_label=spec_b.label,
        )
        summary_a = sim_a.run(60.0).to_dict()
        summary_b = sim_b.run(60.0).to_dict()
        assert summary_a == summary_b
        assert list(sim_a.collector.events.events()) == list(sim_b.collector.events.events())

    def test_decision_trace_is_byte_identical_across_same_seed_runs(self):
        """The JSONL trace encoding is part of the determinism contract:
        same seed, same bytes — no wall-clock, ids, or dict-order leaks."""

        def trace_once() -> str:
            tracer = DecisionTracer()
            simulation = _fresh_simulation(seed=7, observe=Observe(tracer=tracer))
            simulation.run(90.0)
            return spans_to_jsonl(tracer.spans())

        first = trace_once()
        second = trace_once()
        assert first, "expected a non-empty trace"
        assert first == second

    def test_tracing_does_not_perturb_the_run(self):
        """Recording decision evidence is observation only: a traced run
        and an untraced run of the same seed produce identical results."""
        untraced = _run_once(seed=7)
        tracer = DecisionTracer()
        simulation = _fresh_simulation(seed=7, observe=Observe(tracer=tracer))
        summary = simulation.run(90.0)
        traced = (
            summary.to_dict(),
            list(simulation.collector.events.events()),
            list(simulation.collector.timeline),
        )
        assert untraced == traced

    def test_telemetry_exports_are_byte_identical_across_same_seed_runs(self):
        """The telemetry exporters extend the byte-determinism contract:
        same seed, same OpenMetrics document, same JSONL snapshot."""

        def stream_once() -> tuple[str, str]:
            registry = MetricRegistry()
            slo = SloTracker(Sla(response_time_target=5.0, availability_target=0.95))
            simulation = _fresh_simulation(seed=7, observe=Observe(telemetry=registry, slo=slo))
            simulation.run(90.0)
            now = simulation.engine.clock.now
            return (
                render_openmetrics(registry),
                snapshot_to_jsonl(registry, now=now, alerts=slo.alerts()),
            )

        first_om, first_snap = stream_once()
        second_om, second_snap = stream_once()
        assert "sim_steps_total" in first_om, "expected an instrumented run"
        assert first_om == second_om
        assert first_snap == second_snap

    def test_telemetry_exports_parse_and_agree_with_the_summary(self):
        """Both exports pass the strict in-tree parsers, and the headline
        instruments agree with each other and with the run summary — on an
        overloaded fleet, so the failure path is counted too."""
        config = SimulationConfig(cluster=ClusterConfig(worker_nodes=4), seed=0)
        specs = [
            MicroserviceSpec(name="frontend", max_replicas=6),
            MicroserviceSpec(name="backend", max_replicas=6),
        ]
        loads = [
            ServiceLoad("frontend", MIXED, HighBurstLoad(base=6.0, peak=30.0)),
            ServiceLoad("backend", CPU_BOUND, HighBurstLoad(base=4.0, peak=18.0)),
        ]
        registry = MetricRegistry()
        slo = SloTracker(Sla(response_time_target=5.0, availability_target=0.95))
        simulation = Simulation.build(
            config=config,
            specs=specs,
            loads=loads,
            policy="hybrid",
            workload_label="telemetry-export",
            observe=Observe(telemetry=registry, slo=slo),
        )
        summary = simulation.run(120.0)
        parse_openmetrics(render_openmetrics(registry))
        now = simulation.engine.clock.now
        for line in snapshot_to_jsonl(registry, now=now, alerts=slo.alerts()).splitlines():
            parse_snapshot_line(line)

        def total(name: str) -> float:
            return sum(child.value for _, child in registry.get(name).children())

        assert registry.get("sim_steps").labels().value > 0
        completed = total("requests_completed")
        failed = total("requests_failed")
        assert failed > 0, "expected the overload to fail requests"
        assert total("requests_offered") >= completed + failed
        histograms = registry.get("request_response_seconds").children()
        assert sum(histogram.count for _, histogram in histograms) == completed
        assert summary.total_requests == completed + failed

    def test_telemetry_does_not_perturb_the_run(self):
        """Instrumentation is observation only: a run with a recording
        registry produces bit-identical results to an unobserved run."""
        bare = _run_once(seed=7)
        registry = MetricRegistry()
        slo = SloTracker(Sla(response_time_target=5.0, availability_target=0.95))
        simulation = _fresh_simulation(seed=7, observe=Observe(telemetry=registry, slo=slo))
        summary = simulation.run(90.0)
        instrumented = (
            summary.to_dict(),
            list(simulation.collector.events.events()),
            list(simulation.collector.timeline),
        )
        assert bare == instrumented

    def test_full_sampling_is_byte_identical_for_every_policy_at_fleet_scale(self):
        """``sampling="full"`` with a recording registry must be
        byte-identical to a default build that never passed the keyword —
        summaries, scaling events, and both export formats — for every
        registered scaling policy at 24 nodes."""

        def fleet_run(policy_name: str, sampling: str | None) -> tuple:
            config = SimulationConfig(cluster=ClusterConfig(worker_nodes=24), seed=7)
            specs = [
                MicroserviceSpec(
                    name=f"svc-{i}",
                    cpu_request=0.5,
                    mem_limit=512.0,
                    net_rate=50.0,
                    max_replicas=8,
                )
                for i in range(2)
            ]
            loads = [
                ServiceLoad(
                    service=spec.name,
                    profile=CPU_BOUND,
                    pattern=HighBurstLoad(base=4.0, peak=14.0, period=40.0, duty=0.4),
                )
                for spec in specs
            ]
            registry = MetricRegistry()
            simulation = Simulation.build(
                config=config,
                specs=specs,
                loads=loads,
                policy=policy_name,
                workload_label="sampling-pin",
                observe=Observe(telemetry=registry, sampling=sampling),
            )
            summary = simulation.run(40.0)
            now = simulation.engine.clock.now
            return (
                summary.to_dict(),
                list(simulation.collector.events.events()),
                render_openmetrics(registry),
                snapshot_to_jsonl(registry, now=now),
            )

        policies = registered_policies()
        assert len(policies) == 9  # the paper's five plus the extensions
        for name in policies:
            assert fleet_run(name, "full") == fleet_run(name, None), name

    def test_sanitizer_does_not_perturb_the_run(self):
        """SimSan is observation only: a sanitized run produces bit-identical
        results to the bare run — and a healthy run has no violations."""
        bare = _run_once(seed=7)
        sanitizer = SimSanitizer()
        simulation = _fresh_simulation(seed=7, observe=Observe(sanitizer=sanitizer))
        summary = simulation.run(90.0)
        sanitized = (
            summary.to_dict(),
            list(simulation.collector.events.events()),
            list(simulation.collector.timeline),
        )
        assert bare == sanitized
        assert sanitizer.violations() == ()
        assert sanitizer.steps_checked == simulation.engine.clock.step

    def test_hot_path_fixes_are_behaviourally_inert(self):
        """The FlowLint HOT fixes (prefetched arrival streams, hoisted
        sort keys, once-per-actor profiler labels) must be invisible:
        each optimized formulation is pinned to the per-step formulation
        it replaced, and the bit-identity tests above pin the summaries
        themselves."""
        # Prefetched arrival streams ARE the registry's cached streams, so
        # the generator draws the identical sequence a per-step
        # ``rng.stream(f"arrivals/{name}")`` lookup would have drawn.
        streams = RngStreams(7)
        loads = [
            ServiceLoad(
                service=f"svc-{i}",
                profile=CPU_BOUND,
                pattern=HighBurstLoad(base=4.0, peak=14.0, period=40.0, duty=0.4),
            )
            for i in range(2)
        ]
        generator = ClientLoadGenerator(loads, streams, sink=lambda request: None)
        for load, stream in generator._streams:
            assert stream is streams.stream(f"arrivals/{load.service}")

        # Module-level sort keys order exactly as the lambdas they replaced.
        replicas = [_FakeReplica("c3", 0.2), _FakeReplica("c1", 0.9), _FakeReplica("c2", 0.5)]
        assert sorted(replicas, key=_by_container_id, reverse=True) == sorted(
            replicas, key=lambda r: r.container_id, reverse=True
        )
        assert sorted(replicas, key=_by_cpu_utilization) == sorted(
            replicas, key=lambda r: r.cpu_utilization
        )
        assert sorted(replicas, key=_by_cpu_utilization_desc) == sorted(
            replicas, key=lambda r: -r.cpu_utilization
        )

        # The profiler formats each actor's phase label once, and the
        # labels equal the strings a per-step format would have built.
        profiler = PhaseProfiler()
        simulation = _fresh_simulation(seed=7, observe=Observe(profiler=profiler))
        simulation.engine.run_steps(2)
        names = simulation.engine.actor_names
        assert profiler.phase_names() == (*(f"actor:{name}" for name in names), "events")
        assert profiler._actor_labels == {name: f"actor:{name}" for name in names}

    def test_detflow_pass_is_behaviourally_inert(self):
        """DetFlow (DET101–104 / CON001–003) found no real violations to
        fix in ``src/repro`` — the tree analyzes clean with zero tainted
        paths — so the pin here is the analysis itself: running the full
        static pass between two same-seed runs must not perturb a single
        byte of the simulation, and the registries the contract checker
        audits must enumerate identically before and after."""
        from repro.devtools.flow import analyze_paths
        from repro.telemetry.sampling import registered_sampling_policies
        from tests.test_devtools_flow import REPO_ROOT

        before = _run_once(seed=7)
        names_before = (registered_policies(), registered_sampling_policies())
        analysis = analyze_paths(["src/repro"], root=REPO_ROOT)
        assert analysis.report.taint is not None
        assert analysis.report.taint.paths == ()
        assert analysis.report.contracts == ()
        after = _run_once(seed=7)
        assert after == before
        assert (registered_policies(), registered_sampling_policies()) == names_before

    def test_bitbrains_trace_is_a_pure_function_of_the_seed(self):
        trace_a = generate_bitbrains_trace(n_vms=8, duration=300.0, interval=30.0, seed=5)
        trace_b = generate_bitbrains_trace(n_vms=8, duration=300.0, interval=30.0, seed=5)
        for vm_a, vm_b in zip(trace_a.vms, trace_b.vms):
            assert (vm_a.cpu_pct == vm_b.cpu_pct).all()
            assert (vm_a.mem_frac == vm_b.mem_frac).all()

    def test_bitbrains_trace_stream_is_isolated_from_other_consumers(self):
        # Drawing from other named streams of the same root seed must not
        # perturb the trace (the RngStreams independence property, end to
        # end through the workload layer).
        streams = RngStreams(5)
        streams.stream("some/other/consumer").uniform(size=100)
        via_factory = generate_bitbrains_trace(n_vms=4, duration=120.0, interval=30.0, seed=5)
        via_stream = generate_bitbrains_trace(
            n_vms=4, duration=120.0, interval=30.0, rng=streams.stream("workloads/bitbrains")
        )
        for vm_a, vm_b in zip(via_factory.vms, via_stream.vms):
            assert (vm_a.cpu_pct == vm_b.cpu_pct).all()
