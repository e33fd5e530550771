"""The one observation bundle and the engine's two step loops.

``Observe`` carries every instrument a run can be observed with; the
engine runs its bare loop when nothing observes it and one observed loop
otherwise, where the profiler, the sanitizer and telemetry's step
counters compose.  The headline contract: attaching all of them to one
run changes nothing the run produces.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ExperimentError
from repro.experiments.configs import cpu_bound
from repro.instrument import Observe, StepObserver
from repro.metrics.sla import Sla
from repro.obs import DecisionTracer, PhaseProfiler, spans_to_jsonl
from repro.sanitizer import SimSanitizer
from repro.sim.engine import Engine
from repro.telemetry import MetricRegistry, RunTelemetry, SloTracker, render_openmetrics

from tests.test_determinism_end_to_end import _fresh_simulation, _run_once


def _slo() -> SloTracker:
    return SloTracker(Sla(response_time_target=5.0, availability_target=0.95))


class _Recorder:
    """A step observer that logs every hook call into a shared list."""

    def __init__(self, tag: str, log: list) -> None:
        self.tag = tag
        self.log = log

    def begin_step(self, *, now: float, step: int) -> None:
        self.log.append((self.tag, "begin", now, step))

    def after_actor(self, *, name: str, now: float) -> None:
        self.log.append((self.tag, "after", name))

    def end_step(self, *, now: float, next_due: float | None, fired: int) -> None:
        self.log.append((self.tag, "end", next_due, fired))


class _Actor:
    def __init__(self, name: str, log: list) -> None:
        self.name = name
        self.log = log

    def on_step(self, clock) -> None:
        self.log.append(("actor", self.name))


class TestObserveBundle:
    def test_unset_fields_are_none_and_the_value_is_frozen(self):
        observe = Observe()
        assert all(getattr(observe, f.name) is None for f in dataclasses.fields(observe))
        with pytest.raises(dataclasses.FrozenInstanceError):
            observe.profiler = PhaseProfiler()  # type: ignore[misc]

    def test_slo_and_sampling_need_a_registry_at_construction(self):
        with pytest.raises(ExperimentError, match="SLO tracking needs a recording telemetry registry"):
            Observe(slo=_slo())
        with pytest.raises(ExperimentError, match="sampling policies need a recording telemetry registry"):
            Observe(sampling="adaptive")
        Observe(telemetry=MetricRegistry(), slo=_slo(), sampling="adaptive")

    def test_observation_stays_out_of_the_run_identity(self):
        spec = cpu_bound("low", seed=3).to_run_spec("hybrid")
        before = spec.canonical_json()
        spec.build(observe=Observe(telemetry=MetricRegistry(), profiler=PhaseProfiler()))
        assert spec.canonical_json() == before
        assert "observe" not in {f.name for f in dataclasses.fields(spec)}


class TestEngineLoops:
    def test_observed_loop_brackets_each_actor_and_the_events(self):
        log: list = []
        engine = Engine(dt=0.5, observers=(_Recorder("a", log), _Recorder("b", log)))
        engine.add_actor("first", _Actor("first", log))
        engine.add_actor("second", _Actor("second", log))
        engine.call_at(0.5, lambda: log.append(("event",)))
        engine.call_at(3.0, lambda: None)
        engine.step()
        assert log == [
            ("a", "begin", 0.5, 1),
            ("b", "begin", 0.5, 1),
            ("actor", "first"),
            ("a", "after", "first"),
            ("b", "after", "first"),
            ("actor", "second"),
            ("a", "after", "second"),
            ("b", "after", "second"),
            ("event",),
            ("a", "end", 3.0, 1),
            ("b", "end", 3.0, 1),
        ]

    def test_every_observer_satisfies_the_protocol(self):
        observers = (PhaseProfiler(), SimSanitizer(), RunTelemetry(MetricRegistry()), _Recorder("r", []))
        for observer in observers:
            assert isinstance(observer, StepObserver)

    def test_an_unobserved_run_builds_no_telemetry_and_runs_bare(self, request):
        simulation = _fresh_simulation(seed=7)
        assert simulation.telemetry is None
        assert "telemetry" not in simulation.engine.actor_names
        if not request.config.getoption("--simsan"):
            # The --simsan lane attaches its recorder to every build.
            assert simulation.engine.observers == ()


class TestComposition:
    def test_all_observers_compose_without_perturbing_the_run(self):
        bare = _run_once(seed=7)

        # Each instrument on its own, for its own output.
        tracer_alone = DecisionTracer()
        _fresh_simulation(seed=7, observe=Observe(tracer=tracer_alone)).run(90.0)
        registry_alone = MetricRegistry()
        _fresh_simulation(
            seed=7, observe=Observe(telemetry=registry_alone, slo=_slo(), sampling="adaptive")
        ).run(90.0)

        tracer = DecisionTracer()
        profiler = PhaseProfiler()
        registry = MetricRegistry()
        sanitizer = SimSanitizer()
        observe = Observe(
            tracer=tracer,
            profiler=profiler,
            telemetry=registry,
            slo=_slo(),
            sanitizer=sanitizer,
            sampling="adaptive",
        )
        simulation = _fresh_simulation(seed=7, observe=observe)
        summary = simulation.run(90.0)
        observed = (
            summary.to_dict(),
            list(simulation.collector.events.events()),
            list(simulation.collector.timeline),
        )
        assert observed == bare

        # Every observer saw every step of the one observed loop.
        engine = simulation.engine
        assert engine.observers == (sanitizer, simulation.telemetry, profiler)
        assert sanitizer.violations() == ()
        assert sanitizer.steps_checked == profiler.steps == engine.clock.step == 180
        assert registry.get("sim_steps").labels().value == engine.clock.step
        names = engine.actor_names
        assert profiler.phase_names() == (*(f"actor:{name}" for name in names), "events")
        assert all(profiler.calls(phase) == engine.clock.step for phase in profiler.phase_names())

        # ...and composing them changed no observer's own output.
        assert spans_to_jsonl(tracer.spans()) == spans_to_jsonl(tracer_alone.spans())
        assert render_openmetrics(registry) == render_openmetrics(registry_alone)
