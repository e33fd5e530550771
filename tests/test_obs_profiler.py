"""PhaseProfiler tests: accumulation with an injected fake clock, the
report/render surfaces, and the engine's per-actor attribution."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.instrument import Observe
from repro.obs import PhaseProfiler
from repro.sim.engine import Engine


class FakeClock:
    """Deterministic monotonic counter standing in for the host clock."""

    def __init__(self, tick: float = 0.001):
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


class TestAccumulation:
    def test_observe_accumulates_seconds_and_calls(self):
        profiler = PhaseProfiler(timer=FakeClock())
        profiler.observe("cluster", 0.5)
        profiler.observe("cluster", 0.25)
        profiler.observe("lb", 0.1)
        assert profiler.seconds("cluster") == pytest.approx(0.75)
        assert profiler.calls("cluster") == 2
        assert profiler.total_seconds == pytest.approx(0.85)
        assert profiler.phase_names() == ("cluster", "lb")

    def test_negative_duration_raises(self):
        with pytest.raises(ObservabilityError):
            PhaseProfiler().observe("x", -1.0)

    def test_counters(self):
        profiler = PhaseProfiler()
        profiler.increment("metrics.samples")
        profiler.increment("metrics.samples", 4)
        assert profiler.counters() == {"metrics.samples": 5}

    def test_unseen_phase_reads_zero(self):
        profiler = PhaseProfiler()
        assert profiler.seconds("ghost") == 0.0
        assert profiler.calls("ghost") == 0


class TestReporting:
    def test_report_shares_sum_to_one(self):
        profiler = PhaseProfiler()
        profiler.observe("a", 3.0)
        profiler.observe("b", 1.0)
        profiler.count_step()
        report = profiler.report()
        assert report["steps"] == 1
        assert report["total_seconds"] == pytest.approx(4.0)
        phases = report["phases"]
        assert phases["a"]["share"] == pytest.approx(0.75)
        assert sum(p["share"] for p in phases.values()) == pytest.approx(1.0)

    def test_to_json_parses(self):
        profiler = PhaseProfiler()
        profiler.observe("a", 1.0)
        payload = json.loads(profiler.to_json())
        assert set(payload) == {"steps", "total_seconds", "phases", "counters"}

    def test_render_empty(self):
        assert PhaseProfiler().render() == "(no phases profiled)"

    def test_render_table(self):
        profiler = PhaseProfiler()
        profiler.observe("actor:cluster", 0.2)
        profiler.count_step()
        text = profiler.render()
        assert "actor:cluster" in text
        assert "steps=1" in text


class _Sleeper:
    """Actor that consumes a fixed number of fake-clock ticks per step."""

    def __init__(self, clock: FakeClock, ticks: int):
        self._clock = clock
        self._ticks = ticks

    def on_step(self, clock) -> None:
        for _ in range(self._ticks):
            self._clock()


class TestEngineAttribution:
    def test_engine_times_each_actor(self):
        fake = FakeClock(tick=0.001)
        profiler = PhaseProfiler(timer=fake)
        engine = Engine(dt=0.5, observers=(profiler,))
        engine.add_actor("fast", _Sleeper(fake, 1))
        engine.add_actor("slow", _Sleeper(fake, 9))
        engine.run_steps(4)
        assert profiler.steps == 4
        assert profiler.calls("actor:fast") == 4
        assert profiler.calls("actor:slow") == 4
        assert profiler.calls("events") == 4
        # The slow actor accumulates ~9x the fast one's wall time (each
        # bracketing timer() call adds one tick of its own).
        assert profiler.seconds("actor:slow") > profiler.seconds("actor:fast") * 4

    def test_engine_without_profiler_has_none(self):
        engine = Engine(dt=0.5)
        assert engine.observers == ()
        # No attribute to set after build: a profiler is attached only
        # through the observer tuple, where it composes with the rest.
        with pytest.raises(AttributeError):
            engine.profiler = PhaseProfiler()

    def test_profiling_does_not_change_results(self):
        """Same seed with and without a profiler: identical outputs."""
        from tests.test_determinism_end_to_end import _run_once
        from tests.test_determinism_end_to_end import _fresh_simulation

        untraced = _run_once(seed=7)
        profiler = PhaseProfiler()
        simulation = _fresh_simulation(seed=7, observe=Observe(profiler=profiler))
        summary = simulation.run(90.0)
        profiled = (
            summary.to_dict(),
            list(simulation.collector.events.events()),
            list(simulation.collector.timeline),
        )
        assert untraced == profiled
        assert profiler.steps == simulation.engine.clock.step > 0
