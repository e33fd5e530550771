"""Tests for the time-stepped engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.engine import Engine


class Recorder:
    """Actor that records the time of each step it sees."""

    def __init__(self):
        self.times: list[float] = []

    def on_step(self, clock: SimClock) -> None:
        self.times.append(clock.now)


class TestActors:
    def test_actors_run_in_registration_order(self):
        engine = Engine(dt=1.0)
        order = []

        class Tagged:
            def __init__(self, tag):
                self.tag = tag

            def on_step(self, clock):
                order.append(self.tag)

        engine.add_actor("b-second", Tagged("second"))
        engine.add_actor("a-first-by-name-but-later", Tagged("third"))
        engine.step()
        assert order == ["second", "third"]

    def test_duplicate_names_rejected(self):
        engine = Engine()
        engine.add_actor("x", Recorder())
        with pytest.raises(SimulationError):
            engine.add_actor("x", Recorder())

    def test_non_actor_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.add_actor("bad", object())

    def test_actor_names(self):
        engine = Engine()
        engine.add_actor("one", Recorder())
        engine.add_actor("two", Recorder())
        assert engine.actor_names == ["one", "two"]


class TestRun:
    def test_run_for_executes_expected_steps(self):
        engine = Engine(dt=0.5)
        recorder = Recorder()
        engine.add_actor("r", recorder)
        steps = engine.run_for(10.0)
        assert steps == 20
        assert recorder.times[0] == 0.5
        assert recorder.times[-1] == pytest.approx(10.0)

    def test_run_steps(self):
        engine = Engine(dt=1.0)
        recorder = Recorder()
        engine.add_actor("r", recorder)
        engine.run_steps(7)
        assert len(recorder.times) == 7

    def test_run_for_rejects_negative(self):
        with pytest.raises(SimulationError):
            Engine().run_for(-1.0)

    def test_run_steps_rejects_negative(self):
        with pytest.raises(SimulationError):
            Engine().run_steps(-1)

    def test_consecutive_run_for_calls_accumulate(self):
        engine = Engine(dt=1.0)
        engine.run_for(3.0)
        engine.run_for(2.0)
        assert engine.clock.now == pytest.approx(5.0)


class TestEvents:
    def test_call_at_absolute(self):
        engine = Engine(dt=1.0)
        fired = []
        engine.call_at(4.0, lambda: fired.append(True))
        engine.run_for(3.0)
        assert fired == []
        engine.run_for(1.0)
        assert fired == [True]

    def test_events_fire_after_actors(self):
        engine = Engine(dt=1.0)
        order = []

        class A:
            def on_step(self, clock):
                order.append("actor")

        engine.add_actor("a", A())
        engine.call_at(1.0, lambda: order.append("event"))
        engine.step()
        assert order == ["actor", "event"]
