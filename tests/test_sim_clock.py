"""Tests for the simulated clock."""

import pytest

from repro.errors import ClockError
from repro.sim.clock import SimClock


class TestConstruction:
    def test_defaults(self):
        clock = SimClock()
        assert clock.now == 0.0
        assert clock.step == 0
        assert clock.dt == 0.5

    def test_custom_start(self):
        clock = SimClock(dt=1.0, start=10.0)
        assert clock.now == 10.0

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ClockError):
            SimClock(dt=0.0)
        with pytest.raises(ClockError):
            SimClock(dt=-1.0)

    def test_rejects_negative_start(self):
        with pytest.raises(ClockError):
            SimClock(start=-1.0)


class TestAdvance:
    def test_advance_returns_new_time(self):
        clock = SimClock(dt=0.5)
        assert clock.advance() == 0.5
        assert clock.advance() == 1.0

    def test_step_counter(self):
        clock = SimClock(dt=0.25)
        for _ in range(10):
            clock.advance()
        assert clock.step == 10

    def test_no_floating_point_drift(self):
        # 0.1 is not representable in binary; a naive ``now += dt`` drifts.
        clock = SimClock(dt=0.1)
        for _ in range(10_000):
            clock.advance()
        assert clock.now == pytest.approx(1000.0, abs=1e-9)
