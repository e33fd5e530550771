"""Tests for the scheduled-event queue."""

import pytest

from repro.errors import ClockError
from repro.sim.events import EventQueue


class TestScheduling:
    def test_fires_due_events(self):
        queue = EventQueue()
        fired = []
        queue.schedule_at(1.0, lambda: fired.append("a"))
        queue.schedule_at(2.0, lambda: fired.append("b"))
        assert queue.fire_due(1.5) == 1
        assert fired == ["a"]

    def test_fires_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule_at(3.0, lambda: fired.append("late"))
        queue.schedule_at(1.0, lambda: fired.append("early"))
        queue.fire_due(5.0)
        assert fired == ["early", "late"]

    def test_equal_times_fire_in_insertion_order(self):
        queue = EventQueue()
        fired = []
        for tag in ("first", "second", "third"):
            queue.schedule_at(1.0, lambda t=tag: fired.append(t))
        queue.fire_due(1.0)
        assert fired == ["first", "second", "third"]

    def test_rejects_negative_times(self):
        queue = EventQueue()
        with pytest.raises(ClockError):
            queue.schedule_at(-1.0, lambda: None)


class TestCancellation:
    def test_cancelled_events_do_not_fire(self):
        queue = EventQueue()
        fired = []
        event = queue.schedule_at(1.0, lambda: fired.append("x"))
        event.cancel()
        assert queue.fire_due(2.0) == 0
        assert fired == []

    def test_len_excludes_cancelled(self):
        queue = EventQueue()
        keep = queue.schedule_at(1.0, lambda: None)
        drop = queue.schedule_at(2.0, lambda: None)
        drop.cancel()
        assert len(queue) == 1
        assert keep.due == 1.0

    def test_next_due_skips_cancelled(self):
        queue = EventQueue()
        first = queue.schedule_at(1.0, lambda: None)
        queue.schedule_at(2.0, lambda: None)
        first.cancel()
        assert queue.next_due() == 2.0

    def test_next_due_empty(self):
        assert EventQueue().next_due() is None


class TestCascades:
    def test_event_scheduling_past_event_fires_same_call(self):
        queue = EventQueue()
        fired = []

        def outer():
            fired.append("outer")
            queue.schedule_at(0.5, lambda: fired.append("inner"))

        queue.schedule_at(1.0, outer)
        queue.fire_due(1.0)
        assert fired == ["outer", "inner"]

    def test_future_events_stay_queued(self):
        queue = EventQueue()
        fired = []
        queue.schedule_at(1.0, lambda: queue.schedule_at(10.0, lambda: fired.append("later")))
        queue.fire_due(1.0)
        assert fired == []
        queue.fire_due(10.0)
        assert fired == ["later"]
