"""Scheduled-event queue used alongside the fixed-step loop.

Most of the simulator is time-stepped, but a few things are naturally
one-shot timers: container boot completion, delayed scaling actions, the
monitor's next tick.  The :class:`EventQueue` holds those callbacks and the
engine fires every event whose due time has been reached at the end of each
step.

Ties are broken by insertion order, which keeps runs deterministic even when
many events share a due time.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ClockError


@dataclass(order=True)
class ScheduledEvent:
    """An event waiting in the queue.

    Sort key is ``(due, seq)`` so equal-time events fire in insertion order.
    """

    due: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event so it is skipped when it comes due."""
        self.cancelled = True


class EventQueue:
    """Min-heap of :class:`ScheduledEvent`, keyed by due time."""

    def __init__(self) -> None:
        self._heap: list[ScheduledEvent] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return sum(1 for ev in self._heap if not ev.cancelled)

    def schedule_at(self, due: float, callback: Callable[[], None], label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` to fire once time ``due`` is reached."""
        if due < 0:
            raise ClockError(f"cannot schedule event at negative time {due}")
        event = ScheduledEvent(due=float(due), seq=next(self._seq), callback=callback, label=label)
        heapq.heappush(self._heap, event)
        return event

    def next_due(self) -> float | None:
        """Due time of the earliest live event, or ``None`` if empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].due if self._heap else None

    def fire_due(self, now: float) -> int:
        """Fire every live event with ``due <= now``; return how many fired.

        Events scheduled *by* a firing callback for a due time that has
        already passed fire within the same call, so cascades settle before
        the next simulation step.
        """
        fired = 0
        while self._heap and self._heap[0].due <= now:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            event.callback()
            fired += 1
        return fired
