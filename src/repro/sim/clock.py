"""Simulated clock.

The whole system advances in fixed steps of ``dt`` seconds.  Components never
read wall-clock time; they receive the :class:`SimClock` and query
:attr:`SimClock.now`.  This is what makes runs fully deterministic and lets
experiments compress an hour of "cluster time" into seconds of real time.
"""

from __future__ import annotations

from repro.errors import ClockError


class SimClock:
    """Monotonic discrete-time clock.

    Parameters
    ----------
    dt:
        Step width in simulated seconds.  Must be positive.
    start:
        Initial time in simulated seconds (defaults to 0).
    """

    __slots__ = ("_dt", "_now", "_step")

    def __init__(self, dt: float = 0.5, start: float = 0.0):
        if dt <= 0:
            raise ClockError(f"dt must be positive, got {dt}")
        if start < 0:
            raise ClockError(f"start must be non-negative, got {start}")
        self._dt = float(dt)
        self._now = float(start)
        self._step = 0

    @property
    def dt(self) -> float:
        """Step width in simulated seconds."""
        return self._dt

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def step(self) -> int:
        """Number of completed steps since the start of the run."""
        return self._step

    def advance(self) -> float:
        """Advance the clock by one step and return the new time."""
        self._step += 1
        # Recompute from the step index instead of accumulating ``+= dt`` so
        # that long runs do not drift from floating-point error.
        self._now = self._step * self._dt
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimClock(now={self._now:.3f}, dt={self._dt}, step={self._step})"
