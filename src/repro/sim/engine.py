"""Time-stepped simulation engine.

The engine owns the :class:`~repro.sim.clock.SimClock` and an ordered list of
*actors*.  Each step it:

1. advances the clock by ``dt``,
2. calls every actor's :meth:`SimActor.on_step` in registration order, and
3. fires all scheduled events that have come due.

Registration order is therefore the phase order of the simulation; the
experiment runner registers components in the order documented in
``DESIGN.md`` (arrivals -> routing -> compute -> network -> lifecycle ->
metrics).  Keeping the ordering explicit — rather than relying on dict
iteration or priorities — is what makes runs reproducible and the data flow
auditable.

A step runs one of two loops: the bare loop above, or, when step observers
are attached (:class:`~repro.instrument.StepObserver`), the same loop with
every observer's hooks called around the clock advance, each actor and the
event firing.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

from repro.errors import SimulationError
from repro.instrument import StepObserver
from repro.sim.clock import SimClock
from repro.sim.events import EventQueue, ScheduledEvent


@runtime_checkable
class SimActor(Protocol):
    """Anything the engine drives once per step."""

    def on_step(self, clock: SimClock) -> None:
        """Advance this component by one step ending at ``clock.now``."""
        ...  # pragma: no cover - protocol stub


class Engine:
    """Drives actors and scheduled events on a shared clock.

    Parameters
    ----------
    dt:
        Step width in simulated seconds.
    observers:
        :class:`~repro.instrument.StepObserver` instances (profiler,
        sanitizer, telemetry step counters) called around every step, in
        this order.  With none (the default) each step runs the bare loop,
        which has no instrument check inside it; with any, one observed
        loop calls every observer's hooks.  Observers only read state, so
        both loops produce the same run.
    """

    __slots__ = ("clock", "events", "observers", "_actors", "_running")

    def __init__(self, dt: float = 0.5, observers: tuple[StepObserver, ...] = ()):
        self.clock = SimClock(dt=dt)
        self.events = EventQueue()
        self.observers = tuple(observers)
        self._actors: list[tuple[str, SimActor]] = []
        self._running = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_actor(self, name: str, actor: SimActor) -> None:
        """Register ``actor`` to run each step, after all earlier actors."""
        if self._running:
            raise SimulationError("cannot add actors while the engine is running")
        if any(existing == name for existing, _ in self._actors):
            raise SimulationError(f"duplicate actor name: {name!r}")
        if not isinstance(actor, SimActor):
            raise SimulationError(f"actor {name!r} does not implement on_step()")
        self._actors.append((name, actor))

    @property
    def actor_names(self) -> list[str]:
        """Names of registered actors, in phase order."""
        return [name for name, _ in self._actors]

    # ------------------------------------------------------------------
    # Scheduling helpers (thin wrappers that inject the clock)
    # ------------------------------------------------------------------
    def call_at(self, due: float, callback: Callable[[], None], label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` at absolute simulated time ``due``."""
        return self.events.schedule_at(due, callback, label=label)

    def call_after(self, delay: float, callback: Callable[[], None], label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` ``delay`` seconds from now."""
        return self.events.schedule_after(self.clock.now, delay, callback, label=label)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Run exactly one simulation step."""
        self._running = True
        try:
            if self.observers:
                self._step_observed()
            else:
                self.clock.advance()
                for _, actor in self._actors:
                    actor.on_step(self.clock)
                self.events.fire_due(self.clock.now)
        finally:
            self._running = False

    def _step_observed(self) -> None:
        """One step with every observer's hooks around it."""
        observers = self.observers
        clock = self.clock
        clock.advance()
        now = clock.now
        step = clock.step
        for observer in observers:
            observer.begin_step(now=now, step=step)
        for name, actor in self._actors:
            actor.on_step(clock)
            for observer in observers:
                observer.after_actor(name=name, now=now)
        fired = self.events.fire_due(now)
        next_due = self.events.next_due()
        for observer in observers:
            observer.end_step(now=now, next_due=next_due, fired=fired)

    def run_for(self, duration: float) -> int:
        """Run until at least ``duration`` more simulated seconds pass.

        Returns the number of steps executed.
        """
        if duration < 0:
            raise SimulationError(f"duration must be non-negative, got {duration}")
        deadline = self.clock.now + duration
        steps = 0
        # ``now`` is recomputed from the step index, so strict comparison
        # against the deadline is stable (no accumulated drift).
        while self.clock.now + self.clock.dt <= deadline + 1e-9:
            self.step()
            steps += 1
        return steps

    def run_steps(self, n: int) -> None:
        """Run exactly ``n`` steps."""
        if n < 0:
            raise SimulationError(f"step count must be non-negative, got {n}")
        for _ in range(n):
            self.step()
