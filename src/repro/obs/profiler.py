"""Per-phase wall-time profiling of the simulation engine.

ROADMAP's north star ("as fast as the hardware allows") needs evidence
before optimization: which engine phase — ``generator``, ``lb``,
``cluster``, ``node-managers``, ``monitor``, ``metrics`` — actually burns
the wall-clock?  A :class:`PhaseProfiler` passed as
``Observe(profiler=...)`` is one of the engine's step observers: it
charges the wall time from one of its hooks to the next, its own
bookkeeping excluded, to ``actor:<name>`` (and to ``events`` for event
firing), accumulates arbitrary named counters, and renders them as a
table or a JSON report (the ``make profile`` / ``hyscale-repro profile``
artifact).  Observers compose, so with a sanitizer attached too each
actor's time includes the checks that run after it; such timings are
not representative.

Determinism note: the profiler is the one component that *may* read the
host clock, because its measurements feed only the profile report — never
simulator state, traces, or metrics.  The time source is injected (and
defaults to ``time.perf_counter``), so tests drive it with a fake counter
and simulation results remain a pure function of the configuration.
"""

from __future__ import annotations

import json
import time
from typing import Callable

from repro.errors import ObservabilityError

#: Default wall-time source.  A *reference*, never called at import time;
#: timings derived from it are reporting-only (see the module docstring).
DEFAULT_TIMER: Callable[[], float] = time.perf_counter


class PhaseProfiler:
    """Accumulates per-phase wall time and named counters for one run."""

    def __init__(self, timer: Callable[[], float] | None = None) -> None:
        #: The wall-time source the engine brackets each phase with.
        self.timer: Callable[[], float] = timer if timer is not None else DEFAULT_TIMER
        #: Completed engine steps.
        self.steps = 0
        self._seconds: dict[str, float] = {}
        self._calls: dict[str, int] = {}
        self._counters: dict[str, int] = {}
        #: Wall time the latest step hook returned (start of the next phase).
        self._mark = 0.0
        #: ``actor:<name>`` labels, formatted once per actor (HOT004).
        self._actor_labels: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Engine step observer
    # ------------------------------------------------------------------
    def begin_step(self, *, now: float, step: int) -> None:
        """Start timing the step's first actor."""
        self._mark = self.timer()

    def after_actor(self, *, name: str, now: float) -> None:
        """Charge the wall time since the previous hook to ``actor:<name>``."""
        elapsed = self.timer() - self._mark
        label = self._actor_labels.get(name)
        if label is None:
            label = self._actor_labels[name] = "actor:" + name
        self.observe(label, elapsed)
        self._mark = self.timer()

    def end_step(self, *, now: float, next_due: float | None, fired: int) -> None:
        """Charge event firing to ``events`` and count the step."""
        self.observe("events", self.timer() - self._mark)
        self.count_step()

    # ------------------------------------------------------------------
    # Recording (called by the engine / instrumented actors)
    # ------------------------------------------------------------------
    def observe(self, phase: str, seconds: float) -> None:
        """Add one timed execution of ``phase``."""
        if seconds < 0:
            raise ObservabilityError(f"negative duration for phase {phase!r}: {seconds}")
        self._seconds[phase] = self._seconds.get(phase, 0.0) + seconds
        self._calls[phase] = self._calls.get(phase, 0) + 1

    def count_step(self) -> None:
        """Mark one completed engine step."""
        self.steps += 1

    def increment(self, counter: str, amount: int = 1) -> None:
        """Bump a named counter (e.g. ``"metrics.samples"``)."""
        self._counters[counter] = self._counters.get(counter, 0) + amount

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def phase_names(self) -> tuple[str, ...]:
        """Phases seen so far, in first-observation (= engine phase) order."""
        return tuple(self._seconds)

    def seconds(self, phase: str) -> float:
        """Accumulated wall seconds of one phase (0.0 if never seen)."""
        return self._seconds.get(phase, 0.0)

    def calls(self, phase: str) -> int:
        """Times one phase executed (0 if never seen)."""
        return self._calls.get(phase, 0)

    def counters(self) -> dict[str, int]:
        """Snapshot of all named counters."""
        return dict(self._counters)

    @property
    def total_seconds(self) -> float:
        """Wall seconds across all phases."""
        return sum(self._seconds.values())

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> dict[str, object]:
        """The profile as plain data (the ``BENCH_phase_profile.json`` body)."""
        total = self.total_seconds
        phases: dict[str, dict[str, float | int]] = {}
        for name in self._seconds:
            seconds = self._seconds[name]
            calls = self._calls[name]
            phases[name] = {
                "seconds": seconds,
                "calls": calls,
                "share": seconds / total if total > 0 else 0.0,
                "mean_us": seconds / calls * 1e6 if calls else 0.0,
            }
        return {
            "steps": self.steps,
            "total_seconds": total,
            "phases": phases,
            "counters": dict(self._counters),
        }

    def to_json(self, indent: int = 2) -> str:
        """The report as a JSON document."""
        return json.dumps(self.report(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """The report as an aligned text table."""
        if not self._seconds:
            return "(no phases profiled)"
        total = self.total_seconds
        width = max(len(name) for name in self._seconds)
        lines = [f"{'phase':<{width}}  {'seconds':>9}  {'share':>6}  {'calls':>8}  {'mean':>9}"]
        for name in self._seconds:
            seconds = self._seconds[name]
            calls = self._calls[name]
            share = seconds / total if total > 0 else 0.0
            mean_us = seconds / calls * 1e6 if calls else 0.0
            lines.append(
                f"{name:<{width}}  {seconds:>9.4f}  {share:>5.1%}  {calls:>8d}  {mean_us:>7.1f}us"
            )
        lines.append(f"{'total':<{width}}  {total:>9.4f}  {1.0:>5.1%}  steps={self.steps}")
        if self._counters:
            lines.append("counters: " + ", ".join(f"{k}={v}" for k, v in sorted(self._counters.items())))
        return "\n".join(lines)
