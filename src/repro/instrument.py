"""The one observation bundle and the engine's step-observer contract.

A run is observed through one frozen :class:`Observe` value handed to
``Simulation.build(observe=...)`` (and ``RunSpec.build``/``run``).  Each
field is one optional instrument; an unset field is ``None`` and costs
nothing:

* ``tracer`` — decision traces (:mod:`repro.obs`), reported into by the
  monitor and the policy;
* ``profiler`` — per-phase wall time (:class:`~repro.obs.PhaseProfiler`);
* ``telemetry`` — a recording :class:`~repro.telemetry.MetricRegistry`,
  with optional ``slo`` burn-rate tracking and a ``sampling`` policy on
  top (both need the registry);
* ``sanitizer`` — runtime invariant checks (:mod:`repro.sanitizer`).

The engine runs one of exactly two loops.  With no observer attached it
runs the bare loop, which contains no instrument check at all.  Otherwise
it runs one observed loop that calls every :class:`StepObserver`'s
``begin_step``/``after_actor``/``end_step`` hooks; the profiler, the
sanitizer and telemetry's step counters are all observers, so they
compose in one run.  Observation never feeds back into the simulation:
an observed run is bit-identical to the bare one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.errors import ExperimentError

if TYPE_CHECKING:  # pragma: no cover - typing only (keeps repro.sim import-light)
    from repro.obs.profiler import PhaseProfiler
    from repro.obs.tracer import Tracer
    from repro.sanitizer.api import Sanitizer
    from repro.telemetry.registry import MetricRegistry
    from repro.telemetry.slo import SloTracker


@runtime_checkable
class StepObserver(Protocol):
    """What the engine's observed loop calls around every step.

    All hooks are keyword-only.  An observer may read any simulation state
    but must never write it.
    """

    def begin_step(self, *, now: float, step: int) -> None:
        """The clock has advanced to ``now``; no actor has run yet."""
        ...  # pragma: no cover - protocol stub

    def after_actor(self, *, name: str, now: float) -> None:
        """The actor registered as ``name`` finished its step."""
        ...  # pragma: no cover - protocol stub

    def end_step(self, *, now: float, next_due: float | None, fired: int) -> None:
        """Due events fired (``fired`` of them); ``next_due`` is the queue head."""
        ...  # pragma: no cover - protocol stub


@dataclass(frozen=True)
class Observe:
    """Everything that observes one run, and nothing that changes it.

    Never part of a run's identity: a ``RunSpec``'s canonical JSON (and so
    its cache key) is the same whatever a run is observed with.
    """

    tracer: Tracer | None = None
    profiler: PhaseProfiler | None = None
    telemetry: MetricRegistry | None = None
    slo: SloTracker | None = None
    sanitizer: Sanitizer | None = None
    #: A registered sampling-policy name; ``None`` is full-cadence sampling.
    sampling: str | None = None

    def __post_init__(self) -> None:
        if self.slo is not None and self.telemetry is None:
            raise ExperimentError("SLO tracking needs a recording telemetry registry")
        if self.sampling is not None and self.telemetry is None:
            raise ExperimentError("sampling policies need a recording telemetry registry")


__all__ = ["Observe", "StepObserver"]
