"""The :class:`Sanitizer` contract.

A sanitizer is an engine :class:`~repro.instrument.StepObserver` (it
brackets every step) that also audits each monitor view.  A run observes
one through ``Observe(sanitizer=...)``; a run without one executes the
bare engine loop and skips view audits entirely.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.instrument import StepObserver

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from collections.abc import Mapping

    from repro.cluster.cluster import Cluster
    from repro.core.view import ClusterView
    from repro.platform.node_manager import NodeManager


@runtime_checkable
class Sanitizer(StepObserver, Protocol):
    """What the engine and monitor require of a simulation sanitizer.

    ``Simulation.build`` binds it to the run's cluster and node managers; the three
    step-observer hooks then bracket every engine step (open, after each
    actor, close) and :meth:`check_view` audits each monitor view.  Any object with these members plugs into
    ``Observe(sanitizer=...)``.  All hooks are keyword-only so
    implementations can evolve without positional breakage (the same
    convention as :class:`~repro.obs.Tracer`).
    """

    def bind(self, *, cluster: "Cluster", node_managers: "Mapping[str, NodeManager]") -> None:
        """Attach the cluster whose invariants this sanitizer audits, and the
        node managers (by node name) whose frames it may read."""
        ...  # pragma: no cover - protocol stub

    def check_view(self, *, now: float, view: "ClusterView") -> None:
        """Audit a freshly built monitor view against live cluster state."""
        ...  # pragma: no cover - protocol stub
