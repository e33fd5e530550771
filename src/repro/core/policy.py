"""Policy interface and planning helpers.

An :class:`AutoscalingPolicy` is a pure decision function: snapshot in,
actions out.  The MONITOR supports swapping policies "at initialization or
through the command-line interface" (Section V-C) — in code, any object
implementing this interface plugs in.

:class:`NodeLedger` solves the planning problem every multi-step policy has:
a view is a frozen snapshot, but as the policy emits actions (reclaim here,
acquire there, place a replica elsewhere) the *planned* availability of each
node changes.  The ledger tracks those provisional changes so one decision
round never double-spends a node's capacity.
"""

from __future__ import annotations

import abc

from repro.cluster.resources import ResourceVector
from repro.core.actions import ScalingAction
from repro.core.view import ClusterView
from repro.errors import PolicyError
from repro.obs.tracer import Tracer


class AutoscalingPolicy(abc.ABC):
    """The contract every scaling algorithm implements."""

    #: Short identifier used in summaries and benchmark tables
    #: (e.g. ``"kubernetes"``, ``"hybrid"``, ``"hybridmem"``, ``"network"``).
    name: str = "abstract"

    #: Decision-trace sink, or ``None`` (the default) when the run is not
    #: traced, so untraced policies build no evidence; the MONITOR
    #: re-points this at the run's tracer (see
    #: :meth:`repro.platform.monitor.Monitor.set_policy`).
    tracer: Tracer | None = None

    @abc.abstractmethod
    def decide(self, view: ClusterView) -> list[ScalingAction]:
        """Produce this period's scaling actions from a cluster snapshot."""

    def set_tracer(self, tracer: Tracer | None) -> None:
        """Point this policy's decision-evidence hooks at ``tracer``."""
        self.tracer = tracer


class NodeLedger:
    """Provisional per-node availability during one decision round.

    Initialized from the snapshot's reservations; ``take`` / ``release``
    record planned acquisitions and reclamations so later decisions in the
    same round see the updated headroom.  Also tracks which services each
    node hosts, since planned placements make a node ineligible for further
    replicas of the same service (the HyScale constraint).
    """

    def __init__(self, view: ClusterView, tracer: Tracer | None = None):
        self._available: dict[str, ResourceVector] = {}
        self._hosted: dict[str, set[str]] = {}
        self._tracer = tracer
        for node in view.nodes:
            self._available[node.name] = node.available
            self._hosted[node.name] = set(node.services)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def node_names(self) -> list[str]:
        """All node names, sorted (deterministic iteration)."""
        return sorted(self._available)

    def available(self, node: str) -> ResourceVector:
        """Planned availability of one node."""
        try:
            return self._available[node]
        except KeyError:
            raise PolicyError(f"ledger has no node {node!r}") from None

    def hosts(self, node: str, service: str) -> bool:
        """True if the node hosts (or is planned to host) the service."""
        if node not in self._hosted:
            raise PolicyError(f"ledger has no node {node!r}")
        return service in self._hosted[node]

    def candidates_for(
        self,
        service: str,
        minimum: ResourceVector,
        *,
        exclude_hosting: bool = True,
    ) -> list[str]:
        """Nodes able to host a new replica needing at least ``minimum``.

        Ordered by descending available CPU (spread-style), ties by name.
        """
        out: list[str] = []
        for name in self.node_names():
            if exclude_hosting and self.hosts(name, service):
                continue
            if minimum.fits_within(self._available[name]):
                out.append(name)
        out.sort(key=lambda n: (-self._available[n].cpu, n))
        return out

    # ------------------------------------------------------------------
    # Writes (planned mutations)
    # ------------------------------------------------------------------
    def take(self, node: str, amount: ResourceVector) -> None:
        """Reserve ``amount`` on ``node``; raises if it would go negative."""
        if not amount.is_nonnegative():
            raise PolicyError("cannot take a negative amount")
        remaining = self.available(node) - amount
        if not remaining.is_nonnegative():
            raise PolicyError(
                f"ledger overdraft on {node}: taking {amount} from {self.available(node)}"
            )
        self._available[node] = remaining
        if self._tracer is not None:
            self._tracer.record_ledger(
                op="take", node=node, cpu=amount.cpu, memory=amount.memory, network=amount.network
            )

    def release(self, node: str, amount: ResourceVector) -> None:
        """Return ``amount`` of reclaimed resources to ``node``."""
        if not amount.is_nonnegative():
            raise PolicyError("cannot release a negative amount")
        self._available[node] = self.available(node) + amount
        if self._tracer is not None:
            self._tracer.record_ledger(
                op="release", node=node, cpu=amount.cpu, memory=amount.memory, network=amount.network
            )

    def plan_placement(self, node: str, service: str, allocation: ResourceVector) -> None:
        """Reserve a new replica's allocation and mark the node as hosting."""
        self.take(node, allocation)
        self._hosted[node].add(service)
        if self._tracer is not None:
            self._tracer.record_ledger(
                op="plan-placement",
                node=node,
                service=service,
                cpu=allocation.cpu,
                memory=allocation.memory,
                network=allocation.network,
            )
