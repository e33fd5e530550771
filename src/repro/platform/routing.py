"""The routing-policy registry: one place where routing names become policies.

Mirrors :mod:`repro.core.registry` (policies): the CLI's ``--routing`` flag,
per-edge ``CallEdge.routing`` names in an application graph, and the
run-level :class:`~repro.experiments.spec.RunSpec` field all resolve names
here, and :func:`register_routing` lets extension code alias or add
spellings for :class:`~repro.platform.load_balancer.RoutingPolicy` members.
"""

from __future__ import annotations

from repro.errors import ExperimentError
from repro.platform.load_balancer import RoutingPolicy

#: The default routing policy name (the paper's weighted round-robin).
DEFAULT_ROUTING = RoutingPolicy.WEIGHTED_CPU.value


class _RoutingRegistry:
    """Name -> routing-policy table, populated with the built-ins.

    The table lives on an instance (not a bare module dict) so the lookup
    paths that run inside sweep workers carry no module-level mutable
    state; it is fully populated at import time and only read afterwards,
    so every worker resolves identically.
    """

    def __init__(self) -> None:
        self._entries: dict[str, RoutingPolicy] = {
            policy.value: policy for policy in RoutingPolicy
        }

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._entries))

    def add(self, name: str, policy: RoutingPolicy, *, replace: bool) -> None:
        if not name:
            raise ExperimentError("routing name must be non-empty")
        if not isinstance(policy, RoutingPolicy):
            raise ExperimentError(f"routing {name!r} must name a RoutingPolicy member")
        if name in self._entries and not replace:
            raise ExperimentError(f"routing {name!r} is already registered")
        self._entries[name] = policy

    def resolve(self, routing: str) -> RoutingPolicy:
        try:
            return self._entries[routing]
        except KeyError:
            raise ExperimentError(
                f"unknown routing policy {routing!r}; known: {self.names()}"
            ) from None


_REGISTRY = _RoutingRegistry()


def registered_routings() -> tuple[str, ...]:
    """Every resolvable routing name, sorted."""
    return _REGISTRY.names()


def register_routing(name: str, policy: RoutingPolicy, *, replace: bool = False) -> None:
    """Add (or alias) a routing policy under ``name``.

    Raises :class:`~repro.errors.ExperimentError` if the name is taken and
    ``replace`` is not set, or if ``policy`` is not a ``RoutingPolicy``.
    """
    _REGISTRY.add(name, policy, replace=replace)


def resolve_routing(routing: "RoutingPolicy | str") -> RoutingPolicy:
    """Coerce a routing name (or an already-resolved member) to a policy."""
    if isinstance(routing, RoutingPolicy):
        return routing
    return _REGISTRY.resolve(routing)
