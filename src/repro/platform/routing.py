"""The routing-policy registry: one place where routing names become policies.

One :class:`~repro.names.NameRegistry`, like the policy table in
:mod:`repro.core.registry`: the CLI's ``--routing`` flag,
per-edge ``CallEdge.routing`` names in an application graph, and the
run-level :class:`~repro.experiments.spec.RunSpec` field all resolve names
here, and :func:`register_routing` lets extension code alias or add
spellings for :class:`~repro.platform.load_balancer.RoutingPolicy` members.
"""

from __future__ import annotations

from repro.errors import ExperimentError
from repro.names import NameRegistry
from repro.platform.load_balancer import RoutingPolicy

#: The default routing policy name (the paper's weighted round-robin).
DEFAULT_ROUTING = RoutingPolicy.WEIGHTED_CPU.value


_ROUTINGS: NameRegistry[RoutingPolicy] = NameRegistry(
    "routing policy",
    ExperimentError,
    lambda policy: isinstance(policy, RoutingPolicy),
    "a RoutingPolicy member",
    {policy.value: policy for policy in RoutingPolicy},
)


def registered_routings() -> tuple[str, ...]:
    """Every resolvable routing name, sorted."""
    return _ROUTINGS.names()


def register_routing(name: str, policy: RoutingPolicy, *, replace: bool = False) -> None:
    """Add (or alias) a routing policy under ``name``.

    Raises :class:`~repro.errors.ExperimentError` if the name is not a
    non-empty string, ``policy`` is not a ``RoutingPolicy``, or the name is
    taken and ``replace`` is not set.
    """
    _ROUTINGS.register(name, policy, replace=replace)


def resolve_routing(routing: "RoutingPolicy | str") -> RoutingPolicy:
    """Coerce a routing name (or an already-resolved member) to a policy."""
    if isinstance(routing, RoutingPolicy):
        return routing
    return _ROUTINGS.resolve(routing)
