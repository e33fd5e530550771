"""The workload registry: one place where workload names become experiments.

Workload, profile, and application names resolve here and nowhere else.
Each kind is one :class:`~repro.names.NameRegistry`, the table type the
policy (:mod:`repro.core.registry`) and routing
(:mod:`repro.platform.routing`) names use too:

* **workloads** — ``register_workload`` / ``resolve_workload`` /
  ``registered_workloads``: experiment factories keyed by CLI name
  (``cpu``, ``memory``, ``bitbrains``, ...), each with a ``takes_burst``
  flag (the Bitbrains trace ignores the burst knob).
* **profiles** — ``register_profile`` / ``resolve_profile`` /
  ``registered_profiles``: per-request resource demand profiles keyed by
  name; application-graph tiers
  (:class:`~repro.cluster.microservice.MicroserviceSpec`) resolve their
  profiles here.
* **apps** — ``register_app`` / ``resolve_app`` / ``registered_apps``:
  multi-tier :class:`~repro.workloads.graph.ApplicationSpec` experiment
  factories for ``cli run --app``.

Built-in *workload* and *app* factories live in
:mod:`repro.experiments.configs`, which imports :mod:`repro.workloads` —
so they are registered lazily, on the first enumeration, resolve or
registration, rather than at import time.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import WorkloadError
from repro.names import NameRegistry
from repro.workloads.profiles import (
    CPU_BOUND,
    DISK_BOUND,
    MEMORY_BOUND,
    MIXED,
    NETWORK_BOUND,
    MicroserviceProfile,
)

#: An experiment factory: ``factory(burst, seed=...)`` or ``factory(seed=...)``
#: returning an :class:`~repro.experiments.configs.ExperimentSpec`.
WorkloadFactory = Callable[..., Any]


def _load_builtins() -> None:
    import repro.experiments.configs  # noqa: F401  (registers the built-ins)


_WORKLOADS: NameRegistry[tuple[WorkloadFactory, bool]] = NameRegistry(
    "workload",
    WorkloadError,
    lambda entry: callable(entry[0]),
    "a callable experiment factory",
    load=_load_builtins,
)
_APPS: NameRegistry[WorkloadFactory] = NameRegistry(
    "application",
    WorkloadError,
    callable,
    "a callable experiment factory",
    load=_load_builtins,
)
_PROFILES: NameRegistry[MicroserviceProfile] = NameRegistry(
    "profile",
    WorkloadError,
    lambda profile: isinstance(profile, MicroserviceProfile),
    "a MicroserviceProfile",
    {p.name: p for p in (CPU_BOUND, MEMORY_BOUND, NETWORK_BOUND, MIXED, DISK_BOUND)},
)


def registered_workloads() -> tuple[str, ...]:
    """Every resolvable workload name, sorted."""
    return _WORKLOADS.names()


def register_workload(
    name: str, factory: WorkloadFactory, *, takes_burst: bool = True, replace: bool = False
) -> None:
    """Add an experiment factory under ``name``.

    ``takes_burst`` declares whether the factory accepts the CLI's
    ``--burst`` knob as its first positional argument.  Raises
    :class:`~repro.errors.WorkloadError` if the name is not a non-empty
    string, ``factory`` is not callable, or the name is taken and
    ``replace`` is not set.
    """
    _WORKLOADS.register(name, (factory, takes_burst), replace=replace)


def resolve_workload(name: str) -> tuple[WorkloadFactory, bool]:
    """Coerce a workload name to ``(factory, takes_burst)``."""
    return _WORKLOADS.resolve(name)


def registered_apps() -> tuple[str, ...]:
    """Every resolvable application name, sorted."""
    return _APPS.names()


def register_app(name: str, factory: WorkloadFactory, *, replace: bool = False) -> None:
    """Add a multi-tier application experiment factory under ``name``."""
    _APPS.register(name, factory, replace=replace)


def resolve_app(name: str) -> WorkloadFactory:
    """Coerce an application name to its experiment factory."""
    return _APPS.resolve(name)


def registered_profiles() -> tuple[str, ...]:
    """Every resolvable profile name, sorted."""
    return _PROFILES.names()


def register_profile(profile: MicroserviceProfile, *, replace: bool = False) -> None:
    """Add a resource profile under its own name."""
    # The table checks the value before the name, so a non-profile without
    # a ``name`` is rejected as the wrong kind of value.
    _PROFILES.register(getattr(profile, "name", ""), profile, replace=replace)


def resolve_profile(name: str) -> MicroserviceProfile:
    """Coerce a profile name to its :class:`MicroserviceProfile`."""
    return _PROFILES.resolve(name)
