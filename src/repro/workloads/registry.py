"""The workload registry: one place where workload names become experiments.

Workload, profile, and application names resolve here and nowhere else,
mirroring :mod:`repro.core.registry` (policies) and
:mod:`repro.platform.routing` (routing):

* **workloads** — ``register_workload`` / ``resolve_workload`` /
  ``registered_workloads``: experiment factories keyed by CLI name
  (``cpu``, ``memory``, ``bitbrains``, ...), each with a ``takes_burst``
  flag (the Bitbrains trace ignores the burst knob).
* **profiles** — ``register_profile`` / ``resolve_profile`` /
  ``registered_profiles``: per-request resource demand profiles keyed by
  name; :class:`~repro.workloads.graph.ServiceSpec` tiers resolve their
  profiles here.
* **apps** — ``register_app`` / ``resolve_app`` / ``registered_apps``:
  multi-tier :class:`~repro.workloads.graph.ApplicationSpec` experiment
  factories for ``cli run --app``.

Built-in *workload* and *app* factories live in
:mod:`repro.experiments.configs`, which imports :mod:`repro.workloads` —
so they are registered lazily on first enumeration/resolve rather than at
import time, breaking the cycle the way
:meth:`~repro.telemetry.sampling.resolve_sampling` does for controllers.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import WorkloadError
from repro.workloads.profiles import PROFILES, MicroserviceProfile

#: An experiment factory: ``factory(burst, seed=...)`` or ``factory(seed=...)``
#: returning an :class:`~repro.experiments.configs.ExperimentSpec`.
WorkloadFactory = Callable[..., Any]


class _WorkloadRegistry:
    """Name -> factory/profile/app tables.

    The tables live on an instance (not bare module dicts) so lookup paths
    that run inside sweep workers carry no module-level mutable state
    (PAR001); after the lazy built-in load they are only read, so every
    worker resolves identically.
    """

    def __init__(self) -> None:
        self._workloads: dict[str, tuple[WorkloadFactory, bool]] = {}
        self._apps: dict[str, WorkloadFactory] = {}
        self._profiles: dict[str, MicroserviceProfile] = dict(PROFILES)
        self._builtins_loaded = False

    def _ensure_builtins(self) -> None:
        if self._builtins_loaded:
            return
        # Set the flag *before* the import: configs registers its built-ins
        # at import time via register_workload/register_app, which re-enter
        # this registry.
        self._builtins_loaded = True
        import repro.experiments.configs  # noqa: F401  (registers built-ins)

    # -- workloads -----------------------------------------------------
    def workload_names(self) -> tuple[str, ...]:
        self._ensure_builtins()
        return tuple(sorted(self._workloads))

    def add_workload(
        self, name: str, factory: WorkloadFactory, *, takes_burst: bool, replace: bool
    ) -> None:
        if not name:
            raise WorkloadError("workload name must be non-empty")
        if not callable(factory):
            raise WorkloadError(f"workload {name!r} factory must be callable")
        if name in self._workloads and not replace:
            raise WorkloadError(f"workload {name!r} is already registered")
        self._workloads[name] = (factory, takes_burst)

    def resolve_workload(self, name: str) -> tuple[WorkloadFactory, bool]:
        self._ensure_builtins()
        try:
            return self._workloads[name]
        except KeyError:
            raise WorkloadError(
                f"unknown workload {name!r}; known: {self.workload_names()}"
            ) from None

    # -- apps ----------------------------------------------------------
    def app_names(self) -> tuple[str, ...]:
        self._ensure_builtins()
        return tuple(sorted(self._apps))

    def add_app(self, name: str, factory: WorkloadFactory, *, replace: bool) -> None:
        if not name:
            raise WorkloadError("application name must be non-empty")
        if not callable(factory):
            raise WorkloadError(f"application {name!r} factory must be callable")
        if name in self._apps and not replace:
            raise WorkloadError(f"application {name!r} is already registered")
        self._apps[name] = factory

    def resolve_app(self, name: str) -> WorkloadFactory:
        self._ensure_builtins()
        try:
            return self._apps[name]
        except KeyError:
            raise WorkloadError(
                f"unknown application {name!r}; known: {self.app_names()}"
            ) from None

    # -- profiles ------------------------------------------------------
    def profile_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._profiles))

    def add_profile(self, profile: MicroserviceProfile, *, replace: bool) -> None:
        if not isinstance(profile, MicroserviceProfile):
            raise WorkloadError("register_profile takes a MicroserviceProfile")
        if profile.name in self._profiles and not replace:
            raise WorkloadError(f"profile {profile.name!r} is already registered")
        self._profiles[profile.name] = profile

    def resolve_profile(self, name: str) -> MicroserviceProfile:
        try:
            return self._profiles[name]
        except KeyError:
            raise WorkloadError(
                f"unknown profile {name!r}; known: {sorted(self._profiles)}"
            ) from None


_REGISTRY = _WorkloadRegistry()


def registered_workloads() -> tuple[str, ...]:
    """Every resolvable workload name, sorted."""
    return _REGISTRY.workload_names()


def register_workload(
    name: str, factory: WorkloadFactory, *, takes_burst: bool = True, replace: bool = False
) -> None:
    """Add an experiment factory under ``name``.

    ``takes_burst`` declares whether the factory accepts the CLI's
    ``--burst`` knob as its first positional argument.  Raises
    :class:`~repro.errors.WorkloadError` if the name is taken and
    ``replace`` is not set.
    """
    _REGISTRY.add_workload(name, factory, takes_burst=takes_burst, replace=replace)


def resolve_workload(name: str) -> tuple[WorkloadFactory, bool]:
    """Coerce a workload name to ``(factory, takes_burst)``."""
    return _REGISTRY.resolve_workload(name)


def registered_apps() -> tuple[str, ...]:
    """Every resolvable application name, sorted."""
    return _REGISTRY.app_names()


def register_app(name: str, factory: WorkloadFactory, *, replace: bool = False) -> None:
    """Add a multi-tier application experiment factory under ``name``."""
    _REGISTRY.add_app(name, factory, replace=replace)


def resolve_app(name: str) -> WorkloadFactory:
    """Coerce an application name to its experiment factory."""
    return _REGISTRY.resolve_app(name)


def registered_profiles() -> tuple[str, ...]:
    """Every resolvable profile name, sorted."""
    return _REGISTRY.profile_names()


def register_profile(profile: MicroserviceProfile, *, replace: bool = False) -> None:
    """Add a resource profile under its own name."""
    _REGISTRY.add_profile(profile, replace=replace)


def resolve_profile(name: str) -> MicroserviceProfile:
    """Coerce a profile name to its :class:`MicroserviceProfile`."""
    return _REGISTRY.resolve_profile(name)
