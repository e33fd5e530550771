"""The policy-name registry: one place where names become policies.

Section V-C: the scaling algorithm "can be specified at initialization or
through the command-line interface".  Before this module, that name-to-
policy mapping lived in :func:`repro.experiments.configs.make_policy` and
the CLI kept its own copy of the name list; extensions had no way to add an
algorithm without editing both.  The table (a
:class:`~repro.names.NameRegistry`) is now the single source of truth —
the CLI, the experiment specs, and :func:`resolve_policy` all read from
it, and :func:`register_policy` lets extension code plug in new
algorithms under their own names (see ``docs/extending.md``).

Anywhere the public API accepts an :class:`AutoscalingPolicy`, it also
accepts one of these names; :func:`resolve_policy` performs the coercion.
"""

from __future__ import annotations

from typing import Callable

from repro.config import SimulationConfig
from repro.core.disk import DiskHpa
from repro.core.elasticdocker import ElasticDockerPolicy
from repro.core.hyscale import HyScaleCpu
from repro.core.hyscale_mem import HyScaleCpuMem
from repro.core.kubernetes import KubernetesHpa
from repro.core.kubernetes_multi import KubernetesMemoryHpa, KubernetesMultiMetricHpa
from repro.core.network import NetworkHpa
from repro.core.policy import AutoscalingPolicy
from repro.core.predictive import PredictiveHyScale
from repro.errors import ExperimentError
from repro.names import NameRegistry

#: Algorithm names as the paper's figures label them.
ALGORITHMS = ("kubernetes", "hybrid", "hybridmem", "network")

#: Algorithms added by this reproduction beyond the paper's four.
EXTENSION_ALGORITHMS = ("disk", "elasticdocker", "predictive", "kubernetes-multi", "kubernetes-mem")

#: A factory builds a fresh policy for one run, sized by the run's config
#: (rescale intervals are per-run settings, not per-algorithm constants).
PolicyFactory = Callable[[SimulationConfig], AutoscalingPolicy]


def _interval_factory(
    cls: Callable[..., AutoscalingPolicy],
) -> PolicyFactory:
    """Factory for the interval-guarded controllers (all but ElasticDocker)."""

    def build(config: SimulationConfig) -> AutoscalingPolicy:
        return cls(
            scale_up_interval=config.scale_up_interval,
            scale_down_interval=config.scale_down_interval,
        )

    return build


_POLICIES: NameRegistry[PolicyFactory] = NameRegistry(
    "algorithm",
    ExperimentError,
    callable,
    "a policy factory (callable)",
    {
        "kubernetes": _interval_factory(KubernetesHpa),
        "network": _interval_factory(NetworkHpa),
        "hybrid": _interval_factory(HyScaleCpu),
        "hybridmem": _interval_factory(HyScaleCpuMem),
        "disk": _interval_factory(DiskHpa),
        "kubernetes-multi": _interval_factory(KubernetesMultiMetricHpa),
        "kubernetes-mem": _interval_factory(KubernetesMemoryHpa),
        "predictive": _interval_factory(PredictiveHyScale),
        # Threshold-driven and purely vertical: the rescale-interval knobs do
        # not apply (ElasticDocker has no horizontal operations).
        "elasticdocker": lambda config: ElasticDockerPolicy(),
    },
)


def registered_policies() -> tuple[str, ...]:
    """Every resolvable algorithm name, sorted."""
    return _POLICIES.names()


def register_policy(name: str, factory: PolicyFactory, *, replace: bool = False) -> None:
    """Add an algorithm under ``name`` so string-accepting APIs find it.

    Raises :class:`~repro.errors.ExperimentError` if the name is not a
    non-empty string, ``factory`` is not callable, or the name is taken
    and ``replace`` is not set.
    """
    _POLICIES.register(name, factory, replace=replace)


def make_policy(name: str, config: SimulationConfig | None = None) -> AutoscalingPolicy:
    """Build a fresh policy by name, sized by ``config``'s intervals."""
    return _POLICIES.resolve(name)(config or SimulationConfig())


def resolve_policy(
    policy: AutoscalingPolicy | str,
    config: SimulationConfig | None = None,
) -> AutoscalingPolicy:
    """Coerce ``policy`` to a policy object.

    Policy instances pass through untouched; strings are looked up in the
    registry and built with ``config``'s rescale intervals.  This is the
    one coercion point behind every API that accepts
    ``AutoscalingPolicy | str``.
    """
    if isinstance(policy, str):
        return make_policy(policy, config)
    if not isinstance(policy, AutoscalingPolicy):
        raise ExperimentError(
            f"expected an AutoscalingPolicy or algorithm name, got {type(policy).__name__}"
        )
    return policy
