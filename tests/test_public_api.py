"""Public-API quality gates.

A downstream user sees ``repro`` and its subpackage ``__all__`` lists.
These tests keep that surface importable, documented, and free of
accidental omissions — the kind of rot integration tests don't notice.
"""

import importlib
import inspect

import pytest

PUBLIC_MODULES = (
    "repro",
    "repro.sim",
    "repro.cluster",
    "repro.dockersim",
    "repro.netsim",
    "repro.platform",
    "repro.core",
    "repro.obs",
    "repro.sanitizer",
    "repro.telemetry",
    "repro.workloads",
    "repro.metrics",
    "repro.experiments",
    "repro.analysis",
    "repro.parallel",
)


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_entries_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} must declare __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_docstrings(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), f"{module_name} missing docstring"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_objects_documented(module_name):
    """Every exported class/function carries a docstring."""
    module = importlib.import_module(module_name)
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__ and obj.__doc__.strip(), (
                f"{module_name}.{name} is public but undocumented"
            )


def test_top_level_covers_the_paper():
    """The names a paper reader would look for are one import away."""
    import repro

    for name in (
        "KubernetesHpa",
        "NetworkHpa",
        "HyScaleCpu",
        "HyScaleCpuMem",
        "Simulation",
        "SimulationConfig",
        "RunSummary",
    ):
        assert name in repro.__all__


def test_top_level_covers_the_decision_surface():
    """Types a policy author or trace reader needs are one import away."""
    import repro

    for name in (
        "ClusterView",
        "ScalingAction",
        "ScalingEvent",
        "ScalingEventLog",
        "TimelinePoint",
        "Tracer",
        "DecisionTracer",
        "PhaseProfiler",
        "resolve_policy",
    ):
        assert name in repro.__all__, f"repro.__all__ missing {name!r}"
        assert hasattr(repro, name)


def test_top_level_covers_the_sweep_surface():
    """The run/sweep description and execution types are one import away."""
    import repro

    for name in (
        "RunSpec",
        "SweepSpec",
        "SweepExecutor",
        "SweepResult",
        "ShardCache",
        "ShardError",
    ):
        assert name in repro.__all__, f"repro.__all__ missing {name!r}"
        assert hasattr(repro, name)


def test_no_private_names_leak():
    """``__all__`` never exports underscore-prefixed names, and the
    exported objects live in ``repro``-owned modules."""
    for module_name in PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert not name.startswith("_") or name == "__version__", (
                f"{module_name}.__all__ leaks private name {name!r}"
            )
            obj = getattr(module, name)
            owner = getattr(obj, "__module__", None)
            if owner is not None and (inspect.isclass(obj) or inspect.isfunction(obj)):
                assert owner.startswith("repro"), (
                    f"{module_name}.{name} is foreign ({owner})"
                )

def test_policies_have_unique_names():
    """Algorithm name strings are the CLI/summary identity — no collisions."""
    from repro.core import (
        DiskHpa,
        ElasticDockerPolicy,
        HyScaleCpu,
        HyScaleCpuMem,
        KubernetesHpa,
        KubernetesMemoryHpa,
        KubernetesMultiMetricHpa,
        NetworkHpa,
        PredictiveHyScale,
    )

    names = [
        cls.name
        for cls in (
            DiskHpa,
            ElasticDockerPolicy,
            HyScaleCpu,
            HyScaleCpuMem,
            KubernetesHpa,
            KubernetesMemoryHpa,
            KubernetesMultiMetricHpa,
            NetworkHpa,
            PredictiveHyScale,
        )
    ]
    assert len(set(names)) == len(names)


def test_make_policy_covers_all_registered_names():
    from repro.experiments.configs import ALGORITHMS, EXTENSION_ALGORITHMS, make_policy

    for name in ALGORITHMS + EXTENSION_ALGORITHMS:
        assert make_policy(name).name == name
