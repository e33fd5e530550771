"""Registry tests: the one name-to-policy coercion point behind every API
that accepts ``AutoscalingPolicy | str``."""

import pytest

from repro.config import SimulationConfig
from repro.core import (
    ALGORITHMS,
    EXTENSION_ALGORITHMS,
    HyScaleCpu,
    KubernetesHpa,
    make_policy,
    register_policy,
    registered_policies,
    resolve_policy,
)
from repro.core.registry import _POLICIES
from repro.errors import ExperimentError


class TestResolvePolicy:
    def test_instances_pass_through_untouched(self):
        policy = HyScaleCpu()
        assert resolve_policy(policy) is policy

    def test_names_build_fresh_policies(self):
        first = resolve_policy("hybrid")
        second = resolve_policy("hybrid")
        assert isinstance(first, HyScaleCpu)
        assert first is not second

    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(ExperimentError, match="unknown algorithm"):
            resolve_policy("does-not-exist")

    def test_non_policy_object_raises(self):
        with pytest.raises(ExperimentError, match="expected an AutoscalingPolicy"):
            resolve_policy(42)  # type: ignore[arg-type]

    def test_config_intervals_flow_into_the_policy(self):
        config = SimulationConfig(scale_up_interval=7.0, scale_down_interval=70.0)
        policy = resolve_policy("kubernetes", config)
        assert isinstance(policy, KubernetesHpa)
        assert policy.guard.up_interval == 7.0
        assert policy.guard.down_interval == 70.0


class TestRegistryContents:
    def test_every_paper_and_extension_algorithm_is_registered(self):
        names = registered_policies()
        for name in ALGORITHMS + EXTENSION_ALGORITHMS:
            assert name in names

    def test_registered_names_are_sorted_and_resolvable(self):
        names = registered_policies()
        assert list(names) == sorted(names)
        for name in names:
            assert resolve_policy(name).name == name

    def test_make_policy_defaults_config(self):
        policy = make_policy("kubernetes")
        assert policy.guard.up_interval == SimulationConfig().scale_up_interval

    def test_all_three_registries_enumerate_sorted_and_stable(self):
        # Enumeration order is part of the determinism contract: CLI help,
        # error listings, and sweep shard keys all consume these tuples.
        from repro.platform.routing import registered_routings
        from repro.telemetry.sampling import registered_sampling_policies
        from repro.workloads.registry import (
            registered_apps,
            registered_profiles,
            registered_workloads,
        )

        for names in (
            registered_policies(),
            registered_routings(),
            registered_sampling_policies(),
            registered_workloads(),
            registered_apps(),
            registered_profiles(),
        ):
            assert isinstance(names, tuple)
            assert list(names) == sorted(names)
            assert len(set(names)) == len(names)

    def test_late_registration_keeps_enumeration_sorted(self):
        # A name sorting before the built-ins must slot in, not append.
        name = "aaa-registry-order-probe"
        try:
            register_policy(name, lambda config: HyScaleCpu())
            names = registered_policies()
            assert list(names) == sorted(names)
            assert names[0] == name
        finally:
            _POLICIES._entries.pop(name, None)


class TestRegisterPolicy:
    def test_extension_policies_can_register_and_resolve(self):
        name = "test-registry-probe"
        try:
            register_policy(name, lambda config: HyScaleCpu())
            assert name in registered_policies()
            assert isinstance(resolve_policy(name), HyScaleCpu)
        finally:
            _POLICIES._entries.pop(name, None)

    def test_duplicate_registration_raises_unless_replaced(self):
        name = "test-registry-dup"
        try:
            register_policy(name, lambda config: HyScaleCpu())
            with pytest.raises(ExperimentError, match="already registered"):
                register_policy(name, lambda config: HyScaleCpu())
            register_policy(name, lambda config: KubernetesHpa(), replace=True)
            assert isinstance(resolve_policy(name), KubernetesHpa)
        finally:
            _POLICIES._entries.pop(name, None)

    def test_empty_name_rejected(self):
        with pytest.raises(ExperimentError, match="non-empty"):
            register_policy("", lambda config: HyScaleCpu())

    def test_non_string_name_rejected_and_listing_survives(self):
        # An int key would make every later sorted() listing (and with it
        # the CLI's --help) raise TypeError.
        with pytest.raises(ExperimentError, match="non-empty"):
            register_policy(3, lambda config: HyScaleCpu())  # type: ignore[arg-type]
        names = registered_policies()
        assert list(names) == sorted(names)

    def test_non_callable_factory_rejected_at_registration(self):
        with pytest.raises(ExperimentError, match="callable"):
            register_policy("test-registry-not-callable", 42)  # type: ignore[arg-type]
        assert "test-registry-not-callable" not in registered_policies()


class TestStringAcceptingSurfaces:
    def test_simulation_build_accepts_a_name(self):
        from tests.test_determinism_end_to_end import _fresh_simulation

        simulation = _fresh_simulation(seed=2)
        # Same wiring, but by name through the public entry point.
        from repro.experiments.configs import cpu_bound
        from repro.experiments.runner import Simulation

        spec = cpu_bound("low", seed=2)
        by_name = Simulation.build(
            config=spec.config,
            specs=list(spec.specs),
            loads=list(spec.loads),
            policy="hybrid",
            workload_label=spec.label,
        )
        assert by_name.policy.name == "hybrid"
        assert simulation is not by_name

    def test_monitor_set_policy_accepts_a_name(self):
        from tests.test_determinism_end_to_end import _fresh_simulation

        simulation = _fresh_simulation(seed=2)
        simulation.monitor.set_policy("kubernetes")
        assert simulation.monitor.policy.name == "kubernetes"
