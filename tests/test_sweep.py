"""Tests for the canonical run/sweep spec layer (``repro.experiments.spec``).

Covers the ``repro.sweep/1`` codec (every built-in load pattern, configs,
fleets), canonical-JSON stability, the documented shard-seed derivations,
and grid construction.
"""

import json
from dataclasses import replace

import pytest

from repro.errors import ExperimentError
from repro.experiments.configs import ALGORITHMS, cpu_bound
from repro.experiments.spec import (
    SEED_MODES,
    SWEEP_SCHEMA,
    RunSpec,
    SweepSpec,
    derive_shard_seed,
    pattern_from_dict,
    pattern_to_dict,
)
from repro.workloads.patterns import (
    CompositeLoad,
    ConstantLoad,
    DiurnalLoad,
    FlashCrowdLoad,
    HighBurstLoad,
    LowBurstLoad,
    TraceLoad,
)


def canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def small_experiment(seed=0, n=2, duration=20.0):
    """A fast 2-service cell derived from the canonical cpu_bound cell."""
    spec = cpu_bound("low", seed=seed)
    return replace(spec, duration=duration, specs=spec.specs[:n], loads=spec.loads[:n])


# ----------------------------------------------------------------------
# Load-pattern codec
# ----------------------------------------------------------------------
PATTERNS = [
    ConstantLoad(rate=4.5),
    LowBurstLoad(base=8.0, amplitude=0.4, period=120.0, phase=30.0),
    HighBurstLoad(base=4.0, peak=20.0, period=150.0, duty=0.3, phase=10.0, ramp=6.0),
    DiurnalLoad(trough=2.0, peak=9.0, day_length=86400.0, peak_at=0.6, phase=100.0),
    FlashCrowdLoad(base=3.0, peak=30.0, onset=60.0, rise_tau=5.0, decay_tau=40.0),
    TraceLoad(times=(0.0, 10.0, 20.0), rates=(1.0, 5.0, 2.0), loop=True),
    CompositeLoad([ConstantLoad(rate=1.0), LowBurstLoad(base=2.0)]),
]


class TestPatternCodec:
    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: type(p).__name__)
    def test_round_trip(self, pattern):
        encoded = pattern_to_dict(pattern)
        decoded = pattern_from_dict(json.loads(json.dumps(encoded)))
        assert type(decoded) is type(pattern)
        assert canonical(pattern_to_dict(decoded)) == canonical(encoded)

    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: type(p).__name__)
    def test_round_trip_preserves_rates(self, pattern):
        decoded = pattern_from_dict(pattern_to_dict(pattern))
        for t in (0.0, 7.0, 33.0, 121.0):
            assert decoded.rate(t) == pattern.rate(t)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ExperimentError):
            pattern_from_dict({"type": "lunar", "rate": 1.0})

    def test_foreign_pattern_rejected(self):
        class Custom:
            def rate(self, t):
                return 1.0

        with pytest.raises(ExperimentError):
            pattern_to_dict(Custom())


# ----------------------------------------------------------------------
# RunSpec codec + validation
# ----------------------------------------------------------------------
class TestRunSpec:
    def test_round_trip_is_identity(self):
        spec = small_experiment(seed=3).to_run_spec("hybrid")
        document = json.loads(spec.canonical_json())
        assert document["schema"] == SWEEP_SCHEMA
        decoded = RunSpec.from_dict(document)
        # Load patterns are plain classes (no __eq__), so identity is
        # witnessed by the canonical encoding, plus the value fields.
        assert decoded.canonical_json() == spec.canonical_json()
        assert (decoded.label, decoded.policy, decoded.seed, decoded.duration) == (
            spec.label,
            spec.policy,
            spec.seed,
            spec.duration,
        )
        assert decoded.config == spec.config
        assert decoded.fleet == spec.fleet

    def test_canonical_json_is_byte_stable(self):
        spec = small_experiment().to_run_spec("kubernetes")
        assert spec.canonical_json() == spec.canonical_json()
        # Canonical form: sorted keys, no whitespace.
        assert ": " not in spec.canonical_json()

    def test_key_is_label_policy_seed(self):
        spec = small_experiment(seed=7).to_run_spec("hybrid")
        assert spec.key == "cpu/low-burst/hybrid/s7"

    def test_effective_config_pins_the_spec_seed(self):
        spec = small_experiment(seed=0).to_run_spec("hybrid", seed=99)
        assert spec.effective_config().seed == 99

    def test_rejects_policy_objects(self):
        from repro.core.hyscale import HyScaleCpu

        with pytest.raises(ExperimentError):
            RunSpec(label="x", policy=HyScaleCpu(), seed=0, duration=10.0)

    def test_rejects_bad_duration_and_label(self):
        with pytest.raises(ExperimentError):
            RunSpec(label="", policy="hybrid", seed=0, duration=10.0)
        with pytest.raises(ExperimentError):
            RunSpec(label="x", policy="hybrid", seed=0, duration=0.0)

    def test_rejects_wrong_schema_and_kind(self):
        spec = small_experiment().to_run_spec("hybrid")
        bad_schema = dict(spec.to_dict(), schema="repro.sweep/99")
        with pytest.raises(ExperimentError):
            RunSpec.from_dict(bad_schema)
        bad_kind = dict(spec.to_dict(), kind="sweep_spec")
        with pytest.raises(ExperimentError):
            RunSpec.from_dict(bad_kind)

    def test_rejects_a_nan_profile_demand_or_allocation(self):
        from repro.errors import ClusterError, WorkloadError

        document = json.loads(small_experiment().to_run_spec("hybrid").canonical_json())
        nan_demand = json.loads(json.dumps(document))
        nan_demand["loads"][0]["profile"]["mem_per_request"] = float("nan")
        with pytest.raises(WorkloadError):
            RunSpec.from_dict(nan_demand)
        nan_allocation = json.loads(json.dumps(document))
        nan_allocation["fleet"][0]["cpu_request"] = float("nan")
        with pytest.raises(ClusterError):
            RunSpec.from_dict(nan_allocation)

    def test_run_executes_like_experiment_spec(self):
        experiment = small_experiment()
        direct = experiment.run("kubernetes")
        via_spec = experiment.to_run_spec("kubernetes").run()
        assert canonical(via_spec.to_dict()) == canonical(direct.to_dict())


# ----------------------------------------------------------------------
# Seed derivation
# ----------------------------------------------------------------------
class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_shard_seed(0, "cpu/hybrid") == derive_shard_seed(0, "cpu/hybrid")

    def test_independent_across_names_and_bases(self):
        seeds = {
            derive_shard_seed(base, name)
            for base in (0, 1)
            for name in ("cpu/hybrid", "cpu/kubernetes", "net/hybrid")
        }
        assert len(seeds) == 6

    def test_to_sweep_shared_replays_the_base_seed(self):
        experiment = small_experiment(seed=5)
        sweep = experiment.to_sweep(("kubernetes", "hybrid"), seed_mode="shared")
        assert [s.seed for s in sweep.shards] == [5, 5]
        assert sweep.seed_mode == "shared"

    def test_to_sweep_per_shard_derives_distinct_seeds(self):
        experiment = small_experiment(seed=5)
        sweep = experiment.to_sweep(("kubernetes", "hybrid"))
        seeds = [s.seed for s in sweep.shards]
        assert len(set(seeds)) == 2
        assert seeds == [
            derive_shard_seed(5, f"{experiment.label}/kubernetes"),
            derive_shard_seed(5, f"{experiment.label}/hybrid"),
        ]

    def test_bad_seed_mode_rejected(self):
        with pytest.raises(ExperimentError):
            small_experiment().to_sweep(("hybrid",), seed_mode="lucky")

    def test_run_all_shared_matches_serial_per_algorithm_runs(self):
        experiment = small_experiment()
        historic = {name: experiment.run(name) for name in ("kubernetes", "hybrid")}
        via_sweep = experiment.run_all(("kubernetes", "hybrid"), seed_mode="shared")
        assert {k: canonical(v.to_dict()) for k, v in via_sweep.items()} == {
            k: canonical(v.to_dict()) for k, v in historic.items()
        }

    def test_run_all_per_shard_changes_the_arrival_sequence(self):
        experiment = small_experiment()
        shared = experiment.run_all(("kubernetes",), seed_mode="shared")
        per_shard = experiment.run_all(("kubernetes",), seed_mode="per_shard")
        assert (
            shared["kubernetes"].total_requests != per_shard["kubernetes"].total_requests
            or shared["kubernetes"].to_dict() != per_shard["kubernetes"].to_dict()
        )


# ----------------------------------------------------------------------
# SweepSpec
# ----------------------------------------------------------------------
class TestSweepSpec:
    def test_from_grid_shapes_and_order(self):
        sweep = SweepSpec.from_grid(
            ("cpu", "network"),
            bursts=("low", "high"),
            algorithms=("kubernetes", "hybrid"),
            duration=30.0,
        )
        assert len(sweep) == 8
        labels = [shard.label for shard in sweep.shards]
        # Grid order: workload, then burst, then algorithm.
        assert labels == (
            ["cpu/low-burst"] * 2 + ["cpu/high-burst"] * 2
            + ["network/low-burst"] * 2 + ["network/high-burst"] * 2
        )
        assert all(shard.duration == 30.0 for shard in sweep.shards)

    def test_from_grid_unknown_workload_rejected(self):
        with pytest.raises(ExperimentError):
            SweepSpec.from_grid(("quantum",))

    def test_round_trip(self):
        sweep = small_experiment().to_sweep(ALGORITHMS)
        decoded = SweepSpec.from_dict(json.loads(sweep.canonical_json()))
        assert decoded.canonical_json() == sweep.canonical_json()
        assert decoded.keys == sweep.keys
        assert decoded.seed_mode == sweep.seed_mode

    def test_duplicate_shards_rejected(self):
        shard = small_experiment().to_run_spec("hybrid")
        with pytest.raises(ExperimentError):
            SweepSpec(shards=(shard, shard))

    def test_empty_sweep_rejected(self):
        with pytest.raises(ExperimentError):
            SweepSpec(shards=())

    def test_seed_modes_constant(self):
        assert SEED_MODES == ("per_shard", "shared")
