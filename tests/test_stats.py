"""Tests for multi-seed aggregation."""

import json
from dataclasses import replace

import pytest

from repro.analysis.stats import multi_seed, ordering_holds
from repro.errors import ExperimentError
from repro.experiments.configs import cpu_bound


def canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def small_factory(seed: int):
    spec = cpu_bound("low", seed=seed)
    return replace(spec, duration=30.0, specs=spec.specs[:2], loads=spec.loads[:2])


class TestMultiSeed:
    def test_aggregates_over_seeds(self):
        aggregate = multi_seed(small_factory, "hybrid", seeds=(0, 1))
        assert aggregate.algorithm == "hybrid"
        assert aggregate.seeds == (0, 1)
        assert len(aggregate.runs) == 2
        assert aggregate.mean_response > 0
        assert aggregate.std_response >= 0

    def test_single_seed_zero_std(self):
        aggregate = multi_seed(small_factory, "hybrid", seeds=(3,))
        assert aggregate.std_response == 0.0

    def test_interval_contains_mean(self):
        aggregate = multi_seed(small_factory, "hybrid", seeds=(0, 1))
        lo, hi = aggregate.response_interval()
        assert lo <= aggregate.mean_response <= hi
        assert lo >= 0.0

    def test_empty_seeds_rejected(self):
        with pytest.raises(ExperimentError):
            multi_seed(small_factory, "hybrid", seeds=())

    def test_runs_match_per_seed_experiment_runs(self):
        aggregate = multi_seed(small_factory, "hybrid", seeds=(0, 1))
        direct = [small_factory(seed).run("hybrid") for seed in (0, 1)]
        assert [canonical(run.to_dict()) for run in aggregate.runs] == [
            canonical(run.to_dict()) for run in direct
        ]

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ExperimentError, match="duplicate shard keys"):
            multi_seed(small_factory, "hybrid", seeds=(0, 0))
        with pytest.raises(ExperimentError, match="duplicate shard keys"):
            ordering_holds(small_factory, faster="hybrid", slower="kubernetes", seeds=(1, 1))


class TestOrderingHolds:
    def test_known_ordering(self):
        # The Figure 6 ordering at tiny scale: hybrid beats a do-nothing
        # comparison?  Use kubernetes as the slower side with overload.
        def factory(seed):
            spec = cpu_bound("low", seed=seed)
            return replace(spec, duration=40.0, specs=spec.specs[:3], loads=spec.loads[:3])

        assert ordering_holds(factory, faster="hybrid", slower="kubernetes", seeds=(0, 1))

    def test_reflexive_ordering_fails(self):
        assert not ordering_holds(small_factory, faster="hybrid", slower="hybrid", seeds=(0,))
