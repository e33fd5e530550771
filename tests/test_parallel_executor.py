"""Tests for the parallel sweep executor, shard cache, and merged results.

The headline contract is byte-identity: a sweep run with worker processes
produces the same summaries and the same canonical JSON dump as the serial
run.  The cache tests pin hit/miss accounting, resumability, code-version
invalidation and that older entries still load; the failure tests
pin that a poisoned shard surfaces as a structured :class:`ShardError`
instead of a hung pool.
"""

import dataclasses
import json
import os
import time

import pytest

from repro.errors import ExperimentError
from repro.experiments.spec import SweepSpec
from repro.parallel import CODE_VERSION, ShardCache, ShardError, SweepExecutor, SweepResult
from repro.parallel.worker import run_shard_payload

#: One small 2x2x2 grid (workload x burst x algorithm) at smoke duration.
GRID_KWARGS = dict(
    workloads=("cpu", "network"),
    bursts=("low", "high"),
    algorithms=("kubernetes", "hybrid"),
    duration=30.0,
)


@pytest.fixture(scope="module")
def grid():
    return SweepSpec.from_grid(**GRID_KWARGS)


@pytest.fixture(scope="module")
def serial_result(grid):
    return grid.run(parallel=1)


def poisoned_sweep(grid):
    """The grid with one shard's policy name corrupted (fails at build)."""
    shards = list(grid.shards)
    shards[2] = dataclasses.replace(shards[2], policy="no-such-policy")
    return SweepSpec(shards=tuple(shards), seed_mode=grid.seed_mode)


# ----------------------------------------------------------------------
# Byte-identity: parallel == serial
# ----------------------------------------------------------------------
class TestParallelIdentity:
    @pytest.fixture(scope="class")
    def parallel_result(self, grid):
        return grid.run(parallel=4)

    def test_summaries_identical(self, serial_result, parallel_result):
        assert [s.to_dict() for s in parallel_result.summaries] == [
            s.to_dict() for s in serial_result.summaries
        ]

    def test_json_dump_identical(self, serial_result, parallel_result):
        assert parallel_result.to_json() == serial_result.to_json()

    def test_merge_order_is_spec_order(self, grid, serial_result):
        assert [spec.key for spec, _ in serial_result.shards()] == list(grid.keys)


@pytest.mark.skipif((os.cpu_count() or 1) < 4, reason="a 4-job speedup needs 4 CPUs")
def test_parallel_speedup_on_four_cpus():
    # 240 s shards, so pool start-up and IPC do not swamp the signal.
    sweep = SweepSpec.from_grid(**{**GRID_KWARGS, "duration": 240.0})
    started = time.perf_counter()
    sweep.run(parallel=1)
    serial_seconds = time.perf_counter() - started
    started = time.perf_counter()
    sweep.run(parallel=4)
    parallel_seconds = time.perf_counter() - started
    assert serial_seconds / parallel_seconds >= 2.0, (serial_seconds, parallel_seconds)


# ----------------------------------------------------------------------
# Shard cache
# ----------------------------------------------------------------------
class TestShardCache:
    def test_cold_run_misses_then_warm_run_hits(self, grid, serial_result, tmp_path):
        cold = grid.run(parallel=1, cache_dir=tmp_path)
        assert cold.cache_hits == 0
        warm = grid.run(parallel=1, cache_dir=tmp_path)
        assert warm.cache_hits == len(grid)
        assert all(warm.cached)
        # Only the cached-provenance flags differ: the summaries are those
        # of an uncached run.
        assert [s.to_dict() for s in warm.summaries] == [
            s.to_dict() for s in serial_result.summaries
        ]

    def test_partial_cache_resumes_only_missing_shards(self, grid, tmp_path):
        cache = ShardCache(tmp_path)
        first_two = SweepSpec(shards=grid.shards[:2], seed_mode=grid.seed_mode)
        first_two.run(parallel=1, cache_dir=tmp_path)
        resumed = grid.run(parallel=2, cache_dir=tmp_path)
        assert resumed.cached == (True, True) + (False,) * (len(grid) - 2)
        assert cache.load(grid.shards[-1]) is not None  # fresh shards stored

    def test_code_version_invalidates(self, grid, tmp_path):
        grid.run(parallel=1, cache_dir=tmp_path)
        other_cache = ShardCache(tmp_path, code_version="test/other-version")
        other = SweepExecutor(cache=other_cache).run(grid)
        assert other.cache_hits == 0

    def test_entry_with_a_telemetry_field_still_loads(self, grid, serial_result, tmp_path):
        shard = grid.shards[0]
        single = SweepSpec(shards=(shard,), seed_mode=grid.seed_mode)
        single.run(parallel=1, cache_dir=tmp_path)
        cache = ShardCache(tmp_path)
        path = cache.path_for(shard)
        entry = json.loads(path.read_text(encoding="utf-8"))
        assert "telemetry" not in entry
        # Older versions wrote the field: null, or snapshot lines.
        for telemetry in (None, ['{"kind":"gauge"}']):
            path.write_text(json.dumps({**entry, "telemetry": telemetry}), encoding="utf-8")
            hit = single.run(parallel=1, cache_dir=tmp_path)
            assert hit.cached == (True,)
            assert hit.summaries[0].to_dict() == serial_result.summaries[0].to_dict()

    def test_entry_with_a_mistyped_summary_is_a_miss(self, grid, tmp_path):
        shard = grid.shards[0]
        SweepSpec(shards=(shard,), seed_mode=grid.seed_mode).run(parallel=1, cache_dir=tmp_path)
        cache = ShardCache(tmp_path)
        path = cache.path_for(shard)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["summary"]["total_requests"] = "x"
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.load(shard) is None
        assert cache.misses == 1

    def test_key_is_content_addressed(self, grid):
        cache = ShardCache("unused", code_version=CODE_VERSION)
        a, b = grid.shards[0], grid.shards[1]
        assert cache.key_for(a) == cache.key_for(a)
        assert cache.key_for(a) != cache.key_for(b)
        assert cache.key_for(a) != ShardCache("unused", code_version="v2").key_for(a)

    def test_torn_entry_is_a_miss(self, grid, tmp_path):
        cache = ShardCache(tmp_path)
        shard = grid.shards[0]
        cache.root.mkdir(parents=True, exist_ok=True)
        cache.path_for(shard).write_text("{not json", encoding="utf-8")
        assert cache.load(shard) is None
        assert cache.misses == 1


# ----------------------------------------------------------------------
# Structured failure
# ----------------------------------------------------------------------
class TestShardFailure:
    def test_serial_poisoned_shard_raises_shard_error(self, grid):
        with pytest.raises(ShardError) as excinfo:
            poisoned_sweep(grid).run(parallel=1)
        assert excinfo.value.index == 2
        assert "no-such-policy" in excinfo.value.key
        assert excinfo.value.error_type

    def test_pool_poisoned_shard_raises_shard_error(self, grid):
        with pytest.raises(ShardError) as excinfo:
            poisoned_sweep(grid).run(parallel=2)
        assert excinfo.value.index == 2
        assert "no-such-policy" in excinfo.value.key

    def test_worker_returns_error_envelope_not_exception(self, grid):
        payload = dataclasses.replace(grid.shards[0], policy="no-such-policy").to_dict()
        envelope = run_shard_payload(payload)
        assert envelope["ok"] is False
        assert envelope["error"]["type"]
        assert "no-such-policy" in envelope["error"]["message"]
        assert envelope["error"]["traceback"]

    def test_jobs_must_be_positive(self):
        with pytest.raises(ExperimentError):
            SweepExecutor(jobs=0)


# ----------------------------------------------------------------------
# SweepResult grouping and codec
# ----------------------------------------------------------------------
class TestSweepResult:
    def test_by_label_groups_workloads(self, serial_result):
        grouped = serial_result.by_label()
        assert sorted(grouped) == [
            "cpu/high-burst",
            "cpu/low-burst",
            "network/high-burst",
            "network/low-burst",
        ]
        for runs in grouped.values():
            assert sorted(runs) == ["hybrid", "kubernetes"]

    def test_by_policy_requires_single_workload(self, serial_result):
        with pytest.raises(ExperimentError):
            serial_result.by_policy()

    def test_by_key_covers_every_shard(self, grid, serial_result):
        assert set(serial_result.by_key()) == set(grid.keys)

    def test_round_trip(self, serial_result):
        decoded = SweepResult.from_json(serial_result.to_json())
        assert decoded.to_json() == serial_result.to_json()
        assert decoded.cache_hits == serial_result.cache_hits
        # The telemetry field older versions wrote is ignored.
        older = {**serial_result.to_dict(), "telemetry": [[] for _ in serial_result.summaries]}
        assert SweepResult.from_dict(older).to_json() == serial_result.to_json()

    def test_progress_protocol(self, grid, tmp_path):
        events: list[tuple[str, str]] = []
        grid.run(
            parallel=1,
            cache_dir=tmp_path,
            progress=lambda shard, status: events.append((shard.key, status)),
        )
        assert [e for e in events if e[1] == "running"]
        assert [e for e in events if e[1] == "done"]
        events.clear()
        grid.run(
            parallel=1,
            cache_dir=tmp_path,
            progress=lambda shard, status: events.append((shard.key, status)),
        )
        assert {status for _, status in events} == {"cached"}

    def test_compare_sweep_groups_reports(self, serial_result):
        from repro.analysis.compare import compare_sweep

        reports = compare_sweep(serial_result)
        assert sorted(reports) == sorted(serial_result.by_label())
        for report in reports.values():
            assert report.baseline == "kubernetes"
            assert set(report.speedups()) == {"kubernetes", "hybrid"}

