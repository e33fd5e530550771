"""Merged sweep results, in shard order.

A :class:`SweepResult` pairs the sweep's spec with one
:class:`~repro.metrics.summary.RunSummary` per shard (same order) and
which shards came from the cache.  Because the executor merges in spec
order regardless of completion order, everything here (including
:meth:`to_json`) is byte-identical between serial and parallel execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.codec import canonical_json, decode_record, list_of, parse_json, untag
from repro.errors import ExperimentError
from repro.experiments.spec import SWEEP_SCHEMA, RunSpec, SweepSpec, decode_sweep_spec
from repro.metrics.summary import RunSummary, decode_summary


@dataclass(frozen=True)
class SweepResult:
    """Everything one sweep produced, merged deterministically."""

    sweep: SweepSpec
    summaries: tuple[RunSummary, ...]
    #: Per shard: ``True`` when the result came from the shard cache.
    cached: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        if len(self.summaries) != len(self.sweep.shards):
            raise ExperimentError(
                f"sweep has {len(self.sweep.shards)} shards but {len(self.summaries)} summaries"
            )
        if not self.cached:
            object.__setattr__(self, "cached", tuple(False for _ in self.summaries))
        if len(self.cached) != len(self.summaries):
            raise ExperimentError("cached flags must match the shard count")

    def __len__(self) -> int:
        return len(self.summaries)

    @property
    def cache_hits(self) -> int:
        """How many shards were satisfied from the cache."""
        return sum(1 for hit in self.cached if hit)

    def shards(self) -> tuple[tuple[RunSpec, RunSummary], ...]:
        """``(spec, summary)`` pairs in execution order."""
        return tuple(zip(self.sweep.shards, self.summaries))

    def by_key(self) -> dict[str, RunSummary]:
        """Summaries keyed by :attr:`RunSpec.key` (always unique)."""
        return {spec.key: summary for spec, summary in self.shards()}

    def by_label(self) -> dict[str, dict[str, RunSummary]]:
        """Summaries grouped ``workload label -> algorithm -> summary``.

        The grouping the comparison tables want; raises if one label ran
        the same algorithm twice (e.g. a multi-seed sweep — use
        :meth:`by_key` there, the grouping would be ambiguous).
        """
        grouped: dict[str, dict[str, RunSummary]] = {}
        for spec, summary in self.shards():
            per_label = grouped.setdefault(spec.label, {})
            if spec.policy in per_label:
                raise ExperimentError(
                    f"label {spec.label!r} ran {spec.policy!r} more than once; "
                    "group by_key() for multi-seed sweeps"
                )
            per_label[spec.policy] = summary
        return grouped

    def by_policy(self) -> dict[str, RunSummary]:
        """Summaries keyed by algorithm, for single-workload sweeps."""
        grouped = self.by_label()
        if len(grouped) != 1:
            raise ExperimentError(
                f"by_policy() needs a single-workload sweep, got labels {sorted(grouped)}"
            )
        return next(iter(grouped.values()))

    # -- codec ---------------------------------------------------------
    def to_dict(self) -> dict:
        """This result as a ``repro.sweep/1`` document."""
        return {
            "schema": SWEEP_SCHEMA,
            "kind": "sweep_result",
            "sweep": self.sweep.to_dict(),
            "summaries": [summary.to_dict() for summary in self.summaries],
            "cached": list(self.cached),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepResult":
        """Decode a ``repro.sweep/1`` result document; raises
        :class:`ExperimentError` naming the bad field.

        The ``telemetry`` field older versions wrote is ignored.
        """
        fields = untag(data, ExperimentError, "sweep_result", schema=SWEEP_SCHEMA, kind="sweep_result")
        fields.pop("telemetry", None)
        nested = {"sweep": decode_sweep_spec, "summaries": list_of(decode_summary)}
        return decode_record(cls, fields, ExperimentError, "sweep_result", nested)

    def to_json(self) -> str:
        """Canonical (sorted, compact) encoding — byte-identical across
        serial and parallel executions of the same sweep."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(parse_json(text, ExperimentError, "sweep_result"))

