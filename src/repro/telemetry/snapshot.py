"""Canonical JSONL metric snapshots (schema ``repro.telemetry/1``).

One line per series, keys sorted, compact separators — the same contract as
the decision-trace codec (:mod:`repro.obs.export`): a snapshot file is a
pure function of the registry contents plus the simulated timestamp, so two
same-seed runs write *byte-identical* files.  Lines are self-contained JSON
objects (each carries the schema tag), so snapshots stream through ``jq`` /
``grep`` and partial files stay readable up to the cut.

Line kinds:

* ``counter`` / ``gauge`` — ``{name, labels, value, time, unit}``
* ``histogram`` — adds ``buckets`` (``[bound, cumulative_count]`` pairs,
  ``+Inf`` encoded as ``null``), ``count``, and ``sum``
* ``slo_alert`` — one line per SLO burn-rate transition (see
  :mod:`repro.telemetry.slo`), appended after the series lines
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.codec import canonical_json, jsonl_text, parse_jsonl_line, read_jsonl, write_jsonl
from repro.errors import TelemetryError
from repro.telemetry.instruments import Histogram
from repro.telemetry.registry import MetricRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.telemetry.slo import SloAlert

#: Schema tag embedded in every line; bump when the line shape changes.
TELEMETRY_SCHEMA = "repro.telemetry/1"


def snapshot_lines(
    registry: MetricRegistry,
    *,
    now: float,
    alerts: Iterable["SloAlert"] = (),
) -> list[str]:
    """Every series (and alert) as canonical single-line JSON encodings.

    ``now`` is the simulated time the snapshot was taken at (callers pass
    ``engine.clock.now``); it is stamped into every line.
    """
    lines: list[str] = []
    for family in registry.families():
        for values, child in family.children():
            payload: dict = {
                "schema": TELEMETRY_SCHEMA,
                "kind": family.kind,
                "name": family.name,
                "labels": dict(zip(family.label_names, values)),
                "time": now,
            }
            if family.unit:
                payload["unit"] = family.unit
            if isinstance(child, Histogram):
                cumulative = child.cumulative()
                bounds: list[float | None] = list(child.bounds) + [None]  # None == +Inf
                payload["buckets"] = [list(pair) for pair in zip(bounds, cumulative)]
                payload["count"] = child.count
                payload["sum"] = child.sum
            else:
                payload["value"] = child.value
            lines.append(canonical_json(payload))
    for alert in alerts:
        lines.append(canonical_json({"schema": TELEMETRY_SCHEMA, "kind": "slo_alert", **alert.to_dict()}))
    return lines


def snapshot_to_jsonl(
    registry: MetricRegistry,
    *,
    now: float,
    alerts: Iterable["SloAlert"] = (),
) -> str:
    """The whole snapshot as JSONL text (trailing newline when non-empty)."""
    return jsonl_text(snapshot_lines(registry, now=now, alerts=alerts))


def write_snapshot_jsonl(
    registry: MetricRegistry,
    path: str | Path,
    *,
    now: float,
    alerts: Iterable["SloAlert"] = (),
) -> int:
    """Write a snapshot file; returns the number of lines written."""
    return write_jsonl(snapshot_lines(registry, now=now, alerts=alerts), path)


def parse_snapshot_line(line: str) -> dict:
    """Parse and schema-check one snapshot line (the payload keeps its tag);
    raises :class:`~repro.errors.TelemetryError`."""
    payload = parse_jsonl_line(line, TELEMETRY_SCHEMA, TelemetryError)
    kind = payload.get("kind")
    if kind not in ("counter", "gauge", "histogram", "slo_alert"):
        raise TelemetryError(f"line has unknown snapshot kind {kind!r}")
    return {"schema": TELEMETRY_SCHEMA, **payload}


def read_snapshot_jsonl(path: str | Path) -> list[dict]:
    """Read a snapshot file back into parsed line payloads."""
    return read_jsonl(path, parse_snapshot_line, TelemetryError)
