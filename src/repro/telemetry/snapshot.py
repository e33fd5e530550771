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

import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.errors import TelemetryError
from repro.telemetry.instruments import Histogram
from repro.telemetry.registry import MetricRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.telemetry.slo import SloAlert

#: Schema tag embedded in every line; bump when the line shape changes.
TELEMETRY_SCHEMA = "repro.telemetry/1"


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


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
            lines.append(_dump(payload))
    for alert in alerts:
        lines.append(_dump({"schema": TELEMETRY_SCHEMA, "kind": "slo_alert", **alert.to_dict()}))
    return lines


def snapshot_to_jsonl(
    registry: MetricRegistry,
    *,
    now: float,
    alerts: Iterable["SloAlert"] = (),
) -> str:
    """The whole snapshot as JSONL text (trailing newline when non-empty)."""
    lines = snapshot_lines(registry, now=now, alerts=alerts)
    return "\n".join(lines) + "\n" if lines else ""


def write_snapshot_jsonl(
    registry: MetricRegistry,
    path: str | Path,
    *,
    now: float,
    alerts: Iterable["SloAlert"] = (),
) -> int:
    """Write a snapshot file; returns the number of lines written."""
    text = snapshot_to_jsonl(registry, now=now, alerts=alerts)
    Path(path).write_text(text, encoding="utf-8")
    return len(text.splitlines())


def parse_snapshot_line(line: str) -> dict:
    """Parse and schema-check one snapshot line."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TelemetryError(f"snapshot line is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise TelemetryError("snapshot line must be a JSON object")
    schema = payload.get("schema")
    if schema != TELEMETRY_SCHEMA:
        raise TelemetryError(
            f"unsupported snapshot schema {schema!r} (want {TELEMETRY_SCHEMA!r})"
        )
    kind = payload.get("kind")
    if kind not in ("counter", "gauge", "histogram", "slo_alert"):
        raise TelemetryError(f"unknown snapshot line kind {kind!r}")
    return payload


def read_snapshot_jsonl(path: str | Path) -> list[dict]:
    """Read a snapshot file back into parsed line payloads."""
    out: list[dict] = []
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            out.append(parse_snapshot_line(line))
        except TelemetryError as exc:
            raise TelemetryError(f"{path}:{lineno}: {exc}") from None
    return out
