"""Sanitizer-violation persistence: JSONL out, records back in.

Same canonical encoding as the decision-trace codec
(:mod:`repro.obs.export`): one record per line, keys sorted, compact
separators, a ``schema`` tag on every line.  A violation file is a pure
function of the violations, so two same-seed runs export byte-identical
files — and a clean run exports the empty string.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.codec import canonical_json, jsonl_text, parse_jsonl_line, read_jsonl, write_jsonl
from repro.errors import SanitizerError
from repro.sanitizer.records import SanViolation, violation_from_dict, violation_to_dict

#: Schema tag embedded in every line; bump when the record shape changes.
SAN_SCHEMA = "repro.san/1"


def violation_to_json_line(violation: SanViolation) -> str:
    """One violation as its canonical single-line JSON encoding (no newline)."""
    payload = violation_to_dict(violation)
    payload["schema"] = SAN_SCHEMA
    return canonical_json(payload)


def violations_to_jsonl(violations: Iterable[SanViolation]) -> str:
    """A whole report as JSONL text (trailing newline when non-empty)."""
    return jsonl_text([violation_to_json_line(v) for v in violations])


def write_san_jsonl(violations: Sequence[SanViolation], path: str | Path) -> int:
    """Write a violation file; returns the number of records written."""
    return write_jsonl([violation_to_json_line(v) for v in violations], path)


def parse_san_line(line: str) -> SanViolation:
    """Parse one JSONL line back into a violation record; raises
    :class:`~repro.errors.SanitizerError` naming the bad field."""
    return violation_from_dict(parse_jsonl_line(line, SAN_SCHEMA, SanitizerError))


def read_san_jsonl(path: str | Path) -> tuple[SanViolation, ...]:
    """Read a JSONL violation file back into records."""
    return tuple(read_jsonl(path, parse_san_line, SanitizerError))


def render_san_report(violations: Sequence[SanViolation]) -> str:
    """Human "explain"-style rendering of a violation report.

    Groups by check, in catalogue order, each violation on one line with
    its sim timestamp, step, and subject — the same narrative style as
    ``repro.obs.explain`` renders decision traces.
    """
    if not violations:
        return "SimSan: no invariant violations.\n"
    lines = [f"SimSan: {len(violations)} invariant violation(s)"]
    by_check: dict[str, list[SanViolation]] = {}
    for violation in violations:
        by_check.setdefault(violation.check, []).append(violation)
    for check in sorted(by_check):
        group = by_check[check]
        lines.append(f"\n[{check}] {len(group)} violation(s)")
        for v in group:
            lines.append(f"  t={v.now:g} step={v.step} {v.subject}: {v.message}")
            if v.detail:
                lines.append(f"      {v.detail}")
    return "\n".join(lines) + "\n"
