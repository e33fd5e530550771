"""Decision-trace persistence: JSONL out, spans back in.

One span per line, keys sorted, compact separators — so a trace file is a
pure function of the spans, and two same-seed runs produce *byte-identical*
files (the determinism contract ``tests/test_determinism_end_to_end.py``
enforces).  Lines are self-contained JSON objects, so traces stream through
``jq``/``grep`` and partial files stay readable up to the cut.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.codec import canonical_json, jsonl_text, parse_jsonl_line, read_jsonl, write_jsonl
from repro.errors import ObservabilityError
from repro.obs.spans import DecisionSpan, span_from_dict, span_to_dict

#: Schema tag embedded in every line; bump when the span shape changes.
TRACE_SCHEMA = "repro.obs/1"


def span_to_json_line(span: DecisionSpan) -> str:
    """One span as its canonical single-line JSON encoding (no newline)."""
    payload = span_to_dict(span)
    payload["schema"] = TRACE_SCHEMA
    return canonical_json(payload)


def spans_to_jsonl(spans: Iterable[DecisionSpan]) -> str:
    """A whole trace as JSONL text (trailing newline included when non-empty)."""
    return jsonl_text([span_to_json_line(span) for span in spans])


def write_trace_jsonl(spans: Sequence[DecisionSpan], path: str | Path) -> int:
    """Write a trace file; returns the number of spans written."""
    return write_jsonl([span_to_json_line(span) for span in spans], path)


def parse_trace_line(line: str) -> DecisionSpan:
    """Parse one JSONL line back into a span; raises
    :class:`~repro.errors.ObservabilityError` naming the bad field."""
    return span_from_dict(parse_jsonl_line(line, TRACE_SCHEMA, ObservabilityError))


def read_trace_jsonl(path: str | Path) -> tuple[DecisionSpan, ...]:
    """Read a JSONL trace file back into spans."""
    return tuple(read_jsonl(path, parse_trace_line, ObservabilityError))
