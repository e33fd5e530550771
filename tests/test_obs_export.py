"""Trace persistence tests: span round-trips, JSONL encoding invariants,
schema validation, and the operator-facing explain rendering."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    TRACE_SCHEMA,
    ActionRecord,
    DecisionSpan,
    LedgerStep,
    MetricSample,
    parse_trace_line,
    read_trace_jsonl,
    render_explain,
    render_span,
    span_from_dict,
    span_to_dict,
    span_to_json_line,
    spans_to_jsonl,
    write_trace_jsonl,
)


def _span(now: float = 15.0, *, actions: bool = True) -> DecisionSpan:
    return DecisionSpan(
        now=now,
        policy="hybrid",
        digest="00aa11bb22cc33dd",
        services=2,
        nodes=3,
        replicas=5,
        metrics=(
            MetricSample(service="api", metric="cpu", value=0.83, threshold=0.5, verdict="acquire"),
        ),
        ledger=(LedgerStep(op="take", node="node-01", cpu=0.25),),
        actions=(
            ActionRecord(
                kind="vertical-scale",
                service="api",
                target="api.r0.c1",
                reason="acquire",
                metric="cpu",
                value=0.83,
                threshold=0.5,
                detail="cpu 0.500->0.750 on node-01",
            ),
        )
        if actions
        else (),
        emitted=1 if actions else 0,
        applied=1 if actions else 0,
        failed=0,
    )


class TestRoundTrip:
    def test_dict_round_trip_is_lossless(self):
        span = _span()
        assert span_from_dict(span_to_dict(span)) == span

    def test_jsonl_round_trip_is_lossless(self):
        span = _span()
        assert parse_trace_line(span_to_json_line(span)) == span

    def test_file_round_trip(self, tmp_path):
        spans = (_span(5.0), _span(10.0, actions=False))
        path = tmp_path / "trace.jsonl"
        assert write_trace_jsonl(spans, path) == 2
        assert read_trace_jsonl(path) == spans

    def test_empty_trace_writes_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert write_trace_jsonl((), path) == 0
        assert path.read_text() == ""
        assert read_trace_jsonl(path) == ()


class TestEncoding:
    def test_lines_are_canonical_json(self):
        line = span_to_json_line(_span())
        payload = json.loads(line)
        assert payload["schema"] == TRACE_SCHEMA
        # Canonical: sorted keys, compact separators — byte-stable encoding.
        assert line == json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert "\n" not in line

    def test_jsonl_has_one_line_per_span(self):
        text = spans_to_jsonl([_span(5.0), _span(10.0)])
        assert text.endswith("\n")
        assert len(text.strip().splitlines()) == 2

    def test_blank_lines_are_skipped_on_read(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(span_to_json_line(_span()) + "\n\n\n")
        assert len(read_trace_jsonl(path)) == 1


class TestValidation:
    def test_rejects_invalid_json(self):
        with pytest.raises(ObservabilityError, match="not valid JSON"):
            parse_trace_line("{nope")

    def test_rejects_non_object_lines(self):
        with pytest.raises(ObservabilityError, match="JSON object"):
            parse_trace_line("[1,2,3]")

    def test_rejects_wrong_schema(self):
        payload = span_to_dict(_span())
        payload["schema"] = "repro.obs/999"
        with pytest.raises(ObservabilityError, match="unsupported schema"):
            parse_trace_line(json.dumps(payload))

    def test_rejects_unknown_fields(self):
        payload = span_to_dict(_span())
        payload["surprise"] = True
        with pytest.raises(ObservabilityError, match="span has unknown field 'surprise'"):
            span_from_dict(payload)

    def test_read_errors_carry_path_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(span_to_json_line(_span()) + "\n{broken\n")
        with pytest.raises(ObservabilityError, match=r"bad\.jsonl:2"):
            read_trace_jsonl(path)


class TestExplainRendering:
    def test_span_render_names_value_and_threshold(self):
        text = render_span(_span())
        assert "policy=hybrid" in text
        assert "digest=00aa11bb22cc33dd" in text
        assert "value=0.830 threshold=0.500" in text
        assert "(cpu 0.830 vs threshold 0.500)" in text
        assert "applied 1/1 (failed 0)" in text

    def test_actions_only_hides_evidence(self):
        text = render_span(_span(), verbose=False)
        assert "action" in text
        assert "metric  cpu" not in text
        assert "ledger" not in text

    def test_explain_filters_by_service(self):
        spans = [_span(5.0), _span(10.0)]
        assert render_explain(spans, service="nope") == "(no decision spans)"
        text = render_explain(spans, service="api")
        assert text.endswith("2 ticks, 2 actions")

    def test_explain_limit_keeps_the_tail(self):
        spans = [_span(5.0), _span(10.0), _span(15.0)]
        text = render_explain(spans, limit=1)
        assert "t=    15.0s" in text
        assert "t=     5.0s" not in text

    def test_explain_empty(self):
        assert render_explain([]) == "(no decision spans)"
