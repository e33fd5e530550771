"""The shared artefact codec (``repro.codec``): its rules, case by case.

Every document decoder routes through these helpers, so the rules are
pinned here once; ``tests/test_codec_fuzz.py`` checks the decoders built
on them against corrupted documents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import pytest

from repro.codec import (
    canonical_json,
    decode_record,
    jsonl_text,
    list_of,
    parse_jsonl_line,
    read_jsonl,
    record_of,
    write_jsonl,
)
from repro.errors import ObservabilityError, SanitizerError, WorkloadError
from repro.obs import span_from_dict
from repro.sanitizer import violation_from_dict
from repro.workloads.graph import ApplicationSpec, CallEdge, ServiceGraph, three_tier_app


class Failure(Exception):
    pass


@dataclass(frozen=True)
class Leaf:
    name: str
    count: int
    share: float
    on: bool = False
    note: str | None = None
    tags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Tree:
    leaf: Leaf
    leaves: tuple[Leaf, ...] = ()


LEAF = {"name": "a", "count": 2, "share": 0.5}


def test_canonical_json_sorts_keys_without_whitespace():
    assert canonical_json({"b": [1, 2.5], "a": None}) == '{"a":null,"b":[1,2.5]}'


class TestRecordDecoder:
    def test_decodes_scalars_without_coercion(self):
        leaf = decode_record(Leaf, {**LEAF, "share": 3, "tags": ["x"]}, Failure, "leaf")
        assert leaf == Leaf("a", 2, 3, tags=("x",))
        assert type(leaf.share) is int  # an int is a valid float, kept as is

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("count", True, "leaf.count must be an integer, got boolean"),
            ("count", 2.0, "leaf.count must be an integer, got number"),
            ("share", False, "leaf.share must be a number, got boolean"),
            ("share", "0.5", "leaf.share must be a number, got string"),
            ("on", 1, "leaf.on must be a boolean, got integer"),
            ("note", 7, "leaf.note must be a string or null, got integer"),
            ("tags", "x", "leaf.tags must be a JSON list, got string"),
            ("tags", ["x", 1], "leaf.tags[1] must be a string, got integer"),
        ],
    )
    def test_rejects_a_mistyped_scalar_naming_its_path(self, field, value, message):
        with pytest.raises(Failure, match=f"^{re.escape(message)}$"):
            decode_record(Leaf, {**LEAF, field: value}, Failure, "leaf")

    def test_null_only_where_the_annotation_allows_it(self):
        assert decode_record(Leaf, {**LEAF, "note": None}, Failure, "leaf").note is None
        with pytest.raises(Failure, match="leaf.name must be a string, got null"):
            decode_record(Leaf, {**LEAF, "name": None}, Failure, "leaf")

    def test_unknown_missing_and_required_fields(self):
        with pytest.raises(Failure, match="must be a JSON object, got list"):
            decode_record(Leaf, [LEAF], Failure, "leaf")
        with pytest.raises(Failure, match="leaf has unknown field 'colour'"):
            decode_record(Leaf, {**LEAF, "colour": 1}, Failure, "leaf")
        with pytest.raises(Failure, match="leaf is missing field 'count'"):
            decode_record(Leaf, {"name": "a", "share": 0.5}, Failure, "leaf")
        with pytest.raises(Failure, match="leaf is missing field 'on'"):
            decode_record(Leaf, LEAF, Failure, "leaf", required=("on",))

    def test_nested_records_carry_the_path_and_the_error_class(self):
        nested = {"leaf": record_of(Leaf), "leaves": list_of(record_of(Leaf))}
        tree = decode_record(Tree, {"leaf": LEAF, "leaves": [LEAF]}, Failure, "tree", nested)
        assert tree == Tree(Leaf("a", 2, 0.5), (Leaf("a", 2, 0.5),))
        with pytest.raises(Failure, match=r"tree\.leaves\[0\]\.count must be an integer"):
            decode_record(Tree, {"leaf": LEAF, "leaves": [{**LEAF, "count": "2"}]}, Failure, "tree", nested)


class TestJsonl:
    def test_text_and_write_count(self, tmp_path):
        assert jsonl_text([]) == ""
        assert jsonl_text(["{}", "{}"]) == "{}\n{}\n"
        assert write_jsonl(["{}"], tmp_path / "a.jsonl") == 1
        assert (tmp_path / "a.jsonl").read_text() == "{}\n"

    @pytest.mark.parametrize(
        ("line", "message"),
        [
            ("{nope", "line is not valid JSON"),
            ("[1]", "line must be a JSON object, got list"),
            ('{"kind":"x"}', "line is missing field 'schema'"),
            ('{"schema":"t/2"}', "line has unsupported schema 't/2' (want 't/1')"),
        ],
    )
    def test_a_line_must_be_an_object_carrying_its_schema_tag(self, line, message):
        with pytest.raises(Failure, match=re.escape(message)):
            parse_jsonl_line(line, "t/1", Failure)

    def test_the_tag_is_removed(self):
        assert parse_jsonl_line('{"schema":"t/1","a":1}', "t/1", Failure) == {"a": 1}

    def test_reader_skips_blank_lines_and_prefixes_path_and_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"schema":"t/1"}\n\n{"schema":"t/2"}\n')

        def parse(line: str) -> dict:
            return parse_jsonl_line(line, "t/1", Failure)

        with pytest.raises(Failure, match=r"r\.jsonl:3: line has unsupported schema"):
            read_jsonl(path, parse, Failure)
        path.write_text('{"schema":"t/1"}\n\n\n')
        assert read_jsonl(path, parse, Failure) == [{}]
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(Failure, match="not UTF-8 text"):
            read_jsonl(path, parse, Failure)


class TestDocumentDecoders:
    """Mistyped documents each decoder rejects with its package's error."""

    def test_violation_fields_are_typed(self):
        valid = {"now": 1.0, "step": 2, "check": "time", "subject": "clock", "message": "m"}
        for field, value in (("now", "x"), ("step", None), ("message", [])):
            with pytest.raises(SanitizerError, match=f"violation.{field} must be"):
                violation_from_dict({**valid, field: value})

    def test_span_metrics_must_be_a_list(self):
        valid = {"now": 1.0, "policy": "p", "digest": "d", "services": 1, "nodes": 1, "replicas": 1}
        with pytest.raises(ObservabilityError, match="span.metrics must be a JSON list, got integer"):
            span_from_dict({**valid, "metrics": 5})

    def test_graph_and_edge_decoders(self):
        graph = three_tier_app().graph
        assert ServiceGraph.from_dict(graph.to_dict()) == graph
        assert CallEdge.from_dict(graph.edges[0].to_dict()) == graph.edges[0]
        with pytest.raises(WorkloadError, match="edge.calls must be an integer, got string"):
            CallEdge.from_dict({"caller": "a", "callee": "b", "calls": "2"})

    def test_app_tier_names_are_strings(self):
        document = three_tier_app().to_dict()
        document["graph"]["services"][0]["name"] = 3
        with pytest.raises(WorkloadError, match=r"app\.graph\.services\[0\]\.name must be a string"):
            ApplicationSpec.from_dict(document)
        for broken in ({}, {"graph": {}}, {**three_tier_app().to_dict(), "graph": None}):
            with pytest.raises(WorkloadError):
                ApplicationSpec.from_dict(broken)
