"""Corruption fuzzing of every artefact decoder.

The inputs are documents the code wrote: the summary, run spec, sweep
spec and sweep result of a short traced three-tier app run (timeline and
app block included), its ``repro.app/1`` document, and one line each of
its decision trace, a SimSan report and its telemetry snapshot.  Each
case applies one corruption at any depth — drop a key, add an unknown
key, or replace a value with one of a different JSON type — and decodes.

The oracle: the decoder raises a :class:`~repro.errors.ReproError`
subclass, or it returns an object that re-encodes to the corrupted
document (a dropped field may come back as its default, a ``null`` the
encoder omits may vanish) and whose every scalar field holds the type
its annotation names.  ``KeyError``, ``TypeError``, ``AttributeError``
and ``ValueError`` never escape: the test does not catch them.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import math
import re
from dataclasses import replace
from typing import Any, Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.experiments.configs import three_tier
from repro.experiments.spec import RunSpec, SweepSpec
from repro.instrument import Observe
from repro.metrics.summary import RunSummary
from repro.obs import DecisionTracer, parse_trace_line, span_to_json_line
from repro.parallel import SweepResult
from repro.sanitizer import SanViolation, parse_san_line, violation_to_json_line
from repro.telemetry import MetricRegistry
from repro.telemetry.snapshot import parse_snapshot_line, snapshot_lines
from repro.workloads.graph import ApplicationSpec
from repro.workloads.patterns import LoadPattern

#: One replacement value per JSON type (int and float count apart).
REPLACEMENTS = (None, True, False, 0, 7, -1, 2.5, -0.5, "", "x", [], [1], {}, {"a": 1})

UNKNOWN_KEY = "unexpected_field"


def _json_type(value: Any) -> str:
    if value is None or isinstance(value, (bool, str, list, dict)):
        return type(value).__name__
    return "int" if isinstance(value, int) else "float"


def canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _roundtrip(payload: Any) -> Any:
    return json.loads(canonical_json(payload))


# ----------------------------------------------------------------------
# The documents and their codecs
# ----------------------------------------------------------------------
def _line_codec(parse: Callable[[str], Any], encode: Callable[[Any], str]):
    return (lambda doc: parse(canonical_json(doc)), lambda obj: json.loads(encode(obj)))


@functools.lru_cache(maxsize=None)
def _documents() -> dict[str, tuple[Any, Callable[[Any], Any], Callable[[Any], Any]]]:
    """name -> (document, decode, re-encode), from one run per session."""
    spec = replace(three_tier("high", seed=3).to_run_spec("hybrid"), duration=40.0)
    tracer, registry = DecisionTracer(), MetricRegistry()
    summary = spec.run(observe=Observe(tracer=tracer, telemetry=registry))
    assert summary.app is not None and summary.timeline
    sweep = SweepSpec(shards=(spec,), seed_mode="shared")
    result = SweepResult(sweep=sweep, summaries=(summary,), cached=(True,))
    span = max(tracer.spans(), key=lambda s: len(s.metrics) + len(s.ledger) + len(s.actions))
    assert span.metrics and span.actions
    histogram = next(
        line for line in snapshot_lines(registry, now=40.0) if '"kind":"histogram"' in line
    )
    violation = SanViolation(
        now=2.5, step=5, check="conservation", subject="worker-01/cpu", message="m", detail="d"
    )
    to_dict = lambda obj: obj.to_dict()  # noqa: E731
    return {
        "summary": (summary.to_dict(), RunSummary.from_dict, to_dict),
        "run_spec": (spec.to_dict(), RunSpec.from_dict, to_dict),
        "sweep_spec": (sweep.to_dict(), SweepSpec.from_dict, to_dict),
        "sweep_result": (result.to_dict(), SweepResult.from_dict, to_dict),
        "app": (spec.app.to_dict(), ApplicationSpec.from_dict, to_dict),
        "trace_line": (
            json.loads(span_to_json_line(span)),
            *_line_codec(parse_trace_line, span_to_json_line),
        ),
        "san_line": (
            json.loads(violation_to_json_line(violation)),
            *_line_codec(parse_san_line, violation_to_json_line),
        ),
        "snapshot_line": (
            json.loads(histogram),
            *_line_codec(parse_snapshot_line, canonical_json),
        ),
    }


# ----------------------------------------------------------------------
# Corruptions
# ----------------------------------------------------------------------
def _paths(node: Any, prefix: tuple = ()) -> list[tuple]:
    """Every path to a value inside ``node`` (the root is ``()``)."""
    out = [prefix]
    if isinstance(node, dict):
        for key in sorted(node):
            out.extend(_paths(node[key], prefix + (key,)))
    elif isinstance(node, list):
        for index, item in enumerate(node):
            out.extend(_paths(item, prefix + (index,)))
    return out


def _get(node: Any, path: tuple) -> Any:
    for step in path:
        node = node[step]
    return node


def _corrupt(document: Any, data: st.DataObject) -> tuple[Any, tuple | None]:
    """One corruption of a deep copy; returns it and the dropped path."""
    corrupted = json.loads(json.dumps(document))
    paths = _paths(corrupted)
    kind = data.draw(st.sampled_from(("drop", "add", "retype")), label="kind")
    if kind == "drop":
        keyed = [p for p in paths if p and isinstance(_get(corrupted, p[:-1]), dict)]
        path = data.draw(st.sampled_from(keyed), label="path")
        del _get(corrupted, path[:-1])[path[-1]]
        return corrupted, path
    if kind == "add":
        objects = [p for p in paths if isinstance(_get(corrupted, p), dict)]
        path = data.draw(st.sampled_from(objects), label="path")
        _get(corrupted, path)[UNKNOWN_KEY] = data.draw(st.sampled_from(REPLACEMENTS))
        return corrupted, None
    path = data.draw(st.sampled_from(paths), label="path")
    original = _get(corrupted, path)
    value = data.draw(
        st.sampled_from([v for v in REPLACEMENTS if _json_type(v) != _json_type(original)]),
        label="value",
    )
    value = json.loads(json.dumps(value))
    if not path:
        return value, None
    _get(corrupted, path[:-1])[path[-1]] = value
    return corrupted, None


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def _agrees(expected: Any, actual: Any, where: str = "$") -> None:
    """``actual`` (re-encoded) equals ``expected`` (corrupted): same JSON
    type up to int/float, same value; a ``null`` may be omitted."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), where
        for key in set(expected) | set(actual):
            if key not in actual:
                assert expected[key] is None, f"{where}.{key} vanished"
            else:
                assert key in expected, f"{where}.{key} appeared"
                _agrees(expected[key], actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for index, (a, b) in enumerate(zip(expected, actual)):
            _agrees(a, b, f"{where}[{index}]")
    elif isinstance(expected, bool) or expected is None or isinstance(expected, str):
        assert type(actual) is type(expected) and actual == expected, where
    else:
        assert isinstance(actual, (int, float)) and not isinstance(actual, bool), where
        assert actual == expected or (math.isnan(actual) and math.isnan(expected)), where


_SCALARS = {"str": (str,), "int": (int,), "float": (int, float), "bool": (bool,)}


def _holds(value: Any, annotation: str) -> bool:
    """Whether ``value`` holds the type a scalar annotation names (any other
    annotation holds trivially)."""
    parts = [part.strip() for part in annotation.split("|")]
    if "None" in parts and value is None:
        return True
    names = [part for part in parts if part != "None"]
    if len(names) != 1:
        return True
    sequence = re.fullmatch(r"tuple\[(\w+), \.\.\.\]|list\[(\w+)\]", names[0])
    if sequence:
        item = sequence.group(1) or sequence.group(2)
        if item not in _SCALARS:
            return True
        return isinstance(value, (list, tuple)) and all(_holds(v, item) for v in value)
    types = _SCALARS.get(names[0])
    if types is None:
        return True
    return isinstance(value, types) and (bool in types or not isinstance(value, bool))


def _check_annotations(obj: Any, where: str = "$") -> None:
    if isinstance(obj, (list, tuple)):
        for index, item in enumerate(obj):
            _check_annotations(item, f"{where}[{index}]")
        return
    if dataclasses.is_dataclass(obj):
        named = [(f.name, f.type, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    elif isinstance(obj, LoadPattern):
        named = [
            (name, param.annotation, vars(obj).get(name, vars(obj).get(f"_{name}")))
            for name, param in inspect.signature(type(obj)).parameters.items()
        ]
    else:
        return
    for name, annotation, value in named:
        assert _holds(value, str(annotation)), f"{where}.{name} = {value!r} is not {annotation}"
        _check_annotations(value, f"{where}.{name}")


DOCUMENTS = ("summary", "run_spec", "sweep_spec", "sweep_result", "app", "trace_line", "san_line", "snapshot_line")


@pytest.mark.parametrize("name", DOCUMENTS)
@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_corrupted_document_decodes_faithfully_or_raises_a_typed_error(name, data):
    document, decode, encode = _documents()[name]
    corrupted, dropped = _corrupt(document, data)
    try:
        decoded = decode(corrupted)
    except ReproError:
        return
    reencoded = _roundtrip(encode(decoded))
    if dropped is not None:
        # A dropped field may come back as its default.
        try:
            del _get(reencoded, dropped[:-1])[dropped[-1]]
        except (KeyError, IndexError, TypeError):
            pass  # absent, or the shapes differ: _agrees reports it
    _agrees(corrupted, reencoded)
    _check_annotations(decoded)


@pytest.mark.parametrize("name", DOCUMENTS)
def test_every_written_document_decodes_to_an_equal_one(name):
    document, decode, encode = _documents()[name]
    assert canonical_json(_roundtrip(encode(decode(document)))) == canonical_json(document)
