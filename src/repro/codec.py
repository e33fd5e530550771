"""One codec behind every artefact document.

Every document the CLI writes or reads back (``run --json`` summaries,
``repro.obs/1`` traces, ``repro.san/1`` reports, ``repro.telemetry/1``
snapshots, ``repro.sweep/1`` and ``repro.app/1`` specs, shard-cache
entries) goes through here.  :func:`canonical_json` is the byte-stable
encoding; the JSONL helpers write and read lines that each carry their
``schema`` tag; :func:`decode_record` rebuilds one record from a JSON
object: no unknown or missing field, and each field annotated ``str``,
``int``, ``float`` or ``bool`` (or ``| None``, or a list of one) holds that
JSON type.  A bool is not a number, an int is a valid float, and nothing
is coerced, so re-encoding gives the same bytes.  Every failure raises the
caller's error class, starting at the offending field's path
(``summary.timeline[3].cpu_usage must be a number, got string``).
"""

from __future__ import annotations

import inspect
import json
import re
from functools import lru_cache, partial
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence, TypeVar

T = TypeVar("T")

#: A nested-field decoder: ``(value, error class, field path) -> decoded``.
Decoder = Callable[[Any, "type[Exception]", str], Any]

#: (Python types, JSON name), most specific first: a bool is not an integer.
_JSON_TYPES = (
    ((bool,), "boolean"),
    ((int,), "integer"),
    ((float,), "number"),
    ((str,), "string"),
    ((list, tuple), "list"),
    ((dict,), "object"),
    ((type(None),), "null"),
)

#: Scalar annotation -> (the JSON types it accepts, its name in messages).
_SCALARS = {  # lint: disable=PAR001(constant annotation table, defined once at import and never written)
    "str": (("string",), "a string"),
    "int": (("integer",), "an integer"),
    "float": (("integer", "number"), "a number"),
    "bool": (("boolean",), "a boolean"),
}


def canonical_json(payload: Any) -> str:
    """The byte-stable encoding: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def jsonl_text(lines: Sequence[str]) -> str:
    """Lines as JSONL text (trailing newline included when non-empty)."""
    return "\n".join(lines) + "\n" if lines else ""


def write_jsonl(lines: Sequence[str], path: str | Path) -> int:
    """Write lines as a JSONL file; returns the number of lines written."""
    Path(path).write_text(jsonl_text(lines), encoding="utf-8")
    return len(lines)


def parse_json(text: str, error: type[Exception], path: str) -> Any:
    """``text`` as JSON, or ``error`` naming ``path``."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise error(f"{path} is not valid JSON: {exc}") from None


def parse_jsonl_line(line: str, schema: str, error: type[Exception]) -> dict[str, Any]:
    """One JSONL line, a JSON object tagged ``schema``, without its tag."""
    return untag(parse_json(line, error, "line"), error, "line", schema=schema)


def read_jsonl(path: str | Path, parse: Callable[[str], T], error: type[Exception]) -> list[T]:
    """Every non-blank line of a JSONL file through ``parse``; its
    ``error`` gains a ``path:line:`` prefix."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None
    out: list[T] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            try:
                out.append(parse(line))
            except error as exc:
                raise error(f"{path}:{lineno}: {exc}") from None
    return out


# ----------------------------------------------------------------------
# Record decoder
# ----------------------------------------------------------------------
def untag(payload: Any, error: type[Exception], path: str, **tags: str) -> dict[str, Any]:
    """A JSON object without its tag fields (``schema=...``, ``kind=...``),
    each of which must hold the given value."""
    _require_object(payload, error, path)
    for key, expected in tags.items():
        if key not in payload:
            raise error(f"{path} is missing field {key!r}")
        if payload[key] != expected:
            raise error(f"{path} has unsupported {key} {payload[key]!r} (want {expected!r})")
    return {key: value for key, value in payload.items() if key not in tags}


def decode_record(
    cls: Callable[..., T],
    payload: Any,
    error: type[Exception],
    path: str,
    nested: Mapping[str, Decoder] | None = None,
    required: tuple[str, ...] = (),
) -> T:
    """Rebuild one ``cls`` (a dataclass, or a class with an annotated
    constructor) from its JSON object.  ``nested`` decodes each field whose
    annotation is not a scalar; ``required`` names fields the document
    must carry although the constructor has a default for them."""
    params = _params(cls)
    nested = nested or {}
    _require_object(payload, error, path)
    for name in sorted(payload):
        if name not in params:
            raise error(f"{path} has unknown field {name!r}")
    kwargs: dict[str, Any] = {}
    for name, (check, has_default) in params.items():
        if name in payload:
            kwargs[name] = (check or nested[name])(payload[name], error, f"{path}.{name}")
        elif not has_default or name in required:
            raise error(f"{path} is missing field {name!r}")
    return cls(**kwargs)


def record_of(
    cls: Callable[..., Any],
    nested: Mapping[str, Decoder] | None = None,
    required: tuple[str, ...] = (),
) -> Decoder:
    """The nested decoder for one ``cls`` record."""
    return partial(decode_record, cls, nested=nested, required=required)


def list_of(item: Decoder) -> Decoder:
    """The nested decoder for a JSON list (to a tuple), entry by entry."""

    def decode(value: Any, error: type[Exception], path: str) -> tuple[Any, ...]:
        if not isinstance(value, (list, tuple)):
            raise error(f"{path} must be a JSON list, got {_json_type(value)}")
        return tuple(item(entry, error, f"{path}[{i}]") for i, entry in enumerate(value))

    return decode


def _json_type(value: Any) -> str:
    """The JSON name of a decoded value's type."""
    return next((name for types, name in _JSON_TYPES if isinstance(value, types)), type(value).__name__)


def _require_object(payload: Any, error: type[Exception], path: str) -> None:
    if not isinstance(payload, dict):
        raise error(f"{path} must be a JSON object, got {_json_type(payload)}")


def _scalar(annotation: str) -> Decoder | None:
    """The checker for a scalar annotation (``float``, ``str | None``), or
    ``None`` when it is not one."""
    names = {part.strip() for part in annotation.split("|")}
    nullable = "None" in names
    names.discard("None")
    if len(names) != 1 or (name := names.pop()) not in _SCALARS:
        return None
    accepted, wanted = _SCALARS[name]
    if nullable:
        accepted, wanted = (*accepted, "null"), f"{wanted} or null"

    def check(value: Any, error: type[Exception], path: str) -> Any:
        if _json_type(value) not in accepted:
            raise error(f"{path} must be {wanted}, got {_json_type(value)}")
        return value

    return check


@lru_cache(maxsize=None)
def _params(cls: Callable[..., Any]) -> dict[str, tuple[Decoder | None, bool]]:
    """Constructor parameter -> (its scalar checker or ``None``, has a default)."""
    params: dict[str, tuple[Decoder | None, bool]] = {}
    for name, param in inspect.signature(cls).parameters.items():
        annotation = param.annotation
        text = annotation if isinstance(annotation, str) else inspect.formatannotation(annotation)
        sequence = re.fullmatch(r"list\[(\w+)\]|tuple\[(\w+), \.\.\.\]", text)
        check = _scalar(sequence[1] or sequence[2]) if sequence else _scalar(text)
        if sequence and check:
            check = list_of(check)
        params[name] = (check, param.default is not inspect.Parameter.empty)
    return params
