"""OpenMetrics text exposition: deterministic render and strict parse.

The render side turns a :class:`~repro.telemetry.MetricRegistry` into the
OpenMetrics text format (the format Prometheus scrapes): ``# TYPE`` /
``# HELP`` / ``# UNIT`` metadata per family, one sample line per series,
``# EOF`` terminator.  Families render in sorted name order and children in
sorted label order, timestamps are omitted (sim time is carried by the JSONL
snapshots instead), and floats format canonically — so the exposition text
is a pure function of the registry contents and two same-seed runs produce
*byte-identical* documents.

The parse side is a self-contained validator used by the test suite: it
checks metadata ordering, sample name/label grammar, histogram bucket
monotonicity, and ``le="+Inf"`` == ``_count`` consistency, without
depending on any external client library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import TelemetryError
from repro.telemetry.instruments import Histogram, MetricFamily
from repro.telemetry.registry import MetricRegistry


def format_value(value: float) -> str:
    """Canonical number formatting: integral floats as integers, the rest
    via ``repr`` (shortest round-trip form)."""
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_block(names: tuple[str, ...], values: tuple[str, ...], extra: str = "") -> str:
    parts = [f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _render_family(family: MetricFamily, lines: list[str]) -> None:
    name = family.name
    lines.append(f"# TYPE {name} {family.kind}")
    if family.unit:
        lines.append(f"# UNIT {name} {family.unit}")
    if family.help:
        lines.append(f"# HELP {name} {family.help}")
    label_names = family.label_names
    for values, child in family.children():
        if isinstance(child, Histogram):
            running = 0
            for bound, count in zip(child.bounds, child.counts):
                running += count
                block = _label_block(label_names, values, f'le="{format_value(bound)}"')
                lines.append(f"{name}_bucket{block} {running}")
            running += child.counts[-1]
            block = _label_block(label_names, values, 'le="+Inf"')
            lines.append(f"{name}_bucket{block} {running}")
            block = _label_block(label_names, values)
            lines.append(f"{name}_count{block} {child.count}")
            lines.append(f"{name}_sum{block} {format_value(child.sum)}")
        else:
            suffix = "_total" if family.kind == "counter" else ""
            block = _label_block(label_names, values)
            lines.append(f"{name}{suffix}{block} {format_value(child.value)}")


def render_openmetrics(registry: MetricRegistry) -> str:
    """The registry as an OpenMetrics text document (ends with ``# EOF``)."""
    lines: list[str] = []
    for family in registry.families():
        if len(family) == 0:
            continue  # OpenMetrics forbids metadata-only families
        _render_family(family, lines)
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(registry: MetricRegistry, path: str | Path) -> int:
    """Write the exposition document; returns the number of sample lines."""
    text = render_openmetrics(registry)
    Path(path).write_text(text, encoding="utf-8")
    return sum(1 for line in text.splitlines() if line and not line.startswith("#"))


# ----------------------------------------------------------------------
# Parsing / validation
# ----------------------------------------------------------------------
@dataclass
class ParsedFamily:
    """One metric family recovered from exposition text."""

    name: str
    kind: str
    unit: str = ""
    help: str = ""
    #: ``(sample_name, labels, value)`` in document order.
    samples: list[tuple[str, dict[str, str], float]] = field(default_factory=list)


def _parse_labels(block: str, lineno: int) -> dict[str, str]:
    labels: dict[str, str] = {}
    rest = block
    while rest:
        eq = rest.find("=")
        if eq < 0 or len(rest) < eq + 2 or rest[eq + 1] != '"':
            raise TelemetryError(f"line {lineno}: malformed label block {block!r}")
        name = rest[:eq]
        index = eq + 2
        value: list[str] = []
        while index < len(rest):
            char = rest[index]
            if char == "\\":
                if index + 1 >= len(rest):
                    raise TelemetryError(f"line {lineno}: dangling escape in {block!r}")
                escaped = rest[index + 1]
                value.append({"n": "\n", '"': '"', "\\": "\\"}.get(escaped, escaped))
                index += 2
            elif char == '"':
                break
            else:
                value.append(char)
                index += 1
        else:
            raise TelemetryError(f"line {lineno}: unterminated label value in {block!r}")
        labels[name] = "".join(value)
        rest = rest[index + 1 :]
        if rest.startswith(","):
            rest = rest[1:]
        elif rest:
            raise TelemetryError(f"line {lineno}: malformed label separator in {block!r}")
    return labels


#: Sample-name suffixes each family kind may legally expose.
_ALLOWED_SUFFIXES = {
    "counter": ("_total",),
    "gauge": ("",),
    "histogram": ("_bucket", "_count", "_sum"),
}


def parse_openmetrics(text: str) -> dict[str, ParsedFamily]:
    """Parse (and validate) an OpenMetrics document rendered by this module.

    Raises :class:`~repro.errors.TelemetryError` on structural problems:
    missing ``# EOF``, samples before their ``# TYPE``, unknown suffixes,
    non-monotone histogram buckets, or bucket/count mismatches.
    """
    families: dict[str, ParsedFamily] = {}
    saw_eof = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if saw_eof:
            raise TelemetryError(f"line {lineno}: content after # EOF")
        if not line:
            raise TelemetryError(f"line {lineno}: blank lines are not allowed")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or parts[1] not in ("TYPE", "HELP", "UNIT"):
                raise TelemetryError(f"line {lineno}: malformed metadata line {line!r}")
            _, keyword, name, payload = parts
            if keyword == "TYPE":
                if name in families:
                    raise TelemetryError(f"line {lineno}: duplicate TYPE for {name!r}")
                if payload not in _ALLOWED_SUFFIXES:
                    raise TelemetryError(f"line {lineno}: unknown metric type {payload!r}")
                families[name] = ParsedFamily(name=name, kind=payload)
            else:
                family = families.get(name)
                if family is None:
                    raise TelemetryError(f"line {lineno}: {keyword} before TYPE for {name!r}")
                if family.samples:
                    raise TelemetryError(f"line {lineno}: {keyword} after samples of {name!r}")
                if keyword == "UNIT":
                    family.unit = payload
                else:
                    family.help = payload
            continue
        # Sample line: name[{labels}] value
        brace = line.find("{")
        if brace >= 0:
            close = line.rfind("}")
            if close < brace:
                raise TelemetryError(f"line {lineno}: unbalanced braces in {line!r}")
            sample_name = line[:brace]
            labels = _parse_labels(line[brace + 1 : close], lineno)
            value_text = line[close + 1 :].strip()
        else:
            sample_name, _, value_text = line.partition(" ")
            labels = {}
        family = None
        for fam_name, candidate in families.items():
            if sample_name == fam_name or (
                sample_name.startswith(fam_name)
                and sample_name[len(fam_name) :] in _ALLOWED_SUFFIXES[candidate.kind]
            ):
                if family is None or len(fam_name) > len(family.name):
                    family = candidate
        if family is None:
            raise TelemetryError(f"line {lineno}: sample {sample_name!r} has no TYPE metadata")
        suffix = sample_name[len(family.name) :]
        if suffix not in _ALLOWED_SUFFIXES[family.kind]:
            raise TelemetryError(
                f"line {lineno}: suffix {suffix!r} is invalid for {family.kind} {family.name!r}"
            )
        try:
            value = float(value_text)
        except ValueError:
            raise TelemetryError(f"line {lineno}: bad sample value {value_text!r}") from None
        family.samples.append((sample_name, labels, value))
    if not saw_eof:
        raise TelemetryError("document does not end with # EOF")
    for family in families.values():
        if family.kind == "histogram":
            _validate_histogram_samples(family)
    return families


def _validate_histogram_samples(family: ParsedFamily) -> None:
    """Bucket counts must be cumulative and agree with ``_count``."""
    by_series: dict[tuple[tuple[str, str], ...], dict[str, object]] = {}
    for sample_name, labels, value in family.samples:
        suffix = sample_name[len(family.name) :]
        key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        series = by_series.setdefault(key, {"buckets": [], "count": None})
        if suffix == "_bucket":
            series["buckets"].append((labels.get("le", ""), value))  # type: ignore[union-attr]
        elif suffix == "_count":
            series["count"] = value
    for key, series in by_series.items():
        buckets = series["buckets"]
        assert isinstance(buckets, list)
        if not buckets or buckets[-1][0] != "+Inf":
            raise TelemetryError(f"{family.name}{dict(key)}: histogram missing le=\"+Inf\" bucket")
        counts = [count for _, count in buckets]
        if any(earlier > later for earlier, later in zip(counts, counts[1:])):
            raise TelemetryError(f"{family.name}{dict(key)}: bucket counts must be cumulative")
        if series["count"] is not None and counts[-1] != series["count"]:
            raise TelemetryError(
                f"{family.name}{dict(key)}: le=\"+Inf\" ({counts[-1]}) != _count ({series['count']})"
            )
