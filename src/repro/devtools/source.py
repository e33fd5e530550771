"""Parsed input files, findings, suppression markers and shared AST helpers.

The analyzer reads, parses and alias-resolves each input file once
(:func:`load_source`) and tokenizes it once for its suppression markers
(:func:`parse_markers`).  Every rule, per-file or call-graph, reports a
:class:`Violation`; a call-graph finding also names the function it is
attributed to.

A finding is silenced by a per-line comment on the line it points to::

    rng = np.random.default_rng(0)  # lint: disable=DET002(fixture generator for docs)

The rule ID must be followed by a parenthesised, non-empty reason — an
auditable justification is part of the contract.  A marker without a
reason silences nothing and is itself reported under ``LINT001``, as is
a marker that names a rule the catalogue lacks or that silences nothing.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import asdict, dataclass
from functools import cached_property

#: Meta-rule ID for suppression markers that are malformed, name an
#: unknown rule, or silence nothing.
BAD_SUPPRESSION = "LINT001"

#: Meta-rule ID for files the analyzer cannot parse.
PARSE_ERROR = "LINT002"


@dataclass(frozen=True, order=True)
class Violation:
    """One rule breach at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    #: Qualname of the function a call-graph finding is attributed to.
    function: str | None = None

    def render(self) -> str:
        """Human-readable one-liner, in the classic ``path:line:col`` shape."""
        where = f" [{self.function}]" if self.function else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{where}"

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable form."""
        return dict(asdict(self))


@dataclass(frozen=True)
class Marker:
    """One well-formed ``RULE(reason)`` entry of a suppression comment."""

    line: int
    col: int
    rule: str
    reason: str


@dataclass(frozen=True)
class SourceFile:
    """One input file: its source, its parse and its import aliases."""

    path: str  # repo-relative posix path, used for rule scoping
    source: str
    tree: ast.Module
    aliases: dict[str, str]
    module: str | None  # dotted module name inside ``src/repro``, else None

    @cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node of the tree, walked once and shared by the file rules."""
        return list(ast.walk(self.tree))


def load_source(path: str, source: str) -> SourceFile | Violation:
    """Parse and alias-resolve one file; a syntax error becomes a ``LINT002`` finding."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return Violation(
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1 if exc.offset is not None else 1,
            rule=PARSE_ERROR,
            message=f"file does not parse: {exc.msg}",
        )
    return SourceFile(path, source, tree, import_aliases(tree), module_name_for(path))


# ----------------------------------------------------------------------
# Suppression markers
# ----------------------------------------------------------------------
#: Matches the suppression marker and captures everything after ``disable=``.
_MARKER_RE = re.compile(r"#\s*lint:\s*disable=(?P<spec>.*)$")

#: One well-formed entry: a rule ID plus a parenthesised reason.
_ENTRY_RE = re.compile(r"(?P<rule>[A-Z][A-Z0-9]{2,15})\s*\(\s*(?P<reason>[^()]*?)\s*\)")

#: A bare rule ID (used to detect reason-less entries like ``disable=DET002``).
_BARE_RE = re.compile(r"[A-Z][A-Z0-9]{2,15}")


def parse_markers(source: str, path: str) -> tuple[list[Marker], list[Violation]]:
    """The reasoned suppression entries of ``source``, plus ``LINT001`` findings
    for entries without a reason (which silence nothing).

    Tokenising (rather than regex-scanning raw lines) means a marker inside
    a *string literal* is inert — only actual comments count.
    """
    markers: list[Marker] = []
    problems: list[Violation] = []
    if "lint:" not in source:
        return markers, problems  # no marker to find: skip the tokenizer
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return markers, problems
    for token in tokens:
        marker = _MARKER_RE.search(token.string) if token.type == tokenize.COMMENT else None
        if marker is None:
            continue
        line, col = token.start[0], token.start[1] + marker.start() + 1
        spec = marker.group("spec").strip()
        reasonless = [m.group("rule") for m in _ENTRY_RE.finditer(spec) if not m.group("reason")]
        # Entries with no parenthesised reason at all: strip the well-formed
        # ones, then look for leftover bare IDs.
        reasonless += _BARE_RE.findall(_ENTRY_RE.sub("", spec))
        for rule in reasonless:
            problems.append(
                Violation(
                    path, line, col, BAD_SUPPRESSION,
                    f"suppression of {rule} is missing its reason; "
                    f"write `# lint: disable={rule}(why it is safe)`",
                )
            )
        markers.extend(
            Marker(line, col, m.group("rule"), m.group("reason"))
            for m in _ENTRY_RE.finditer(spec)
            if m.group("reason")
        )
    return markers, problems


# ----------------------------------------------------------------------
# Path scoping
# ----------------------------------------------------------------------
def repro_module_path(logical_path: str) -> str | None:
    """The path inside ``src/repro`` (e.g. ``sim/rng.py``), or ``None``."""
    p = logical_path.replace("\\", "/").lstrip("./")
    for prefix in ("src/repro/", "repro/"):
        if p.startswith(prefix):
            return p[len(prefix):]
    return None


def module_name_for(logical_path: str) -> str | None:
    """Dotted module name (``repro.sim.rng``) of a ``src/repro`` file, or ``None``."""
    rest = repro_module_path(logical_path)
    if rest is None or not rest.endswith(".py"):
        return None
    dotted = "repro/" + rest[: -len(".py")]
    return dotted.removesuffix("/__init__").replace("/", ".")


def is_example(logical_path: str) -> bool:
    """The file lives under ``examples/``."""
    return logical_path.replace("\\", "/").lstrip("./").startswith("examples/")


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
#: Canonical names whose *call* reads the host's clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``numpy.random`` members that are never entropy sources.
RNG_SAFE = frozenset({"SeedSequence"})

#: ``numpy.random`` members that *construct* generators: called with an
#: explicit seed they are the injected-generator discipline
#: (``default_rng(SeedSequence(...))``), not an ambient draw.
RNG_CONSTRUCTORS = frozenset(
    {"default_rng", "Generator", "PCG64", "MT19937", "Philox", "SFC64", "BitGenerator"}
)


def dotted_name(node: ast.expr) -> str | None:
    """Render a ``Name``/``Attribute`` chain as ``a.b.c`` (else ``None``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.expr) -> str | None:
    """The final identifier of a ``Name``/``Attribute`` chain."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def import_aliases(tree: ast.AST) -> dict[str, str]:
    """Map local names to the canonical dotted thing they were imported as.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import perf_counter as pc`` -> ``{"pc": "time.perf_counter"}``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".")[0]
                aliases[local] = item.name if item.asname else item.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                if item.name != "*":
                    aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


def canonical_name(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Canonical dotted name of a ``Name``/``Attribute`` chain, expanded through imports."""
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    expanded = aliases.get(head, head)
    return f"{expanded}.{rest}" if rest else expanded


def is_set_expr(node: ast.expr, set_names: frozenset[str]) -> bool:
    """Statically certain that ``node`` evaluates to a ``set``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        # s.union(...) etc. on a known set expression stays a set.
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
            "copy",
        ):
            return is_set_expr(node.func.value, set_names)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return is_set_expr(node.left, set_names) or is_set_expr(node.right, set_names)
    return False


def local_set_names(nodes: list[ast.AST], inherited: frozenset[str] = frozenset()) -> frozenset[str]:
    """Names among ``nodes`` whose every simple assignment is a set expression,
    plus the ``inherited`` set names that ``nodes`` never assign."""
    assigned: dict[str, bool] = {}
    for node in nodes:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                is_set = is_set_expr(value, frozenset(assigned))
                assigned[target.id] = assigned.get(target.id, True) and is_set
    return frozenset(name for name, ok in assigned.items() if ok) | (inherited - assigned.keys())


#: Call targets that build a fresh mutable container.
_MUTABLE_FACTORIES = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.deque",
        "collections.OrderedDict",
        "collections.Counter",
    }
)


def is_mutable_container(node: ast.expr, aliases: dict[str, str]) -> bool:
    """Statically certain that ``node`` builds a mutable container."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and canonical_name(node.func, aliases) in _MUTABLE_FACTORIES


#: Trailing name segment -> unit class.  Different classes never mix
#: without an explicit converter from ``repro.units``.
_UNIT_SUFFIX_CLASSES = {
    "mbps": "Mbit",
    "mbit": "Mbit",
    "mbits": "Mbit",
    "mb": "MB",
    "mib": "MiB",
    "core": "cores",
    "cores": "cores",
    "shares": "shares",
}

#: Segments to skip while scanning for the unit token (``_mb_per_s``).
_UNIT_NEUTRAL_SEGMENTS = frozenset({"per", "s", "sec", "secs", "second", "seconds"})


def unit_class_of_name(name: str) -> str | None:
    """Unit class encoded in a name's trailing suffix, or ``None``."""
    for segment in reversed(name.lower().split("_")):
        if segment in _UNIT_NEUTRAL_SEGMENTS:
            continue
        return _UNIT_SUFFIX_CLASSES.get(segment)
    return None
