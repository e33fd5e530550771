"""The call-graph rules: HOT, PAR, DET1xx and CON.

Each rule runs once per ``src/repro`` file, like every other rule, and
judges that file's functions by what the :class:`~repro.devtools.rules.Program`
knows about them: which root sets reach them, their effect summaries,
the determinism-taint paths that start in them, and the registry
contracts of the classes they define.  Findings name the function they
are attributed to.

The HOT rules deliberately flag only the *mechanically fixable* subset of
per-step costs — hoistable constant literals, per-step callable
construction, O(n) list membership, repeated deep attribute resolution,
and hot-path string formatting.  The complete allocation census (every
comprehension and literal, fixable or inherent) goes into the ranked
hot-path inventory of the report instead, so "zero violations" is an
achievable bar while the vectorization work-list stays exhaustive.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.flow.callgraph import FunctionInfo
from repro.devtools.flow.effects import CLOSURE_KINDS, CONSTANT_HOISTABLE, FORMAT_KINDS
from repro.devtools.rules import Program, Rule
from repro.devtools.source import SourceFile, Violation, module_name_for

#: Attribute chains must be at least this deep to count for HOT003.
HOT003_MIN_HOPS = 2
#: ...and repeat at least this often inside one function.
HOT003_MIN_COUNT = 4


def _in_package(path: str) -> bool:
    return module_name_for(path) is not None


def _finding(fn: FunctionInfo, rule: str, line: int, col: int, message: str) -> Violation:
    return Violation(fn.path, line, col, rule, message, function=fn.qualname)


def _reached(f: SourceFile, p: Program, reachable: frozenset[str]) -> Iterator[FunctionInfo]:
    return (fn for fn in p.functions_of(f) if fn.qualname in reachable)


# ----------------------------------------------------------------------
# HOT001 — fixable per-step allocation (hoistable literal / closure)
# ----------------------------------------------------------------------
def _hot001_check(f: SourceFile, p: Program) -> Iterator[Violation]:
    """HOT001: a constant-only container literal or a capture-free
    lambda/nested-``def`` inside step-reachable code allocates a fresh
    object every simulated step for a value that never changes; hoist it
    to module or ``__init__`` scope.  (Closures that capture locals are
    not flagged — they cannot be hoisted without restructuring — but they
    still appear in the hot-path inventory.)"""
    for fn in _reached(f, p, p.step_reachable):
        for site in p.effects[fn.qualname].allocations:
            if site.error_path:
                continue
            if site.kind in CONSTANT_HOISTABLE and site.constant:
                yield _finding(
                    fn, "HOT001", site.line, site.col,
                    f"constant {site.kind} rebuilt in step-reachable code; "
                    "hoist to module scope (allocates every Engine.step)",
                )
            elif site.kind in CLOSURE_KINDS and not site.captures:
                yield _finding(
                    fn, "HOT001", site.line, site.col,
                    f"{site.kind} constructed in step-reachable code; a fresh "
                    "function object is allocated every Engine.step — hoist "
                    "or bind once in __init__",
                )


# ----------------------------------------------------------------------
# HOT002 — O(n) list membership on the step path
# ----------------------------------------------------------------------
def _hot002_check(f: SourceFile, p: Program) -> Iterator[Violation]:
    """HOT002: ``x in [a, b, ...]`` / ``x in list(...)`` scans linearly on
    every evaluation; in step-reachable code use a tuple of constants
    (cheap, no alloc) or a precomputed ``frozenset`` for O(1) tests."""
    for fn in _reached(f, p, p.step_reachable):
        for site in p.effects[fn.qualname].memberships:
            yield _finding(
                fn, "HOT002", site.line, site.col,
                f"O(n) membership test against {site.detail} in "
                "step-reachable code; use a frozenset or tuple constant",
            )


# ----------------------------------------------------------------------
# HOT003 — repeated deep attribute chains on the step path
# ----------------------------------------------------------------------
def _hot003_check(f: SourceFile, p: Program) -> Iterator[Violation]:
    """HOT003: resolving the same ``a.b.c`` chain many times in one
    step-reachable function pays repeated dict lookups; read it into a
    local once."""
    for fn in _reached(f, p, p.step_reachable):
        chains = p.effects[fn.qualname].attr_chains
        for chain in sorted(chains):
            count, line, hops = chains[chain]
            if hops >= HOT003_MIN_HOPS and count >= HOT003_MIN_COUNT:
                yield _finding(
                    fn, "HOT003", line, 1,
                    f"attribute chain `{chain}` resolved {count}x in a "
                    "step-reachable function; bind it to a local",
                )


# ----------------------------------------------------------------------
# HOT004 — string formatting on the step path
# ----------------------------------------------------------------------
def _returns_str(fn: FunctionInfo) -> bool:
    """The function's annotated job is building a string."""
    returns = fn.node.returns
    return isinstance(returns, ast.Name) and returns.id == "str"


def _is_exception_method(p: Program, qualname: str) -> bool:
    """The function is a method of an Error/Exception class."""
    cls = p.graph.class_of(qualname)
    if cls is None:
        return False
    return any(b.rsplit(".", 1)[-1].endswith(("Error", "Exception")) for b in cls.bases)


def _hot004_check(f: SourceFile, p: Program) -> Iterator[Violation]:
    """HOT004: f-strings / ``str.format`` / ``%``-formatting in
    step-reachable code build a fresh string every step — the usual
    offenders are lookup keys and labels; precompute or cache them.

    Exempt by design: error paths, exception constructors, functions whose
    annotated return type is ``str`` (their output *is* the string), and
    keyword-argument payloads (``detail=f"..."`` on an event record only
    formats when the event fires, and the text is the data)."""
    for fn in _reached(f, p, p.step_reachable):
        if _returns_str(fn) or _is_exception_method(p, fn.qualname):
            continue
        for site in p.effects[fn.qualname].allocations:
            if site.kind in FORMAT_KINDS and not site.error_path and not site.payload:
                yield _finding(
                    fn, "HOT004", site.line, site.col,
                    f"string formatting ({site.kind}) in step-reachable "
                    "code; precompute or cache the formatted value",
                )


# ----------------------------------------------------------------------
# PAR001 — module-level mutable state reachable from workers
# ----------------------------------------------------------------------
def _par001_check(f: SourceFile, p: Program) -> Iterator[Violation]:
    """PAR001: a module-level mutable container referenced by
    worker-reachable code is silently per-process under
    ``ProcessPoolExecutor`` — writes made in a worker never reach the
    parent, and fork/spawn start methods disagree about its contents.
    The finding points at the container's definition, where a marker
    can justify a table that is written only at import."""
    module = p.graph.modules.get(f.module or "")
    mutable_lines = dict(module.module_mutables) if module is not None else {}
    if not mutable_lines:
        return
    for fn in _reached(f, p, p.worker_reachable):
        named = sorted({n.id for n in ast.walk(fn.node) if isinstance(n, ast.Name) and n.id in mutable_lines})
        for name in named:
            yield _finding(
                fn, "PAR001", mutable_lines[name], 1,
                f"module-level mutable `{name}` referenced by "
                f"worker-reachable `{fn.name}`; per-process state "
                "diverges across pool workers — pass it through the "
                "shard payload instead",
            )


# ----------------------------------------------------------------------
# PAR002 — global / os.environ writes in worker-reachable code
# ----------------------------------------------------------------------
def _par002_check(f: SourceFile, p: Program) -> Iterator[Violation]:
    """PAR002: ``global`` rebinding or ``os.environ`` mutation inside
    worker-reachable code mutates only that worker's process; the parent
    and sibling shards never observe it, so results depend on pool
    scheduling."""
    for fn in _reached(f, p, p.worker_reachable):
        for write in p.effects[fn.qualname].global_writes:
            yield _finding(
                fn, "PAR002", write.line, write.col,
                f"write to process-global `{write.target}` in "
                "worker-reachable code; workers cannot share it — return "
                "the value through the shard result instead",
            )


# ----------------------------------------------------------------------
# DET101/103/104 — tainted paths into canonical sinks
# ----------------------------------------------------------------------
def _chain_text(chain: tuple[str, ...]) -> str:
    return " -> ".join(part.rsplit(".", 2)[-1] for part in chain)


def _tainted_paths(f: SourceFile, p: Program, rule: str) -> Iterator[Violation]:
    seen: set[str] = set()
    for path in p.taint.paths:
        if path.rule != rule or path.source_path != f.path or path.source_function in seen:
            continue
        seen.add(path.source_function)  # one finding per source function; extra sinks ride
        yield Violation(
            path.source_path, path.source_line, path.source_col, rule,
            f"{path.kind} source ({path.source_detail}) reaches "
            f"canonical sink `{path.sink}` [{path.sink_family}] via "
            f"{_chain_text(path.chain)}",
            function=path.source_function,
        )


def _det101_check(f: SourceFile, p: Program) -> Iterator[Violation]:
    """DET101: a nondeterministic *value* (wall clock, ambient RNG, uuid,
    object identity, environment read, filesystem enumeration) flows into
    a canonical codec or key derivation; the artifact's bytes then depend
    on host state rather than the seed."""
    return _tainted_paths(f, p, "DET101")


def _det103_check(f: SourceFile, p: Program) -> Iterator[Violation]:
    """DET103: unordered ``set`` iteration feeds a canonical sink with no
    sort barrier anywhere on the path."""
    return _tainted_paths(f, p, "DET103")


def _det104_check(f: SourceFile, p: Program) -> Iterator[Violation]:
    """DET104: float accumulation whose order depends on an unordered
    collection, on a sink path; float addition does not commute in
    rounding, so the artifact bytes depend on hash seeding."""
    return _tainted_paths(f, p, "DET104")


# ----------------------------------------------------------------------
# CON001–003 — registry contracts
# ----------------------------------------------------------------------
def _contract_findings(f: SourceFile, p: Program, rule: str) -> Iterator[Violation]:
    return (v for v in p.contracts.findings if v.rule == rule and v.path == f.path)


def _con001_check(f: SourceFile, p: Program) -> Iterator[Violation]:
    """CON001: a registered implementation does not conform to its
    registry's protocol (missing/abstract required method, not a subclass,
    or an override narrower than the protocol signature)."""
    return _contract_findings(f, p, "CON001")


def _con002_check(f: SourceFile, p: Program) -> Iterator[Violation]:
    """CON002: module-level mutable state in a module defining a
    registered implementation; such state is per-process under the sweep
    pool and leaks between runs in one process."""
    return _contract_findings(f, p, "CON002")


def _con003_check(f: SourceFile, p: Program) -> Iterator[Violation]:
    """CON003: a registered implementation draws from the ambient RNG and
    its constructor accepts no injectable generator, so its decisions
    cannot be reproduced from the run seed."""
    return _contract_findings(f, p, "CON003")


GRAPH_RULES: tuple[Rule, ...] = (
    Rule("HOT001", "fixable per-step allocation (hoistable literal / closure)", _in_package, _hot001_check),
    Rule("HOT002", "O(n) list membership on the step path", _in_package, _hot002_check),
    Rule("HOT003", "repeated deep attribute chains on the step path", _in_package, _hot003_check),
    Rule("HOT004", "string formatting on the step path", _in_package, _hot004_check),
    Rule("PAR001", "module-level mutable state reachable from workers", _in_package, _par001_check),
    Rule("PAR002", "global / os.environ writes in worker-reachable code", _in_package, _par002_check),
    Rule("DET101", "tainted value reaches a canonical sink", _in_package, _det101_check),
    Rule("DET103", "unordered iteration feeds a sink without a sort barrier", _in_package, _det103_check),
    Rule(
        "DET104",
        "float accumulation order depends on an unordered collection on a sink path",
        _in_package,
        _det104_check,
    ),
    Rule("CON001", "registered implementation violates its registry protocol", _in_package, _con001_check),
    Rule(
        "CON002",
        "module-level mutable state in a registered implementation's module",
        _in_package,
        _con002_check,
    ),
    Rule(
        "CON003",
        "registered implementation draws ambient RNG without injectable generator",
        _in_package,
        _con003_check,
    ),
)
