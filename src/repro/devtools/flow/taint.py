"""Interprocedural determinism-taint analysis.

The repo's headline guarantee is that same-seed runs are byte-identical
across shard counts and ``--jobs``.  The file rules (DET001–003) catch
nondeterminism *sources* statement-by-statement, and the end-to-end byte
pins catch whatever actually fired — but neither can say *which source
can reach which artifact*.  This pass can: it propagates taint from a
catalogued set of nondeterminism **sources** along the call graph to
the catalogued **sinks** (the canonical codecs and key-derivation
functions whose output must be byte-stable), killing taint at
catalogued **sanitizers**.

The model is function-granularity and kind-aware:

* a function *generates* taint of a kind when its body contains an
  unsanitized source pattern of that kind;
* taint propagates from callee to caller (returned values) unless the
  callee's every ``return`` is wrapped in an order-killing sanitizer, or
  the caller wraps every call to that callee in one — order barriers
  only kill the *order* kinds (``sorted(time.time())`` is still
  nondeterministic);
* a **tainted path** exists when a tainted function can call into a sink
  (argument flow) or the sink itself is tainted through its callees
  (return flow) — both reduce to: some function on a caller-chain into
  the sink is tainted.

Every tainted path carries a full source→sink witness chain, ranked in
the ``repro.flow/3`` report.  The rule mapping:

* **DET101** — a wall-clock / ambient-RNG / uuid / object-identity /
  environment read reaches a canonical sink;
* **DET103** — unordered ``set`` iteration feeding a sink without a sort
  barrier;
* **DET104** — float accumulation whose order depends on an unordered
  collection, on a sink path (float addition does not commute in
  rounding).
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from repro.devtools.flow.callgraph import CallGraph, FunctionInfo
from repro.devtools.source import (
    RNG_CONSTRUCTORS,
    RNG_SAFE,
    WALL_CLOCK_CALLS,
    canonical_name,
    is_set_expr,
    local_set_names,
    terminal_name,
)

# ----------------------------------------------------------------------
# The catalogue
# ----------------------------------------------------------------------
#: Source kinds.
KIND_WALL_CLOCK = "wall-clock"
KIND_AMBIENT_RNG = "ambient-rng"
KIND_UUID = "uuid"
KIND_IDENTITY = "object-identity"
KIND_ENV_READ = "env-read"
KIND_FS_ENUM = "fs-enumeration"
KIND_UNORDERED_ITER = "unordered-iter"
KIND_FLOAT_ACCUM = "float-accum-unordered"

#: Kinds whose nondeterminism is purely *ordering* — a sort barrier or
#: canonical (key-sorted) JSON encoding restores byte-stability.  Value
#: kinds (wall-clock, rng, uuid, identity, env reads) survive sorting.
ORDER_KINDS = frozenset({KIND_FS_ENUM, KIND_UNORDERED_ITER, KIND_FLOAT_ACCUM})

#: Sanitizer classes (the report counts applications of each).
SAN_SORT = "sort-barrier"
SAN_CANONICAL_JSON = "canonical-json"
SAN_RNG_STREAM = "rng-stream"

#: Environment-read calls (value depends on the host environment).
_ENV_READ_CALLS = frozenset({"os.getenv"})

#: ``os.environ.<member>`` reads (writes are PAR002's business).
_ENV_READ_MEMBERS = frozenset({"get", "items", "keys", "values", "copy", "setdefault"})

#: Filesystem-enumeration calls whose result *order* is OS-dependent.
_FS_ENUM_CALLS = frozenset({"os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob"})

#: Method names that enumerate a directory regardless of receiver type
#: (``Path.iterdir`` / ``Path.rglob``); ``Path.glob`` is only matched
#: through the ``glob`` module spellings above to avoid name collisions.
_FS_ENUM_METHODS = frozenset({"iterdir", "rglob", "scandir"})

#: The canonical sinks: every function whose output must be byte-stable.
#: qualname -> the artifact family it renders or keys.
SINKS: dict[str, str] = {
    # repro.obs/1 decision-trace codec
    "repro.obs.export.span_to_json_line": "repro.obs/1",
    "repro.obs.export.spans_to_jsonl": "repro.obs/1",
    "repro.obs.export.write_trace_jsonl": "repro.obs/1",
    # repro.telemetry/1 snapshot codec + OpenMetrics rendering
    "repro.telemetry.snapshot.snapshot_lines": "repro.telemetry/1",
    "repro.telemetry.snapshot.snapshot_to_jsonl": "repro.telemetry/1",
    "repro.telemetry.snapshot.write_snapshot_jsonl": "repro.telemetry/1",
    "repro.telemetry.openmetrics.render_openmetrics": "openmetrics",
    "repro.telemetry.openmetrics.write_openmetrics": "openmetrics",
    # repro.san/1 sanitizer codec
    "repro.sanitizer.export.violation_to_json_line": "repro.san/1",
    "repro.sanitizer.export.violations_to_jsonl": "repro.san/1",
    "repro.sanitizer.export.write_san_jsonl": "repro.san/1",
    "repro.sanitizer.export.render_san_report": "repro.san/1",
    # repro.sweep/1 spec codec, shard seeds, and shard-cache keys
    "repro.experiments.spec.RunSpec.canonical_json": "repro.sweep/1",
    "repro.experiments.spec.SweepSpec.canonical_json": "repro.sweep/1",
    # repro.app/1 application-graph codec (embedded in run specs)
    "repro.workloads.graph.ApplicationSpec.canonical_json": "repro.app/1",
    "repro.experiments.spec.derive_shard_seed": "shard-seed",
    "repro.parallel.cache.ShardCache.key_for": "shard-cache-key",
    # summary / timeline builders
    "repro.metrics.summary.RunSummary.from_collector": "summary",
    "repro.metrics.summary.RunSummary.to_dict": "summary",
    "repro.metrics.summary.RunSummary.to_json": "summary",
    "repro.analysis.timeline.render_timeline": "timeline",
    # the analyzer's own report eats its own dog food
    "repro.devtools.analyzer.render_json": "repro.flow/3",
}

#: Rule id per source kind for tainted-path findings.
_RULE_FOR_KIND = {
    KIND_WALL_CLOCK: "DET101",
    KIND_AMBIENT_RNG: "DET101",
    KIND_UUID: "DET101",
    KIND_IDENTITY: "DET101",
    KIND_ENV_READ: "DET101",
    KIND_FS_ENUM: "DET101",
    KIND_UNORDERED_ITER: "DET103",
    KIND_FLOAT_ACCUM: "DET104",
}


# ----------------------------------------------------------------------
# Per-function facts
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class TaintSource:
    """One unsanitized nondeterminism source inside one function."""

    line: int
    col: int
    kind: str
    detail: str


@dataclass(frozen=True)
class TaintFacts:
    """Everything the taint pass learned about one function's body."""

    qualname: str
    sources: tuple[TaintSource, ...] = ()
    #: Sources killed at birth by an enclosing sanitizer (counted only).
    killed: tuple[TaintSource, ...] = ()
    #: Sanitizer class -> number of applications in this body.
    sanitizers: Mapping[str, int] = field(default_factory=dict)
    #: Bare callee names whose *every* call site sits inside an
    #: order-killing barrier (``sorted(helper(...))``).
    barrier_wrapped: frozenset[str] = frozenset()
    #: Every ``return`` wraps its value in an order-killing sanitizer, so
    #: ORDER-kind taint generated below this function never escapes up.
    returns_sanitized: bool = False


def _is_sorted_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sorted"
    )


def _is_canonical_json_call(node: ast.expr, aliases: Mapping[str, str]) -> bool:
    """``json.dumps(..., sort_keys=True)`` or a ``canonical_json`` call."""
    if not isinstance(node, ast.Call):
        return False
    name = canonical_name(node.func, dict(aliases))
    if name == "json.dumps":
        for kw in node.keywords:
            if (
                kw.arg == "sort_keys"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
            ):
                return True
        return False
    return terminal_name(node.func) == "canonical_json"


def _is_order_barrier(node: ast.expr, aliases: Mapping[str, str]) -> bool:
    return _is_sorted_call(node) or _is_canonical_json_call(node, aliases)


def _barrier_arg_nodes(fn: ast.AST, aliases: Mapping[str, str]) -> set[int]:
    """ids of AST nodes that sit inside an order-killing barrier's args."""
    inside: set[int] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and _is_order_barrier(node, aliases):
            for arg in (*node.args, *[kw.value for kw in node.keywords]):
                for child in ast.walk(arg):
                    inside.add(id(child))
    return inside


def _membership_only_nodes(fn: ast.AST) -> set[int]:
    """ids of call nodes whose value never escapes a membership check.

    ``seen.add(id(node))`` and ``id(node) in seen`` use object identity as
    an ephemeral within-process key; the value cannot reach an artifact,
    so ``id()``/``hash()`` in these positions are not sources.
    """
    inside: set[int] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Compare) and all(
            isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
        ):
            inside.add(id(node.left))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("add", "discard", "remove")
            and len(node.args) == 1
        ):
            inside.add(id(node.args[0]))
    return inside


class _TaintScanner(ast.NodeVisitor):
    """One walk collecting the :class:`TaintFacts` of one function."""

    def __init__(self, fn: FunctionInfo, aliases: dict[str, str]):
        self.fn = fn
        self.aliases = aliases
        self.barrier = _barrier_arg_nodes(fn.node, aliases)
        self.membership_only = _membership_only_nodes(fn.node)
        self.set_names = local_set_names(list(ast.walk(fn.node)))
        self.sources: list[TaintSource] = []
        self.killed: list[TaintSource] = []
        self.sanitizers: dict[str, int] = {}
        self._call_totals: dict[str, int] = {}
        self._call_wrapped: dict[str, int] = {}
        self._returns: list[ast.expr] = []
        self._top = True

    # -- plumbing ------------------------------------------------------
    def _source(self, node: ast.AST, kind: str, detail: str) -> None:
        record = TaintSource(
            line=getattr(node, "lineno", self.fn.lineno),
            col=getattr(node, "col_offset", 0) + 1,
            kind=kind,
            detail=detail,
        )
        if kind in ORDER_KINDS and id(node) in self.barrier:
            self.killed.append(record)
        else:
            self.sources.append(record)

    def _sanitizer(self, cls: str) -> None:
        self.sanitizers[cls] = self.sanitizers.get(cls, 0) + 1

    # -- structure -----------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self._top:
            self._top = False
            self.generic_visit(node)
        # Nested defs are separate functions; their bodies are scanned
        # when (if) they appear in the call graph.

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.visit_FunctionDef(node)  # type: ignore[arg-type]

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self._returns.append(node.value)
        self.generic_visit(node)

    # -- calls: sources, sanitizers, wrapped-callee accounting ---------
    def visit_Call(self, node: ast.Call) -> None:
        name = canonical_name(node.func, self.aliases)
        terminal = terminal_name(node.func)

        if _is_sorted_call(node):
            self._sanitizer(SAN_SORT)
        elif _is_canonical_json_call(node, self.aliases):
            self._sanitizer(SAN_CANONICAL_JSON)
        elif terminal in ("stream", "derive_shard_seed") and (node.args or node.keywords):
            # RngStreams.stream("name") / derive_shard_seed(seed, name):
            # deterministic derivation — the sanctioned alternative to
            # ambient draws.
            self._sanitizer(SAN_RNG_STREAM)

        if terminal is not None:
            self._call_totals[terminal] = self._call_totals.get(terminal, 0) + 1
            if id(node) in self.barrier:
                self._call_wrapped[terminal] = self._call_wrapped.get(terminal, 0) + 1

        if name is not None:
            self._classify_call(node, name)
        self.generic_visit(node)

    def _classify_call(self, node: ast.Call, name: str) -> None:
        if name in WALL_CLOCK_CALLS:
            self._source(node, KIND_WALL_CLOCK, name)
        elif name == "random" or name.startswith("random."):
            self._source(node, KIND_AMBIENT_RNG, name)
        elif name.startswith("numpy.random."):
            member = name.split(".")[2]
            if member in RNG_SAFE:
                return
            if member in RNG_CONSTRUCTORS and (node.args or node.keywords):
                return  # seeded/injected construction, not an ambient draw
            self._source(node, KIND_AMBIENT_RNG, name)
        elif name.startswith("uuid."):
            self._source(node, KIND_UUID, name)
        elif name in ("id", "hash"):
            if id(node) not in self.membership_only:
                self._source(node, KIND_IDENTITY, f"{name}()")
        elif name in _ENV_READ_CALLS:
            self._source(node, KIND_ENV_READ, name)
        elif name.startswith("os.environ.") and name.rsplit(".", 1)[-1] in _ENV_READ_MEMBERS:
            self._source(node, KIND_ENV_READ, name)
        elif name in _FS_ENUM_CALLS:
            self._source(node, KIND_FS_ENUM, name)
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _FS_ENUM_METHODS
            and not name.startswith("os.")
        ):
            self._source(node, KIND_FS_ENUM, f".{node.func.attr}()")
        elif name in ("sum", "math.fsum"):
            args = node.args
            if args and self._iterates_a_set(args[0]):
                self._source(node, KIND_FLOAT_ACCUM, f"{name}(<set>)")

    def _iterates_a_set(self, node: ast.expr) -> bool:
        if is_set_expr(node, self.set_names):
            return True
        if isinstance(node, ast.GeneratorExp):
            return any(
                is_set_expr(gen.iter, self.set_names) for gen in node.generators
            )
        return False

    # -- environment subscript reads -----------------------------------
    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, ast.Load):
            target = canonical_name(node.value, self.aliases)
            if target == "os.environ":
                self._source(node, KIND_ENV_READ, "os.environ[...]")
        self.generic_visit(node)

    # -- unordered iteration & float accumulation ----------------------
    def visit_For(self, node: ast.For) -> None:
        self._flag_set_iter(node.iter)
        if is_set_expr(node.iter, self.set_names) and isinstance(node.target, ast.Name):
            loop_var = node.target.id
            for child in node.body:
                for sub in ast.walk(child):
                    if (
                        isinstance(sub, ast.AugAssign)
                        and isinstance(sub.op, ast.Add)
                        and any(
                            isinstance(n, ast.Name) and n.id == loop_var
                            for n in ast.walk(sub.value)
                        )
                    ):
                        self._source(
                            sub, KIND_FLOAT_ACCUM, "+= accumulation over a set"
                        )
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._flag_set_iter(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST) -> None:
        for gen in getattr(node, "generators", []):
            self._flag_set_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    def _flag_set_iter(self, iterable: ast.expr) -> None:
        if is_set_expr(iterable, self.set_names):
            self._source(iterable, KIND_UNORDERED_ITER, "set iteration")

    # -- result --------------------------------------------------------
    def facts(self) -> TaintFacts:
        wrapped = frozenset(
            name
            for name, total in self._call_totals.items()
            if self._call_wrapped.get(name, 0) == total
        )
        returns_sanitized = bool(self._returns) and all(
            _is_order_barrier(value, self.aliases) for value in self._returns
        )
        return TaintFacts(
            qualname=self.fn.qualname,
            sources=tuple(sorted(self.sources)),
            killed=tuple(sorted(self.killed)),
            sanitizers=dict(sorted(self.sanitizers.items())),
            barrier_wrapped=wrapped,
            returns_sanitized=returns_sanitized,
        )


def taint_facts_of(graph: CallGraph, fn: FunctionInfo) -> TaintFacts:
    """Scan one function for sources, sanitizers, and barriers."""
    info = graph.modules.get(fn.module)
    scanner = _TaintScanner(fn, dict(info.aliases) if info is not None else {})
    scanner.visit(fn.node)
    return scanner.facts()


# ----------------------------------------------------------------------
# Propagation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaintState:
    """How taint of one kind reached one function."""

    #: The function whose body holds the source (chain terminus).
    source_function: str
    source: TaintSource
    #: The callee this function was tainted through (None at the source).
    via: str | None


@dataclass(frozen=True, order=True)
class TaintedPath:
    """One ranked source→sink witness chain."""

    rank: int
    rule: str
    kind: str
    source_function: str
    source_path: str
    source_line: int
    source_col: int
    source_detail: str
    sink: str
    sink_family: str
    #: Call chain from the source-bearing function to the sink, inclusive.
    chain: tuple[str, ...]

    @property
    def hops(self) -> int:
        """Call edges on the witness chain."""
        return len(self.chain) - 1

    def to_dict(self) -> dict[str, object]:
        """JSON shape of one tainted-path row."""
        return {
            "rank": self.rank,
            "rule": self.rule,
            "kind": self.kind,
            "source_function": self.source_function,
            "source_path": self.source_path,
            "source_line": self.source_line,
            "source_col": self.source_col,
            "source_detail": self.source_detail,
            "sink": self.sink,
            "sink_family": self.sink_family,
            "hops": self.hops,
            "chain": list(self.chain),
        }


@dataclass(frozen=True)
class TaintAnalysis:
    """The full result of the taint pass over one tree."""

    facts: Mapping[str, TaintFacts]
    #: kind -> (function qualname -> how taint reached it).
    tainted: Mapping[str, Mapping[str, TaintState]]
    paths: tuple[TaintedPath, ...]
    #: Sink qualnames present in the analyzed graph, sorted.
    sinks_present: tuple[str, ...]
    #: Sanitizer class -> total applications across the tree.
    sanitizer_applications: Mapping[str, int]

    @property
    def source_count(self) -> int:
        """Unsanitized source sites across the tree."""
        return sum(len(f.sources) for f in self.facts.values())

    @property
    def killed_count(self) -> int:
        """Sources killed at birth by an enclosing sanitizer."""
        return sum(len(f.killed) for f in self.facts.values())


def _build_callers(graph: CallGraph) -> dict[str, list[str]]:
    callers: dict[str, list[str]] = {}
    for caller in sorted(graph.edges):
        for callee in graph.edges[caller]:
            callers.setdefault(callee, []).append(caller)
    return callers


def _propagate_kind(
    graph: CallGraph,
    facts: Mapping[str, TaintFacts],
    callers: Mapping[str, list[str]],
    kind: str,
) -> dict[str, TaintState]:
    """BFS taint of one kind from source functions up through callers."""
    state: dict[str, TaintState] = {}
    queue: deque[str] = deque()
    for qualname in sorted(facts):
        for source in facts[qualname].sources:
            if source.kind == kind:
                state[qualname] = TaintState(
                    source_function=qualname, source=source, via=None
                )
                queue.append(qualname)
                break
    while queue:
        current = queue.popleft()
        current_facts = facts.get(current)
        if (
            kind in ORDER_KINDS
            and current_facts is not None
            and current_facts.returns_sanitized
        ):
            continue  # every return is sorted/canonical: taint dies here
        bare = current.rsplit(".", 1)[-1]
        witness = state[current]
        for caller in sorted(callers.get(current, ())):
            if caller in state:
                continue
            caller_facts = facts.get(caller)
            if (
                kind in ORDER_KINDS
                and caller_facts is not None
                and bare in caller_facts.barrier_wrapped
            ):
                continue  # caller sorts everything this callee returns
            state[caller] = TaintState(
                source_function=witness.source_function,
                source=witness.source,
                via=current,
            )
            queue.append(caller)
    return state


def _taint_chain(state: Mapping[str, TaintState], start: str) -> tuple[str, ...]:
    """Chain from ``start`` down taint pointers to the source function."""
    chain = [start]
    current = start
    while True:
        via = state[current].via
        if via is None:
            return tuple(chain)
        chain.append(via)
        current = via


def analyze_taint(graph: CallGraph) -> TaintAnalysis:
    """Run the full taint pass: scan, propagate, build witness chains.

    A tainted path into a sink exists exactly when a **direct caller** of
    the sink is tainted (it hands tainted data in as arguments), or the
    sink itself is tainted (its own body, or a callee's return, carries
    the taint).  Taintedness already encodes barrier-free propagation
    from the source, so no separate path search is needed — and a source
    whose only route to a sink runs through a ``sorted(...)``-wrapping
    caller is correctly *not* flagged.
    """
    facts = {
        qualname: taint_facts_of(graph, fn)
        for qualname, fn in sorted(graph.functions.items())
    }
    callers = _build_callers(graph)
    kinds = sorted(_RULE_FOR_KIND)
    tainted = {
        kind: _propagate_kind(graph, facts, callers, kind) for kind in kinds
    }

    sinks_present = tuple(sorted(q for q in SINKS if q in graph.functions))
    raw_paths: list[tuple[int, str, str, int, int, str, TaintSource, str, tuple[str, ...]]] = []
    seen: set[tuple[str, str, str]] = set()
    for sink in sinks_present:
        hands_in = (*sorted(callers.get(sink, ())), sink)
        for kind in kinds:
            state = tainted[kind]
            for reaches in hands_in:
                witness = state.get(reaches)
                if witness is None:
                    continue
                key = (kind, witness.source_function, sink)
                if key in seen:
                    continue
                seen.add(key)
                down = _taint_chain(state, reaches)  # reaches -> source fn
                chain = tuple(reversed(down))
                # Chain reads source -> ... -> sink.
                if chain[-1] != sink:
                    chain = (*chain, sink)
                raw_paths.append(
                    (
                        len(chain) - 1,
                        _RULE_FOR_KIND[kind],
                        kind,
                        witness.source.line,
                        witness.source.col,
                        witness.source_function,
                        witness.source,
                        sink,
                        chain,
                    )
                )

    raw_paths.sort(
        key=lambda row: (row[0], row[1], row[5], row[3], row[4], row[7])
    )
    paths = tuple(
        TaintedPath(
            rank=index + 1,
            rule=rule,
            kind=kind,
            source_function=source_function,
            source_path=graph.functions[source_function].path,
            source_line=source.line,
            source_col=source.col,
            source_detail=source.detail,
            sink=sink,
            sink_family=SINKS.get(sink, "sink"),
            chain=chain,
        )
        for index, (
            _hops,
            rule,
            kind,
            _line,
            _col,
            source_function,
            source,
            sink,
            chain,
        ) in enumerate(raw_paths)
    )

    applications: dict[str, int] = {SAN_SORT: 0, SAN_CANONICAL_JSON: 0, SAN_RNG_STREAM: 0}
    for f in facts.values():
        for cls, count in f.sanitizers.items():
            applications[cls] = applications.get(cls, 0) + count

    return TaintAnalysis(
        facts=facts,
        tainted=tainted,
        paths=paths,
        sinks_present=sinks_present,
        sanitizer_applications=dict(sorted(applications.items())),
    )
