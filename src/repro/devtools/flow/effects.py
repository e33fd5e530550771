"""Per-function effect & dataflow summaries.

For every function in the call graph this pass records, purely from the
AST:

* **allocations** — container literals and comprehensions, generator
  expressions, lambda / nested-``def`` construction (a fresh function
  object per call), and string formatting (f-strings, ``str.format``,
  ``%``-formatting on a string literal), each tagged with its loop depth
  and whether it sits on an error path (``raise`` arguments, ``except``
  bodies, ``warnings.warn`` calls — cold by construction);
* **list memberships** — ``x in [a, b]`` / ``x in list(...)``, the O(n)
  scan a tuple or frozenset would do in O(1);
* **attribute chains** — pure ``a.b.c`` read chains and how often each
  repeats, the "resolve the same deep attribute every iteration" pattern;
* **global writes** — ``global`` rebinding and ``os.environ`` mutation.

These summaries are pure data: the rule families in
:mod:`repro.devtools.flow.rules` combine them with reachability to decide
what is actually a violation.  :func:`unit_signature` gives the unit
classes of a def's parameters and return value, which UNIT002 reads at
each call site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.devtools.flow.callgraph import FunctionInfo
from repro.devtools.source import dotted_name, terminal_name, unit_class_of_name

#: Allocation kinds considered *hoistable* when every element is constant.
CONSTANT_HOISTABLE = frozenset({"list-literal", "dict-literal", "set-literal"})

#: Allocation kinds that always construct a fresh callable.
CLOSURE_KINDS = frozenset({"lambda", "closure"})

#: Allocation kinds that build strings.
FORMAT_KINDS = frozenset({"fstring", "str-format", "percent-format"})


@dataclass(frozen=True, order=True)
class AllocationSite:
    """One allocation expression inside one function."""

    line: int
    col: int
    kind: str
    #: How many loops/comprehensions enclose the site *within* the function.
    loop_depth: int
    #: Every element/key/value is a constant (the site is hoistable).
    constant: bool
    #: The site only executes while raising/handling an error.
    error_path: bool
    #: The site is the value of a keyword argument in a call — the
    #: event-payload convention (``detail=f"..."``); data, not a key.
    payload: bool = False
    #: A lambda/closure that captures enclosing locals — it cannot be
    #: hoisted to module scope without restructuring.
    captures: bool = False


@dataclass(frozen=True, order=True)
class MembershipSite:
    """One ``x in <list>`` membership test."""

    line: int
    col: int
    loop_depth: int
    detail: str


@dataclass(frozen=True, order=True)
class GlobalWrite:
    """One write to process-global state."""

    line: int
    col: int
    target: str  # e.g. ``global counter`` name or ``os.environ``


@dataclass(frozen=True)
class EffectSummary:
    """Everything the effect pass learned about one function."""

    qualname: str
    path: str
    allocations: tuple[AllocationSite, ...] = ()
    memberships: tuple[MembershipSite, ...] = ()
    #: Pure attribute read chain (``a.b.c``) -> (count, first line, depth).
    attr_chains: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    global_writes: tuple[GlobalWrite, ...] = ()


def _bound_names(fn: ast.AST) -> set[str]:
    """Every name bound inside a function: params plus Store-context names."""
    bound: set[str] = set()
    args = getattr(fn, "args", None)
    if args is not None:
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            bound.add(arg.arg)
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None:
                bound.add(vararg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
    return bound


def _captures_locals(node: ast.Lambda | ast.FunctionDef | ast.AsyncFunctionDef, enclosing: set[str]) -> bool:
    """True when a nested callable reads a name bound in its enclosing scope."""
    own = _bound_names(node)
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Name)
            and isinstance(child.ctx, ast.Load)
            and child.id not in own
            and child.id in enclosing
        ):
            return True
    return False


def _keyword_arg_nodes(fn: ast.AST) -> set[int]:
    """ids of AST nodes that sit inside a call's keyword-argument value."""
    inside: set[int] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                for child in ast.walk(keyword.value):
                    inside.add(id(child))
    return inside


def _replication_operands(fn: ast.AST) -> set[int]:
    """ids of literals used as ``[x] * n`` operands — not hoistable: the
    product is a fresh list regardless, and the result is often mutated."""
    operands: set[int] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            for side in (node.left, node.right):
                if isinstance(side, (ast.List, ast.Tuple)):
                    operands.add(id(side))
    return operands


def _error_path_nodes(fn: ast.AST) -> set[int]:
    """ids of AST nodes that only execute on error paths."""
    cold: set[int] = set()
    for node in ast.walk(fn):
        roots: list[ast.AST] = []
        if isinstance(node, ast.Raise):
            roots.append(node)
        elif isinstance(node, ast.ExceptHandler):
            roots.append(node)
        elif isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted in ("warnings.warn", "warn"):
                roots.append(node)
        elif isinstance(node, ast.Assert):
            # The message (and test) of an assert only costs on failure in
            # optimized runs; treat the message expression as cold.
            if node.msg is not None:
                roots.append(node.msg)
        for root in roots:
            for child in ast.walk(root):
                cold.add(id(child))
    return cold


_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While)
_COMP_NODES = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _all_constant(node: ast.expr) -> bool:
    """True when a *non-empty* container literal holds only constants.

    Empty literals are accumulator initialisations, not hoistable values —
    hoisting them would share one mutable object (the SAN001 bug).
    """
    if isinstance(node, ast.List) or isinstance(node, ast.Set):
        return bool(node.elts) and all(isinstance(e, ast.Constant) for e in node.elts)
    if isinstance(node, ast.Dict):
        return bool(node.keys) and all(
            k is not None and isinstance(k, ast.Constant) and isinstance(v, ast.Constant)
            for k, v in zip(node.keys, node.values)
        )
    return False


def _chain_of(node: ast.expr) -> tuple[str, int] | None:
    """(dotted chain, hop count) for a pure Name/Attribute read chain."""
    hops = 0
    current = node
    while isinstance(current, ast.Attribute):
        hops += 1
        current = current.value
    if hops == 0 or not isinstance(current, ast.Name):
        return None
    dotted = dotted_name(node)
    if dotted is None:
        return None
    return dotted, hops


class _EffectVisitor(ast.NodeVisitor):
    """Single walk that fills an :class:`EffectSummary` worth of facts."""

    def __init__(self, fn: FunctionInfo):
        self.fn = fn
        self.loop_depth = 0
        self.cold = _error_path_nodes(fn.node)
        self.kwarg = _keyword_arg_nodes(fn.node)
        self.enclosing = _bound_names(fn.node)
        self.replication = _replication_operands(fn.node)
        self.allocations: list[AllocationSite] = []
        self.memberships: list[MembershipSite] = []
        self.attr_chains: dict[str, tuple[int, int, int]] = {}
        self.global_writes: list[GlobalWrite] = []
        self._top = True

    # -- plumbing ------------------------------------------------------
    def _site(
        self, node: ast.AST, kind: str, constant: bool = False, captures: bool = False
    ) -> None:
        self.allocations.append(
            AllocationSite(
                line=getattr(node, "lineno", self.fn.lineno),
                col=getattr(node, "col_offset", 0) + 1,
                kind=kind,
                loop_depth=self.loop_depth,
                constant=constant,
                error_path=id(node) in self.cold,
                payload=id(node) in self.kwarg,
                captures=captures,
            )
        )

    def _in_loop(self, node: ast.AST) -> None:
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    # -- structure -----------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._in_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._in_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._in_loop(node)

    def _visit_comp(self, node: ast.AST, kind: str) -> None:
        self._site(node, kind)
        self._in_loop(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comp(node, "listcomp")

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comp(node, "setcomp")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comp(node, "dictcomp")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comp(node, "genexp")

    # -- allocations ---------------------------------------------------
    def visit_List(self, node: ast.List) -> None:
        if isinstance(node.ctx, ast.Load):
            constant = _all_constant(node) and id(node) not in self.replication
            self._site(node, "list-literal", constant=constant)
        self.generic_visit(node)

    def visit_Set(self, node: ast.Set) -> None:
        self._site(node, "set-literal", constant=_all_constant(node))
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        self._site(node, "dict-literal", constant=_all_constant(node))
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._site(node, "lambda", captures=_captures_locals(node, self.enclosing))
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self._top:
            self._top = False
            self.generic_visit(node)
        else:
            self._site(node, "closure", captures=_captures_locals(node, self.enclosing))
            self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.visit_FunctionDef(node)  # type: ignore[arg-type]

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        self._site(node, "fstring")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "format"
            and isinstance(node.func.value, (ast.Constant, ast.Name))
        ):
            self._site(node, "str-format")
        dotted = dotted_name(node.func)
        if dotted in ("os.putenv", "os.unsetenv"):
            self.global_writes.append(
                GlobalWrite(node.lineno, node.col_offset + 1, dotted)
            )
        if dotted is not None and dotted.startswith("os.environ."):
            member = dotted.rsplit(".", 1)[-1]
            if member in ("update", "setdefault", "pop", "clear", "popitem"):
                self.global_writes.append(
                    GlobalWrite(node.lineno, node.col_offset + 1, "os.environ")
                )
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Mod) and isinstance(node.left, ast.Constant) and isinstance(
            node.left.value, str
        ):
            self._site(node, "percent-format")
        self.generic_visit(node)

    # -- memberships ---------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.In, ast.NotIn)):
                continue
            haystack = operands[index + 1]
            detail: str | None = None
            if isinstance(haystack, (ast.List, ast.ListComp)):
                detail = "list literal"
            elif (
                isinstance(haystack, ast.Call)
                and isinstance(haystack.func, ast.Name)
                and haystack.func.id in ("list", "sorted")
            ):
                detail = f"{haystack.func.id}(...)"
            if detail is not None:
                self.memberships.append(
                    MembershipSite(
                        line=node.lineno,
                        col=node.col_offset + 1,
                        loop_depth=self.loop_depth,
                        detail=detail,
                    )
                )
        self.generic_visit(node)

    # -- attribute chains ----------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = _chain_of(node)
        if chain is not None and isinstance(node.ctx, ast.Load):
            dotted, hops = chain
            count, first_line, depth = self.attr_chains.get(dotted, (0, node.lineno, 0))
            self.attr_chains[dotted] = (
                count + 1,
                min(first_line, node.lineno),
                max(depth, hops),
            )
            return  # do not descend: inner chains are part of this one
        self.generic_visit(node)

    # -- global writes -------------------------------------------------
    def visit_Global(self, node: ast.Global) -> None:
        for name in node.names:
            self.global_writes.append(GlobalWrite(node.lineno, node.col_offset + 1, name))
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            dotted = dotted_name(node.value)
            if dotted in ("os.environ", "environ"):
                self.global_writes.append(
                    GlobalWrite(node.lineno, node.col_offset + 1, "os.environ")
                )
        self.generic_visit(node)


def unit_signature(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> tuple[tuple[str, ...], dict[str, str], str | None]:
    """(positional parameters sans ``self``/``cls``, their unit classes, the
    return value's unit class when every ``return`` agrees) from suffix
    conventions."""
    params = tuple(a.arg for a in (*fn.args.posonlyargs, *fn.args.args))
    if params and params[0] in ("self", "cls"):
        params = params[1:]
    param_units: dict[str, str] = {}
    for name in params:
        unit = unit_class_of_name(name)
        if unit is not None:
            param_units[name] = unit
    return_units: set[str | None] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and node.value is not None:
            name = terminal_name(node.value)
            return_units.add(None if name is None else unit_class_of_name(name))
    return params, param_units, return_units.pop() if len(return_units) == 1 else None


def effects_of(fn: FunctionInfo) -> EffectSummary:
    """Compute the effect summary of one function."""
    visitor = _EffectVisitor(fn)
    visitor.visit(fn.node)
    return EffectSummary(
        qualname=fn.qualname,
        path=fn.path,
        allocations=tuple(sorted(visitor.allocations)),
        memberships=tuple(sorted(visitor.memberships)),
        attr_chains=visitor.attr_chains,
        global_writes=tuple(sorted(visitor.global_writes)),
    )
