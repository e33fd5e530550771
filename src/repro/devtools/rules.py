"""The rule type, the whole-program facts rules consult, and the file rules.

Every rule is a :class:`Rule`: a stable ID, a one-line summary, a path
predicate naming the files it looks at, and a check run once per accepted
file.  File rules (this module) judge what one file shows; call-graph
rules (:mod:`repro.devtools.flow.rules`) judge a file's functions by
where the call graph says they run.  Both read the same
:class:`Program`, built once per pass.  The catalogue and its version
live in :mod:`repro.devtools.analyzer`; ``docs/dev-tooling.md`` holds the
rule table.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.devtools.flow.callgraph import CallGraph, FunctionInfo
from repro.devtools.flow.contracts import Contracts
from repro.devtools.flow.effects import EffectSummary, unit_signature
from repro.devtools.flow.reachability import Roots
from repro.devtools.flow.taint import TaintAnalysis
from repro.devtools.source import (
    RNG_CONSTRUCTORS,
    RNG_SAFE,
    WALL_CLOCK_CALLS,
    SourceFile,
    Violation,
    canonical_name,
    dotted_name,
    is_example,
    is_mutable_container,
    is_set_expr,
    local_set_names,
    repro_module_path,
    terminal_name,
    unit_class_of_name,
)


@dataclass(frozen=True)
class Program:
    """Whole-program facts, computed once per pass, that every rule may read."""

    graph: CallGraph
    roots: Roots
    step_reachable: frozenset[str]
    worker_reachable: frozenset[str]
    merge_reachable: frozenset[str]
    effects: dict[str, EffectSummary]
    taint: TaintAnalysis
    contracts: Contracts

    def functions_of(self, f: SourceFile) -> list[FunctionInfo]:
        """The call-graph functions and methods defined in one file."""
        info = self.graph.modules.get(f.module) if f.module is not None else None
        if info is None:
            return []
        methods = (fn for cls in info.classes.values() for fn in cls.methods.values())
        return sorted((*info.functions.values(), *methods), key=lambda fn: fn.qualname)


@dataclass(frozen=True)
class Rule:
    """One named invariant check."""

    id: str
    summary: str
    applies: Callable[[str], bool]
    check: Callable[[SourceFile, Program], Iterable[Violation]]

    def run(self, f: SourceFile, program: Program) -> list[Violation]:
        """Run this rule over one parsed file (no-op outside its scope)."""
        return list(self.check(f, program)) if self.applies(f.path) else []


def violation(path: str, node: ast.AST, rule: str, message: str) -> Violation:
    """A finding at ``node``'s position."""
    return Violation(
        path=path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        rule=rule,
        message=message,
    )


def _in_src(path: str) -> bool:
    return repro_module_path(path) is not None


# ----------------------------------------------------------------------
# DET001 — wall-clock reads
# ----------------------------------------------------------------------
def _src_or_examples(path: str) -> bool:
    return _in_src(path) or is_example(path)


def _det001_check(f: SourceFile, _: Program) -> Iterator[Violation]:
    """DET001: simulated components must read ``SimClock.now``, never the host
    clock — wall-clock reads make runs unrepeatable and timing-dependent."""
    for node in f.nodes:
        if isinstance(node, ast.Call):
            name = canonical_name(node.func, f.aliases)
            if name in WALL_CLOCK_CALLS:
                yield violation(
                    f.path,
                    node,
                    "DET001",
                    f"wall-clock call `{name}` in simulator code; "
                    "take time from the injected SimClock (`clock.now`)",
                )


# ----------------------------------------------------------------------
# DET002 — private randomness
# ----------------------------------------------------------------------
def _det002_check(f: SourceFile, _: Program) -> Iterator[Violation]:
    """DET002: all randomness flows from one root seed via ``RngStreams``;
    constructing or seeding generators anywhere else forks the entropy
    universe and silently breaks run-for-run reproducibility.  Only
    ``sim/rng.py`` may construct a generator, and only from an explicit
    seed; an unseeded draw there is as ambient as anywhere else."""
    seeded_construction_ok = repro_module_path(f.path) == "sim/rng.py"
    for node in f.nodes:
        if not isinstance(node, ast.Call):
            continue
        name = canonical_name(node.func, f.aliases)
        if name is None:
            continue
        if name.startswith("random.") or name == "random":
            yield violation(
                f.path,
                node,
                "DET002",
                f"stdlib `{name}` call bypasses the seeded RngStreams discipline; "
                "accept an injected np.random.Generator instead",
            )
        elif name.startswith("numpy.random."):
            member = name.split(".")[2]
            seeded = member in RNG_CONSTRUCTORS and bool(node.args or node.keywords)
            if member in RNG_SAFE or (seeded_construction_ok and seeded):
                continue
            yield violation(
                f.path,
                node,
                "DET002",
                f"`{name}` creates randomness outside RngStreams' seeded construction; "
                "accept an injected np.random.Generator or draw from a named "
                "RngStreams stream",
            )


# ----------------------------------------------------------------------
# DET003 — iteration over bare sets
# ----------------------------------------------------------------------
#: Builtins that materialise iteration order from their argument.
_ORDER_MATERIALISING = frozenset({"list", "tuple", "iter", "enumerate"})


def _scopes(tree: ast.Module) -> list[list[ast.AST]]:
    """Each top-level function or method (nested defs included), then the
    rest of the module: the units whose assignments type a name as a set."""
    scopes: list[list[ast.AST]] = []
    rest: list[ast.AST] = []
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        rest.append(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(list(ast.walk(child)))
            else:
                stack.append(child)
    return [*scopes, rest]


def _det003_check(f: SourceFile, _: Program) -> Iterator[Violation]:
    """DET003: Python ``set`` iteration order depends on insertion history and
    hash seeding, so any set-ordered loop that feeds simulator state makes
    runs environment-dependent; iterate ``sorted(...)`` instead.

    A name is set-typed per function: by its own assignments where it is
    assigned, else by its assignments across the module."""
    module_sets = local_set_names(f.nodes)
    for nodes in _scopes(f.tree):
        set_names = local_set_names(nodes, inherited=module_sets)
        for node in nodes:
            sites: list[tuple[ast.expr, str]] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                sites.append((node.iter, "for-loop"))
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                # A set comprehension's own output is a set (unordered), so
                # draining a set into it is fine; list/dict/generator outputs
                # materialise the order.
                sites.extend((gen.iter, "comprehension") for gen in node.generators)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in _ORDER_MATERIALISING and node.args:
                    sites.append((node.args[0], f"{node.func.id}(...)"))
            for iterable, context in sites:
                if is_set_expr(iterable, set_names):
                    yield violation(
                        f.path,
                        iterable,
                        "DET003",
                        f"iteration over a bare set ({context}) has nondeterministic "
                        "order; wrap it in sorted(...) or use an ordered container",
                    )


# ----------------------------------------------------------------------
# UNIT001 — raw unit-conversion magic numbers
# ----------------------------------------------------------------------
#: Literals that are really unit-conversion factors in disguise.
_UNIT_MAGIC: dict[float, str] = {
    1024: "repro.units.SHARES_PER_CORE (or a MiB/KiB helper)",
    1024 * 1024: "repro.units.MIB",
    1000 * 1000: "repro.units.MBIT",
    1024 * 1024 * 1024: "a GiB constant derived from repro.units.MIB",
}


def _unit001_applies(path: str) -> bool:
    module = repro_module_path(path)
    return module is not None and module.startswith(("cluster/", "netsim/"))


def _unit001_check(f: SourceFile, _: Program) -> Iterator[Violation]:
    """UNIT001: bandwidth/memory conversion factors written as raw literals
    (1024, 1024², 10⁶ …) reintroduce the MiB-vs-MB and bit-vs-byte drift that
    ``repro.units`` exists to prevent; import the named constant instead."""
    for node in f.nodes:
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            hint = _UNIT_MAGIC.get(node.value)
            if hint is not None:
                yield violation(
                    f.path, node, "UNIT001", f"raw unit-conversion literal {node.value!r}; use {hint}"
                )


# ----------------------------------------------------------------------
# API001 — complete annotations on the public surface
# ----------------------------------------------------------------------
def _iter_public_functions(
    tree: ast.Module,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, bool]]:
    """Yield ``(function, is_method)`` for public defs at module/class level.

    Functions nested inside other functions are implementation detail, not
    API surface, and are skipped.
    """
    stack: list[tuple[ast.AST, bool]] = [(tree, False)]
    while stack:
        node, in_class = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                stack.append((child, True))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not child.name.startswith("_"):
                    yield child, in_class
                # Do not descend: nested defs are not public surface.
            elif isinstance(child, (ast.If, ast.Try)):
                # Definitions guarded by TYPE_CHECKING / version checks still
                # count as surface.
                stack.append((child, in_class))


def _missing_annotations(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, is_method: bool
) -> list[str]:
    missing: list[str] = []
    args = fn.args
    positional: Sequence[ast.arg] = list(args.posonlyargs) + list(args.args)
    skip_first = is_method and not any(
        isinstance(dec, ast.Name) and dec.id == "staticmethod" for dec in fn.decorator_list
    )
    for index, arg in enumerate(positional):
        if index == 0 and skip_first:
            continue  # self / cls
        if arg.annotation is None:
            missing.append(f"parameter `{arg.arg}`")
    for arg in args.kwonlyargs:
        if arg.annotation is None:
            missing.append(f"parameter `{arg.arg}`")
    if args.vararg is not None and args.vararg.annotation is None:
        missing.append(f"parameter `*{args.vararg.arg}`")
    if args.kwarg is not None and args.kwarg.annotation is None:
        missing.append(f"parameter `**{args.kwarg.arg}`")
    if fn.returns is None:
        missing.append("return type")
    return missing


def _api001_check(f: SourceFile, _: Program) -> Iterator[Violation]:
    """API001: the public surface of ``src/repro`` is the contract that
    ``mypy`` strict-mode verifies; an unannotated public def punches an
    unchecked hole through every caller."""
    for fn, is_method in _iter_public_functions(f.tree):
        missing = _missing_annotations(fn, is_method)
        if missing:
            yield violation(
                f.path,
                fn,
                "API001",
                f"public {'method' if is_method else 'function'} `{fn.name}` "
                f"is missing annotations: {', '.join(missing)}",
            )


# ----------------------------------------------------------------------
# OBS001 — no wall-clock modules inside the telemetry package
# ----------------------------------------------------------------------
#: Modules whose very import signals wall-clock intent in telemetry code.
_OBS_FORBIDDEN_MODULES = frozenset({"time", "datetime"})


def _obs001_applies(path: str) -> bool:
    module = repro_module_path(path)
    return module is not None and module.startswith("telemetry/")


def _obs001_check(f: SourceFile, _: Program) -> Iterator[Violation]:
    """OBS001: the telemetry package's exporters promise byte-identical
    output for same-seed runs, so its only notion of time is the simulated
    ``now`` handed to ``capture()``.  Stronger than DET001: even *importing*
    ``time``/``datetime`` is flagged, before any call site exists."""
    for node in f.nodes:
        offending: str | None = None
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name.split(".")[0] in _OBS_FORBIDDEN_MODULES:
                    offending = item.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] in _OBS_FORBIDDEN_MODULES:
                offending = node.module
        if offending is not None:
            yield violation(
                f.path,
                node,
                "OBS001",
                f"`{offending}` imported inside src/repro/telemetry; telemetry "
                "is sim-time only — take timestamps from the `now` passed to "
                "capture()/snapshot functions",
            )


# ----------------------------------------------------------------------
# OBS002 — registry.capture() only from the sampling layer
# ----------------------------------------------------------------------
#: Modules allowed to stamp retention rings directly: the telemetry
#: sampling actor and the sampling-controller layer it drives.
_OBS002_ALLOWED_MODULES = frozenset({"telemetry/hub.py", "telemetry/sampling.py"})


def _obs002_applies(path: str) -> bool:
    module = repro_module_path(path)
    return module is not None and module not in _OBS002_ALLOWED_MODULES


def _obs002_check(f: SourceFile, _: Program) -> Iterator[Violation]:
    """OBS002: ``capture()`` is the retention heartbeat — one stamp per
    sampling pass, after the sampling controller has charged the pass to
    the observation-cost budget.  A capture issued anywhere else records
    series the policy decided to skip, double-stamps ring timestamps, and
    evades the cost model, so only the sampling layer may call it.  A
    deliberate exception carries a ``# lint: disable=OBS002(reason)``
    suppression."""
    for node in f.nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "capture"):
            continue
        receiver = dotted_name(func.value)
        if receiver is None or "registry" not in receiver.lower():
            continue
        yield violation(
            f.path,
            node,
            "OBS002",
            f"`{receiver}.capture(...)` outside the telemetry sampling "
            "layer; route captures through RunTelemetry.sample()/the "
            "SamplingController so the sampling policy and cost budget "
            "stay authoritative",
        )


# ----------------------------------------------------------------------
# SAN001 — mutable class-level / default-argument containers
# ----------------------------------------------------------------------
def _san001_applies(path: str) -> bool:
    module = repro_module_path(path)
    return module is not None and module.startswith(("cluster/", "platform/", "sim/"))


def _san001_check(f: SourceFile, _: Program) -> Iterator[Violation]:
    """SAN001: a mutable container in a class body is shared by every
    instance, and one in a default argument is shared by every call — both
    alias state across containers/nodes/runs, which is precisely the
    cross-actor write sharing the runtime sanitizer treats as a race."""
    for node in f.nodes:
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                value = stmt.value if isinstance(stmt, (ast.Assign, ast.AnnAssign)) else None
                if value is not None and is_mutable_container(value, f.aliases):
                    yield violation(
                        f.path,
                        stmt,
                        "SAN001",
                        f"mutable class-level container in {node.name}: shared by "
                        "every instance; initialise it in __init__ (or use "
                        "dataclasses.field(default_factory=...))",
                    )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults = [*node.args.defaults, *(d for d in node.args.kw_defaults if d is not None)]
            for default in defaults:
                if is_mutable_container(default, f.aliases):
                    yield violation(
                        f.path,
                        default,
                        "SAN001",
                        f"mutable default argument in {node.name}(): shared across "
                        "calls; default to None and build the container inside",
                    )


# ----------------------------------------------------------------------
# SAN002 — float equality on resource quantities
# ----------------------------------------------------------------------
#: Bare names that denote a resource quantity outright.
_RESOURCE_EXACT = frozenset({"cpu", "mem", "memory", "net", "network", "cores"})

#: Name prefixes/suffixes that mark a resource-quantity variable.
_RESOURCE_PREFIXES = ("cpu_", "mem_", "net_", "disk_")
_RESOURCE_SUFFIXES = (
    "_cpu",
    "_mem",
    "_memory",
    "_net",
    "_network",
    "_cores",
    "_mbps",
    "_mbit",
    "_mbits",
    "_mb",
    "_mib",
    "_request",
    "_limit",
    "_usage",
    "_quota",
    "_capacity",
    "_rate",
    "_headroom",
)


def _is_resource_name(node: ast.expr) -> bool:
    name = terminal_name(node)
    if name is None:
        return False
    lowered = name.lower()
    return (
        lowered in _RESOURCE_EXACT
        or lowered.startswith(_RESOURCE_PREFIXES)
        or lowered.endswith(_RESOURCE_SUFFIXES)
    )


def _outside_units(path: str) -> bool:
    module = repro_module_path(path)
    return module is not None and module != "units.py"


def _san002_check(f: SourceFile, _: Program) -> Iterator[Violation]:
    """SAN002: resource quantities (cores, MiB, Mbit/s) are floats produced
    by scaling/clamping arithmetic, so exact ``==``/``!=`` silently turns
    into "almost never equal"; compare via ``repro.units.same_quantity``
    (tolerance comparisons live in one audited place)."""
    for node in f.nodes:
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            shown = left if _is_resource_name(left) else right
            if _is_resource_name(shown):
                yield violation(
                    f.path,
                    node,
                    "SAN002",
                    f"float equality on resource quantity `{terminal_name(shown)}`; use "
                    "repro.units.same_quantity(a, b) (tolerance comparison)",
                )


# ----------------------------------------------------------------------
# SAN003 — frozen-dataclass mutation outside the defining module
# ----------------------------------------------------------------------
def _san003_check(f: SourceFile, _: Program) -> Iterator[Violation]:
    """SAN003: ``object.__setattr__`` is the only way to mutate a frozen
    dataclass, and the only legitimate caller is the defining class's own
    ``__post_init__`` (receiver ``self``).  Any other receiver is a foreign
    module breaking an immutability contract — views, violation records,
    and spans are hashed/compared on the assumption they never change."""
    for node in f.nodes:
        if not isinstance(node, ast.Call):
            continue
        if canonical_name(node.func, f.aliases) != "object.__setattr__":
            continue
        receiver = node.args[0] if node.args else None
        if not (isinstance(receiver, ast.Name) and receiver.id == "self"):
            yield violation(
                f.path,
                node,
                "SAN003",
                "object.__setattr__ on a foreign frozen instance; frozen "
                "dataclasses may only self-mutate in their own __post_init__ "
                "— build a new instance (dataclasses.replace) instead",
            )


# ----------------------------------------------------------------------
# UNIT002 — unit-suffix dataflow, within a statement and across calls
# ----------------------------------------------------------------------
_Def = ast.FunctionDef | ast.AsyncFunctionDef


def _unit_of(node: ast.expr) -> str | None:
    """Unit class of a ``Name``/``Attribute`` by its suffix, else ``None``."""
    name = terminal_name(node)
    return None if name is None else unit_class_of_name(name)


def _unit002_check(f: SourceFile, program: Program) -> Iterator[Violation]:
    """UNIT002: a unit suffix is a type the type checker cannot see — a
    ``_mbps`` value flowing into a ``_mb`` slot is the MB-vs-Mbit bug class
    the paper's bandwidth model cannot tolerate.  Mixed-suffix assignment,
    argument passing (to this module's defs by name, and to the callee the
    call graph resolves), assignment from a differently-suffixed return,
    and +/-// arithmetic must route through a ``repro.units`` converter."""
    local_defs: dict[str, _Def] = {}
    for node in f.nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # First definition wins; the check is about names, not signatures.
            local_defs.setdefault(node.name, node)
    callers: dict[ast.AST, FunctionInfo] = {}
    for fn in program.functions_of(f):
        for node in ast.walk(fn.node):
            callers[node] = fn
    signatures: dict[_Def, tuple[tuple[str, ...], dict[str, str], str | None]] = {}

    def candidates(call: ast.Call) -> list[tuple[str, tuple[str, ...], dict[str, str], str | None]]:
        """(name, positional params, param units, return unit) of each def the call may reach."""
        name = terminal_name(call.func)
        if name is None:
            return []
        defs: list[_Def] = []
        caller = callers.get(call)
        if caller is not None:
            matches = [q for q in program.graph.callees(caller.qualname) if q.rsplit(".", 1)[-1] == name]
            if len(matches) == 1:
                defs.append(program.graph.functions[matches[0]].node)
        if name in local_defs and local_defs[name] not in defs:
            defs.append(local_defs[name])
        out = []
        for node in defs:
            if node not in signatures:
                signatures[node] = unit_signature(node)
            params, param_units, return_unit = signatures[node]
            out.append((node.name, params, param_units, return_unit))
        return out

    def mismatch(a: str | None, b: str | None) -> bool:
        return a is not None and b is not None and a != b

    def flag(node: ast.AST, source: str, source_class: str, dest: str, dest_class: str) -> Violation:
        return violation(
            f.path,
            node,
            "UNIT002",
            f"unit-suffix mismatch: `{source}` carries {source_class} but flows "
            f"into `{dest}` ({dest_class}); convert via repro.units",
        )

    for node in f.nodes:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            typed = [(t, _unit_of(t)) for t in targets]
            if all(target_class is None for _, target_class in typed):
                continue
            source, value_class = terminal_name(value), _unit_of(value)
            if value_class is None and isinstance(value, ast.Call):
                returning = [c for c in candidates(value) if c[3] is not None]
                if returning:
                    source, value_class = f"{returning[0][0]}(...)", returning[0][3]
            for target, target_class in typed:
                if mismatch(value_class, target_class):
                    yield flag(node, str(source), str(value_class), str(terminal_name(target)), str(target_class))
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg is None:
                    continue
                param_class = unit_class_of_name(keyword.arg)
                arg_class = _unit_of(keyword.value)
                if mismatch(arg_class, param_class):
                    yield flag(
                        keyword.value, str(terminal_name(keyword.value)), str(arg_class),
                        keyword.arg, str(param_class),
                    )
            positional = []
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    break
                positional.append((arg, _unit_of(arg)))
            callees = candidates(node) if any(c is not None for _, c in positional) else []
            for position, (arg, arg_class) in enumerate(positional):
                for callee, params, param_units, _ in callees:
                    if position < len(params) and mismatch(arg_class, param_units.get(params[position])):
                        yield flag(
                            arg, str(terminal_name(arg)), str(arg_class),
                            f"{callee}(... {params[position]} ...)", param_units[params[position]],
                        )
                        break
        elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Div)):
            left_class, right_class = _unit_of(node.left), _unit_of(node.right)
            if mismatch(left_class, right_class):
                yield flag(
                    node, str(terminal_name(node.left)), str(left_class),
                    str(terminal_name(node.right)), str(right_class),
                )


FILE_RULES: tuple[Rule, ...] = (
    Rule("DET001", "no wall-clock reads in simulator code", _src_or_examples, _det001_check),
    Rule("DET002", "no randomness outside RngStreams' seeded construction", _src_or_examples, _det002_check),
    Rule("DET003", "no iteration over bare sets", _in_src, _det003_check),
    Rule("UNIT001", "no raw unit-conversion literals in cluster/netsim", _unit001_applies, _unit001_check),
    Rule("API001", "public src/repro defs carry complete annotations", _in_src, _api001_check),
    Rule("OBS001", "no time/datetime imports inside src/repro/telemetry", _obs001_applies, _obs001_check),
    Rule("OBS002", "registry.capture() only from the telemetry sampling layer", _obs002_applies, _obs002_check),
    Rule("SAN001", "no mutable class-level/default-arg containers in cluster/platform/sim", _san001_applies, _san001_check),
    Rule("SAN002", "no float ==/!= on resource quantities outside units.py", _outside_units, _san002_check),
    Rule("SAN003", "object.__setattr__ only on self (frozen-dataclass discipline)", _in_src, _san003_check),
    Rule("UNIT002", "no mixed unit-suffix dataflow, within a statement or across calls", _outside_units, _unit002_check),
)
