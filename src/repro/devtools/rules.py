"""The rule catalogue of the determinism & invariant linter.

Each rule is an :class:`ast`-level check with a stable ID, a path scope
(which parts of the repo it polices), and a one-line fix hint.  Rules are
deliberately repo-specific: they encode invariants of *this* simulator that
generic linters cannot know about.

==========  ==============================================================
ID          Invariant
==========  ==============================================================
DET001      No wall-clock reads in simulator code — time comes from
            ``sim.clock.SimClock`` so runs are replayable.
DET002      No private randomness outside ``sim/rng.py`` — every draw
            comes from an injected ``np.random.Generator`` or a named
            ``RngStreams`` stream, preserving the single-root-seed
            guarantee.
DET003      No iteration over bare ``set`` values — set order varies
            across processes (hash randomisation), so iterate ``sorted()``
            or use ordered containers where order can feed simulator state.
UNIT001     No raw unit-conversion magic numbers (1024, 1024², 10⁶ …) in
            ``cluster``/``netsim`` — conversions go through ``repro.units``
            so MiB-vs-MB and bit-vs-byte drift cannot creep in.
API001      Public functions and methods in ``src/repro`` carry complete
            type annotations — the typed surface is what ``mypy`` strict
            verifies, and unannotated escapes undermine it.
OBS001      ``src/repro/telemetry`` must not import ``time`` or
            ``datetime`` at all — exporters promise byte-identical output
            for same-seed runs, so telemetry timestamps are exclusively
            the simulated clock values handed to ``capture()``.
OBS002      No direct ``registry.capture(...)`` calls outside the
            telemetry sampling actor (``telemetry/hub.py``) and the
            ``SamplingController`` layer — ad-hoc captures bypass the
            sampling policy and the observation-cost budget, desynchronise
            ring stamps, and break retention accounting.
SAN001      No mutable class-level or default-argument containers in
            ``cluster``/``platform``/``sim`` — shared mutable state leaks
            between instances and runs, exactly the aliasing the runtime
            sanitizer (SimSan) exists to catch.
SAN002      No direct float ``==``/``!=`` on resource quantities outside
            ``units.py`` — resource values come from arithmetic chains, so
            exact comparison is brittle; use ``repro.units.same_quantity``.
SAN003      No ``object.__setattr__`` on anything but ``self`` — mutating
            another module's frozen dataclass breaks the immutability its
            consumers (digests, ledgers, the sanitizer) rely on.
UNIT002     Unit-suffix dataflow: a ``_mbps``/``_mb``/``_cores``-suffixed
            name may not be assigned to, passed as, or combined with a
            differently-suffixed name — convert through ``repro.units``.
==========  ==============================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.devtools.violations import Violation

# ----------------------------------------------------------------------
# Path scoping
# ----------------------------------------------------------------------
#: Area labels a rule can opt into, derived from the repo-relative path.
AREA_SRC = "src"
AREA_TESTS = "tests"
AREA_BENCHMARKS = "benchmarks"
AREA_EXAMPLES = "examples"


def classify_path(logical_path: str) -> str | None:
    """Map a repo-relative posix path to its area label (``None`` = unknown)."""
    p = logical_path.replace("\\", "/").lstrip("./")
    if p.startswith("src/repro/") or p.startswith("repro/"):
        return AREA_SRC
    for area in (AREA_TESTS, AREA_BENCHMARKS, AREA_EXAMPLES):
        if p.startswith(area + "/"):
            return area
    return None


def repro_module_path(logical_path: str) -> str | None:
    """The path inside ``src/repro`` (e.g. ``sim/rng.py``), or ``None``."""
    p = logical_path.replace("\\", "/").lstrip("./")
    for prefix in ("src/repro/", "repro/"):
        if p.startswith(prefix):
            return p[len(prefix):]
    return None


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def _dotted_name(node: ast.expr) -> str | None:
    """Render a ``Name``/``Attribute`` chain as ``a.b.c`` (else ``None``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_aliases(tree: ast.AST) -> dict[str, str]:
    """Map local names to the canonical dotted thing they were imported as.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import perf_counter as pc`` -> ``{"pc": "time.perf_counter"}``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".")[0]
                canonical = item.name if item.asname else item.name.split(".")[0]
                aliases[local] = canonical
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


def _canonical_call_name(call: ast.Call, aliases: dict[str, str]) -> str | None:
    """Canonical dotted name of a call target, expanded through imports."""
    dotted = _dotted_name(call.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    expanded = aliases.get(head, head)
    return f"{expanded}.{rest}" if rest else expanded


# ----------------------------------------------------------------------
# Rule plumbing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Rule:
    """One named invariant check."""

    id: str
    summary: str
    applies: Callable[[str], bool]
    check: Callable[[ast.Module, dict[str, str], str], list[Violation]]

    def run(self, tree: ast.Module, logical_path: str) -> list[Violation]:
        """Run this rule over one parsed module (no-op outside its scope)."""
        if not self.applies(logical_path):
            return []
        return self.check(tree, _import_aliases(tree), logical_path)


def _violation(path: str, node: ast.AST, rule: str, message: str) -> Violation:
    return Violation(
        path=path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        rule=rule,
        message=message,
    )


# ----------------------------------------------------------------------
# DET001 — wall-clock reads
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


def _det001_applies(path: str) -> bool:
    return classify_path(path) in (AREA_SRC, AREA_EXAMPLES)


def _det001_check(tree: ast.Module, aliases: dict[str, str], path: str) -> list[Violation]:
    """DET001: simulated components must read ``SimClock.now``, never the host
    clock — wall-clock reads make runs unrepeatable and timing-dependent."""
    out: list[Violation] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _canonical_call_name(node, aliases)
            if name in WALL_CLOCK_CALLS:
                out.append(
                    _violation(
                        path,
                        node,
                        "DET001",
                        f"wall-clock call `{name}` in simulator code; "
                        "take time from the injected SimClock (`clock.now`)",
                    )
                )
    return out


# ----------------------------------------------------------------------
# DET002 — private randomness
# ----------------------------------------------------------------------
#: ``numpy.random`` members that are *not* entropy sources (safe to call).
_NUMPY_RANDOM_SAFE = frozenset({"SeedSequence"})


def _det002_applies(path: str) -> bool:
    module = repro_module_path(path)
    if module is not None:
        return module != "sim/rng.py"
    return classify_path(path) == AREA_EXAMPLES


def _det002_check(tree: ast.Module, aliases: dict[str, str], path: str) -> list[Violation]:
    """DET002: all randomness flows from one root seed via ``RngStreams``;
    constructing or seeding generators anywhere else forks the entropy
    universe and silently breaks run-for-run reproducibility."""
    out: list[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _canonical_call_name(node, aliases)
        if name is None:
            continue
        if name.startswith("random.") or name == "random":
            out.append(
                _violation(
                    path,
                    node,
                    "DET002",
                    f"stdlib `{name}` call bypasses the seeded RngStreams discipline; "
                    "accept an injected np.random.Generator instead",
                )
            )
        elif name.startswith("numpy.random."):
            member = name.split(".")[2]
            if member not in _NUMPY_RANDOM_SAFE:
                out.append(
                    _violation(
                        path,
                        node,
                        "DET002",
                        f"`{name}` creates randomness outside sim/rng.py; "
                        "accept an injected np.random.Generator or draw from a named "
                        "RngStreams stream",
                    )
                )
    return out


# ----------------------------------------------------------------------
# DET003 — iteration over bare sets
# ----------------------------------------------------------------------
#: Builtins that consume an iterable order-insensitively (safe wrappers).
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "len", "min", "max", "sum", "any", "all", "set", "frozenset"}
)

#: Builtins that materialise iteration order from their argument.
_ORDER_MATERIALISING = frozenset({"list", "tuple", "iter", "enumerate"})


def _is_set_expr(node: ast.expr, set_names: frozenset[str]) -> bool:
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
            return _is_set_expr(node.func.value, set_names)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_set_expr(node.left, set_names) or _is_set_expr(node.right, set_names)
    return False


def _local_set_names(scope: ast.AST) -> frozenset[str]:
    """Names in ``scope`` whose every simple assignment is a set expression."""
    assigned: dict[str, bool] = {}
    for node in ast.walk(scope):
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                is_set = _is_set_expr(value, frozenset(assigned))
                assigned[target.id] = assigned.get(target.id, True) and is_set
    return frozenset(name for name, ok in assigned.items() if ok)


def _det003_applies(path: str) -> bool:
    return classify_path(path) == AREA_SRC


def _det003_check(tree: ast.Module, aliases: dict[str, str], path: str) -> list[Violation]:
    """DET003: Python ``set`` iteration order depends on insertion history and
    hash seeding, so any set-ordered loop that feeds simulator state makes
    runs environment-dependent; iterate ``sorted(...)`` instead."""
    out: list[Violation] = []
    _ = aliases

    def scan(scope: ast.AST) -> None:
        set_names = _local_set_names(scope)

        def flag(iterable: ast.expr, context: str) -> None:
            if _is_set_expr(iterable, set_names):
                out.append(
                    _violation(
                        path,
                        iterable,
                        "DET003",
                        f"iteration over a bare set ({context}) has nondeterministic "
                        "order; wrap it in sorted(...) or use an ordered container",
                    )
                )

        for node in ast.walk(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                flag(node.iter, "for-loop")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)):
                for gen in node.generators:
                    # A set comprehension's own output is a set (unordered),
                    # so draining a set into it is fine; list/dict/generator
                    # outputs materialise the order.
                    if not isinstance(node, ast.SetComp):
                        flag(gen.iter, "comprehension")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in _ORDER_MATERIALISING and node.args:
                    flag(node.args[0], f"{node.func.id}(...)")

    scan(tree)
    return out


# ----------------------------------------------------------------------
# UNIT001 — raw unit-conversion magic numbers
# ----------------------------------------------------------------------
#: Literals that are really unit-conversion factors in disguise.
_UNIT_MAGIC: dict[float, str] = {
    1024: "repro.units.SHARES_PER_CORE (or a MiB/KiB helper)",
    1024.0: "repro.units.SHARES_PER_CORE (or a MiB/KiB helper)",
    1024 * 1024: "repro.units.MIB",
    float(1024 * 1024): "repro.units.MIB",
    1000 * 1000: "repro.units.MBIT",
    float(1000 * 1000): "repro.units.MBIT",
    1024 * 1024 * 1024: "a GiB constant derived from repro.units.MIB",
    float(1024 * 1024 * 1024): "a GiB constant derived from repro.units.MIB",
}


def _unit001_applies(path: str) -> bool:
    module = repro_module_path(path)
    return module is not None and (module.startswith("cluster/") or module.startswith("netsim/"))


def _unit001_check(tree: ast.Module, aliases: dict[str, str], path: str) -> list[Violation]:
    """UNIT001: bandwidth/memory conversion factors written as raw literals
    (1024, 1024², 10⁶ …) reintroduce the MiB-vs-MB and bit-vs-byte drift that
    ``repro.units`` exists to prevent; import the named constant instead."""
    out: list[Violation] = []
    _ = aliases
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            hint = _UNIT_MAGIC.get(node.value)
            if hint is not None:
                out.append(
                    _violation(
                        path,
                        node,
                        "UNIT001",
                        f"raw unit-conversion literal {node.value!r}; use {hint}",
                    )
                )
    return out


# ----------------------------------------------------------------------
# API001 — complete annotations on the public surface
# ----------------------------------------------------------------------
def _api001_applies(path: str) -> bool:
    return classify_path(path) == AREA_SRC


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


def _api001_check(tree: ast.Module, aliases: dict[str, str], path: str) -> list[Violation]:
    """API001: the public surface of ``src/repro`` is the contract that
    ``mypy`` strict-mode verifies; an unannotated public def punches an
    unchecked hole through every caller."""
    out: list[Violation] = []
    _ = aliases
    for fn, is_method in _iter_public_functions(tree):
        missing = _missing_annotations(fn, is_method)
        if missing:
            out.append(
                _violation(
                    path,
                    fn,
                    "API001",
                    f"public {'method' if is_method else 'function'} `{fn.name}` "
                    f"is missing annotations: {', '.join(missing)}",
                )
            )
    return out


# ----------------------------------------------------------------------
# OBS001 — no wall-clock modules inside the telemetry package
# ----------------------------------------------------------------------
#: Modules whose very import signals wall-clock intent in telemetry code.
_OBS_FORBIDDEN_MODULES = frozenset({"time", "datetime"})


def _obs001_applies(path: str) -> bool:
    module = repro_module_path(path)
    return module is not None and module.startswith("telemetry/")


def _obs001_check(tree: ast.Module, aliases: dict[str, str], path: str) -> list[Violation]:
    """OBS001: the telemetry package's exporters promise byte-identical
    output for same-seed runs, so its only notion of time is the simulated
    ``now`` handed to ``capture()``.  Stronger than DET001: even *importing*
    ``time``/``datetime`` is flagged, before any call site exists."""
    out: list[Violation] = []
    _ = aliases
    for node in ast.walk(tree):
        offending: str | None = None
        if isinstance(node, ast.Import):
            for item in node.names:
                root = item.name.split(".")[0]
                if root in _OBS_FORBIDDEN_MODULES:
                    offending = item.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] in _OBS_FORBIDDEN_MODULES:
                offending = node.module
        if offending is not None:
            out.append(
                _violation(
                    path,
                    node,
                    "OBS001",
                    f"`{offending}` imported inside src/repro/telemetry; telemetry "
                    "is sim-time only — take timestamps from the `now` passed to "
                    "capture()/snapshot functions",
                )
            )
    return out


# ----------------------------------------------------------------------
# OBS002 — registry.capture() only from the sampling layer
# ----------------------------------------------------------------------
#: Modules allowed to stamp retention rings directly: the telemetry
#: sampling actor and the sampling-controller layer it drives.
_OBS002_ALLOWED_MODULES = frozenset({"telemetry/hub.py", "telemetry/sampling.py"})


def _obs002_applies(path: str) -> bool:
    module = repro_module_path(path)
    return (
        module is not None
        and classify_path(path) == AREA_SRC
        and module not in _OBS002_ALLOWED_MODULES
    )


def _obs002_check(tree: ast.Module, aliases: dict[str, str], path: str) -> list[Violation]:
    """OBS002: ``capture()`` is the retention heartbeat — one stamp per
    sampling pass, after the sampling controller has charged the pass to
    the observation-cost budget.  A capture issued anywhere else records
    series the policy decided to skip, double-stamps ring timestamps, and
    evades the cost model, so only the sampling layer may call it.  A
    deliberate exception (e.g. a bench priming a synthetic registry)
    carries a ``# lint: disable=OBS002(reason)`` suppression."""
    _ = aliases
    out: list[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "capture"):
            continue
        receiver = _dotted_name(func.value)
        if receiver is None or "registry" not in receiver.lower():
            continue
        out.append(
            _violation(
                path,
                node,
                "OBS002",
                f"`{receiver}.capture(...)` outside the telemetry sampling "
                "layer; route captures through RunTelemetry.sample()/the "
                "SamplingController so the sampling policy and cost budget "
                "stay authoritative",
            )
        )
    return out


# ----------------------------------------------------------------------
# SAN001 — mutable class-level / default-argument containers
# ----------------------------------------------------------------------
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


def _is_mutable_container_expr(node: ast.expr, aliases: dict[str, str]) -> bool:
    """Statically certain that ``node`` builds a mutable container."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _canonical_call_name(node, aliases)
        return name in _MUTABLE_FACTORIES
    return False


def _san001_applies(path: str) -> bool:
    module = repro_module_path(path)
    return module is not None and module.startswith(("cluster/", "platform/", "sim/"))


def _san001_check(tree: ast.Module, aliases: dict[str, str], path: str) -> list[Violation]:
    """SAN001: a mutable container in a class body is shared by every
    instance, and one in a default argument is shared by every call — both
    alias state across containers/nodes/runs, which is precisely the
    cross-actor write sharing the runtime sanitizer treats as a race."""
    out: list[Violation] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                value: ast.expr | None = None
                if isinstance(stmt, ast.Assign):
                    value = stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    value = stmt.value
                if value is not None and _is_mutable_container_expr(value, aliases):
                    out.append(
                        _violation(
                            path,
                            stmt,
                            "SAN001",
                            f"mutable class-level container in {node.name}: shared by "
                            "every instance; initialise it in __init__ (or use "
                            "dataclasses.field(default_factory=...))",
                        )
                    )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults: list[ast.expr] = list(node.args.defaults)
            defaults += [d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if _is_mutable_container_expr(default, aliases):
                    out.append(
                        _violation(
                            path,
                            default,
                            "SAN001",
                            f"mutable default argument in {node.name}(): shared across "
                            "calls; default to None and build the container inside",
                        )
                    )
    return out


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


def _terminal_name(node: ast.expr) -> str | None:
    """The final identifier of a ``Name``/``Attribute`` chain."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_resource_name(node: ast.expr) -> bool:
    name = _terminal_name(node)
    if name is None:
        return False
    lowered = name.lower()
    return (
        lowered in _RESOURCE_EXACT
        or lowered.startswith(_RESOURCE_PREFIXES)
        or lowered.endswith(_RESOURCE_SUFFIXES)
    )


def _san002_applies(path: str) -> bool:
    module = repro_module_path(path)
    return module is not None and module != "units.py"


def _san002_check(tree: ast.Module, aliases: dict[str, str], path: str) -> list[Violation]:
    """SAN002: resource quantities (cores, MiB, Mbit/s) are floats produced
    by scaling/clamping arithmetic, so exact ``==``/``!=`` silently turns
    into "almost never equal"; compare via ``repro.units.same_quantity``
    (tolerance comparisons live in one audited place)."""
    out: list[Violation] = []
    _ = aliases
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            if _is_resource_name(left) or _is_resource_name(right):
                shown = _terminal_name(left) if _is_resource_name(left) else _terminal_name(right)
                out.append(
                    _violation(
                        path,
                        node,
                        "SAN002",
                        f"float equality on resource quantity `{shown}`; use "
                        "repro.units.same_quantity(a, b) (tolerance comparison)",
                    )
                )
    return out


# ----------------------------------------------------------------------
# SAN003 — frozen-dataclass mutation outside the defining module
# ----------------------------------------------------------------------
def _san003_applies(path: str) -> bool:
    return classify_path(path) == AREA_SRC


def _san003_check(tree: ast.Module, aliases: dict[str, str], path: str) -> list[Violation]:
    """SAN003: ``object.__setattr__`` is the only way to mutate a frozen
    dataclass, and the only legitimate caller is the defining class's own
    ``__post_init__`` (receiver ``self``).  Any other receiver is a foreign
    module breaking an immutability contract — views, violation records,
    and spans are hashed/compared on the assumption they never change."""
    out: list[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _canonical_call_name(node, aliases) != "object.__setattr__":
            continue
        receiver = node.args[0] if node.args else None
        if not (isinstance(receiver, ast.Name) and receiver.id == "self"):
            out.append(
                _violation(
                    path,
                    node,
                    "SAN003",
                    "object.__setattr__ on a foreign frozen instance; frozen "
                    "dataclasses may only self-mutate in their own __post_init__ "
                    "— build a new instance (dataclasses.replace) instead",
                )
            )
    return out


# ----------------------------------------------------------------------
# UNIT002 — unit-suffix dataflow
# ----------------------------------------------------------------------
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


def _unit_class_of_name(name: str) -> str | None:
    """Unit class encoded in a name's trailing suffix, or ``None``."""
    for segment in reversed(name.lower().split("_")):
        if segment in _UNIT_NEUTRAL_SEGMENTS:
            continue
        return _UNIT_SUFFIX_CLASSES.get(segment)
    return None


def _unit_class_of_expr(node: ast.expr) -> str | None:
    name = _terminal_name(node)
    return None if name is None else _unit_class_of_name(name)


def _local_function_params(tree: ast.Module) -> dict[str, list[str]]:
    """Function/method name -> positional parameter names (sans self/cls)."""
    params: dict[str, list[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [a.arg for a in (*node.args.posonlyargs, *node.args.args)]
            if names and names[0] in ("self", "cls"):
                names = names[1:]
            # First definition wins; overload collisions are rare and the
            # check is advisory about names, not signatures.
            params.setdefault(node.name, names)
    return params


def _unit002_applies(path: str) -> bool:
    module = repro_module_path(path)
    return module is not None and module != "units.py"


def _unit002_check(tree: ast.Module, aliases: dict[str, str], path: str) -> list[Violation]:
    """UNIT002: a unit suffix is a type the type checker cannot see — a
    ``_mbps`` value flowing into a ``_mb`` slot is the MB-vs-Mbit bug class
    the paper's bandwidth model cannot tolerate.  Mixed-suffix assignment,
    argument passing, and +/-// arithmetic must route through a
    ``repro.units`` converter."""
    out: list[Violation] = []
    _ = aliases
    local_params = _local_function_params(tree)

    def mismatch(a: str | None, b: str | None) -> bool:
        return a is not None and b is not None and a != b

    def flag(node: ast.AST, source: str, source_class: str, dest: str, dest_class: str) -> None:
        out.append(
            _violation(
                path,
                node,
                "UNIT002",
                f"unit-suffix mismatch: `{source}` carries {source_class} but flows "
                f"into `{dest}` ({dest_class}); convert via repro.units",
            )
        )

    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            if value is None:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value_class = _unit_class_of_expr(value)
            for target in targets:
                target_class = _unit_class_of_expr(target)
                if mismatch(value_class, target_class):
                    flag(
                        node,
                        str(_terminal_name(value)),
                        str(value_class),
                        str(_terminal_name(target)),
                        str(target_class),
                    )
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg is None:
                    continue
                param_class = _unit_class_of_name(keyword.arg)
                arg_class = _unit_class_of_expr(keyword.value)
                if mismatch(arg_class, param_class):
                    flag(
                        keyword.value,
                        str(_terminal_name(keyword.value)),
                        str(arg_class),
                        keyword.arg,
                        str(param_class),
                    )
            callee = _terminal_name(node.func)
            param_names = local_params.get(callee or "")
            if param_names:
                for position, arg in enumerate(node.args):
                    if position >= len(param_names) or isinstance(arg, ast.Starred):
                        break
                    param_class = _unit_class_of_name(param_names[position])
                    arg_class = _unit_class_of_expr(arg)
                    if mismatch(arg_class, param_class):
                        flag(
                            arg,
                            str(_terminal_name(arg)),
                            str(arg_class),
                            f"{callee}(... {param_names[position]} ...)",
                            str(param_class),
                        )
        elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Div)):
            left_class = _unit_class_of_expr(node.left)
            right_class = _unit_class_of_expr(node.right)
            if mismatch(left_class, right_class):
                flag(
                    node,
                    str(_terminal_name(node.left)),
                    str(left_class),
                    str(_terminal_name(node.right)),
                    str(right_class),
                )
    return out


# ----------------------------------------------------------------------
# Catalogue
# ----------------------------------------------------------------------
#: Version of the combined rule catalogue (per-file + flow families).
#: Bumped whenever a rule is added, removed, or changes meaning, so CI
#: consumers of the JSON reports can detect incompatible rule sets.
#: "5": DetFlow — determinism-taint rules DET101–104 and registry-contract
#: rules CON001–003 over the flow graph.
#: "6": application-graph registries — call-site contract rule CON004 over
#: the workload/app/routing registration tables.
#: "7": the import rule guarding the removed one-shot runner shim is gone.
CATALOGUE_VERSION = "7"

ALL_RULES: tuple[Rule, ...] = (
    Rule("DET001", "no wall-clock reads in simulator code", _det001_applies, _det001_check),
    Rule("DET002", "no private randomness outside sim/rng.py", _det002_applies, _det002_check),
    Rule("DET003", "no iteration over bare sets", _det003_applies, _det003_check),
    Rule("UNIT001", "no raw unit-conversion literals in cluster/netsim", _unit001_applies, _unit001_check),
    Rule("API001", "public src/repro defs carry complete annotations", _api001_applies, _api001_check),
    Rule("OBS001", "no time/datetime imports inside src/repro/telemetry", _obs001_applies, _obs001_check),
    Rule("OBS002", "registry.capture() only from the telemetry sampling layer", _obs002_applies, _obs002_check),
    Rule("SAN001", "no mutable class-level/default-arg containers in cluster/platform/sim", _san001_applies, _san001_check),
    Rule("SAN002", "no float ==/!= on resource quantities outside units.py", _san002_applies, _san002_check),
    Rule("SAN003", "object.__setattr__ only on self (frozen-dataclass discipline)", _san003_applies, _san003_check),
    Rule("UNIT002", "no mixed unit-suffix dataflow without a units converter", _unit002_applies, _unit002_check),
)


def rule_catalog() -> dict[str, str]:
    """Rule ID -> one-line summary (the ``--list-rules`` payload)."""
    return {rule.id: rule.summary for rule in ALL_RULES}
