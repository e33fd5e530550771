"""Registry-contract checking for pluggable implementations.

Autoscaling policies (extensible through
:func:`repro.core.registry.register_policy`) and the sampling controllers
(the ``SamplingController`` subclasses in :mod:`repro.telemetry.sampling`)
are the pluggable implementations the engine calls through a protocol.
A policy that forgets ``decide``, a sampling controller holding
module-level mutable state, or an autoscaler drawing from the ambient RNG
will pass import time and only fail (or worse, silently diverge) mid-run.
This pass verifies the contracts statically, over the call graph the pass
already built:

* **CON001** — the implementation does not conform to the protocol: it
  misses a required method, leaves an abstract method unimplemented, or
  overrides a protocol method with fewer positional parameters than the
  definition it replaces (callers pass the protocol arity);
* **CON002** — the module defining a registered implementation holds
  module-level mutable state, which is per-process under the sweep pool
  and per-import under test isolation;
* **CON003** — an implementation draws from the ambient RNG without a
  constructor-injectable generator (``rng`` / ``streams`` / ``seed``
  parameter), so same-seed runs cannot reproduce its decisions.

Implementations are discovered two ways: every concrete subclass of a
protocol base class (the built-in registries are populated from literal
tables of such classes), and, for a protocol with a registration
function, every call site of it whose factory argument resolves to a
class — including classes that do *not* subclass the base, which is
itself a CON001.  The other name tables (workloads, apps, routing,
profiles) need no static check: ``NameRegistry.register`` rejects a
malformed registration when the module defining it is imported.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass

from repro.devtools.flow.callgraph import CallGraph, ClassInfo, FunctionInfo
from repro.devtools.flow.taint import KIND_AMBIENT_RNG, TaintAnalysis
from repro.devtools.source import Violation, terminal_name

#: Constructor parameter names that count as an injected entropy source.
RNG_PARAM_NAMES = frozenset({"rng", "rng_streams", "streams", "generator", "seed", "rng_seed"})

#: Module-level names exempt from CON002 (interpreter/protocol plumbing,
#: not state): dunders like ``__all__`` are read-only conventions.
_CON002_EXEMPT_PREFIX = "__"


@dataclass(frozen=True)
class ProtocolSpec:
    """One registry's contract."""

    registry: str  # short label used in messages ("policy", ...)
    register_call: str | None  # bare name of the registration function, if any
    base: str  # qualname of the protocol base class
    required: tuple[str, ...]  # methods that must resolve through the MRO


PROTOCOLS: tuple[ProtocolSpec, ...] = (
    ProtocolSpec(
        registry="policy",
        register_call="register_policy",
        base="repro.core.policy.AutoscalingPolicy",
        required=("decide",),
    ),
    ProtocolSpec(
        registry="sampling",
        register_call=None,
        base="repro.telemetry.sampling.SamplingController",
        required=(
            "bind",
            "begin_sample",
            "node_due",
            "observe_node",
            "skip_node",
            "finish_sample",
        ),
    ),
)


@dataclass(frozen=True)
class Contracts:
    """The contract findings and the implementation census, from one discovery."""

    findings: tuple[Violation, ...]
    #: Registry label -> number of discovered implementations.
    census: dict[str, int]


# ----------------------------------------------------------------------
# Class-hierarchy plumbing
# ----------------------------------------------------------------------
def _class_by_simple_name(graph: CallGraph) -> dict[str, tuple[str, ...]]:
    by_name: dict[str, list[str]] = {}
    for qualname, cls in graph.classes.items():
        by_name.setdefault(cls.name, []).append(qualname)
    return {name: tuple(sorted(quals)) for name, quals in by_name.items()}


def _resolve_base(
    graph: CallGraph, cls: ClassInfo, base_name: str, by_simple: dict[str, tuple[str, ...]]
) -> str | None:
    """Resolve one (possibly dotted) base-class name to a known qualname."""
    module = graph.modules.get(cls.module)
    aliases = module.aliases if module is not None else {}
    if "." in base_name:
        head, _, rest = base_name.partition(".")
        expanded = aliases.get(head, head)
        candidate = f"{expanded}.{rest}"
        if candidate in graph.classes:
            return candidate
    else:
        aliased = aliases.get(base_name)
        if aliased in graph.classes:
            return aliased
        same_module = f"{cls.module}.{base_name}"
        if same_module in graph.classes:
            return same_module
    candidates = by_simple.get(base_name.rsplit(".", 1)[-1], ())
    return candidates[0] if len(candidates) == 1 else None


def _ancestors(
    graph: CallGraph, qualname: str, by_simple: dict[str, tuple[str, ...]]
) -> tuple[str, ...]:
    """Known ancestor class qualnames, nearest first (BFS, self excluded)."""
    out: list[str] = []
    seen = {qualname}
    queue: deque[str] = deque([qualname])
    while queue:
        current = graph.classes.get(queue.popleft())
        if current is None:
            continue
        for base_name in current.bases:
            resolved = _resolve_base(graph, current, base_name, by_simple)
            if resolved is not None and resolved not in seen:
                seen.add(resolved)
                out.append(resolved)
                queue.append(resolved)
    return tuple(out)


def _is_abstractmethod(fn: FunctionInfo) -> bool:
    return any(
        terminal_name(dec) == "abstractmethod" for dec in fn.node.decorator_list
    )


def _is_abstract_class(graph: CallGraph, cls: ClassInfo) -> bool:
    """Abstract bases and protocol shells are not implementations."""
    if any(_is_abstractmethod(fn) for fn in cls.methods.values()):
        return True
    return any(
        base.rsplit(".", 1)[-1] in ("ABC", "ABCMeta", "Protocol") for base in cls.bases
    )


def _resolve_method(
    graph: CallGraph,
    cls: ClassInfo,
    name: str,
    by_simple: dict[str, tuple[str, ...]],
) -> FunctionInfo | None:
    """MRO-ish lookup: own methods first, then ancestors nearest-first."""
    if name in cls.methods:
        return cls.methods[name]
    for ancestor in _ancestors(graph, cls.qualname, by_simple):
        info = graph.classes.get(ancestor)
        if info is not None and name in info.methods:
            return info.methods[name]
    return None


def _positional_arity(fn: FunctionInfo) -> int:
    """Positional parameters excluding the receiver."""
    params = fn.params
    if params and params[0] in ("self", "cls"):
        params = params[1:]
    return len(params)


# ----------------------------------------------------------------------
# Discovery
# ----------------------------------------------------------------------
def _registered_class_from_arg(
    graph: CallGraph,
    module: str,
    arg: ast.expr,
    by_simple: dict[str, tuple[str, ...]],
) -> str | None:
    """The class a ``register_*`` factory argument resolves to, if any."""

    def name_to_class(name: str | None) -> str | None:
        if name is None:
            return None
        info = graph.modules.get(module)
        aliases = info.aliases if info is not None else {}
        aliased = aliases.get(name)
        if aliased in graph.classes:
            return aliased
        same_module = f"{module}.{name}"
        if same_module in graph.classes:
            return same_module
        candidates = by_simple.get(name.rsplit(".", 1)[-1], ())
        return candidates[0] if len(candidates) == 1 else None

    if isinstance(arg, (ast.Name, ast.Attribute)):
        return name_to_class(terminal_name(arg))
    if isinstance(arg, ast.Lambda):
        for node in ast.walk(arg.body):
            if isinstance(node, ast.Call):
                resolved = name_to_class(terminal_name(node.func))
                if resolved is not None:
                    return resolved
        return None
    if isinstance(arg, ast.Call):
        # A factory-of-factories: ``_interval_factory(KubernetesHpa)``.
        for inner in (*arg.args, *[kw.value for kw in arg.keywords]):
            if isinstance(inner, (ast.Name, ast.Attribute)):
                resolved = name_to_class(terminal_name(inner))
                if resolved is not None:
                    return resolved
    return None


def _discover(
    graph: CallGraph, spec: ProtocolSpec, by_simple: dict[str, tuple[str, ...]]
) -> tuple[dict[str, int], list[str]]:
    """(implementations -> discovery line, registered-but-not-subclassing).

    Implementations are concrete classes whose ancestry includes the
    protocol base, plus anything a call to the protocol's registration
    function (if it has one) resolves to;
    the second list holds registered classes outside the hierarchy.
    """
    implementations: dict[str, int] = {}
    strangers: list[str] = []
    for qualname in sorted(graph.classes):
        cls = graph.classes[qualname]
        if qualname == spec.base or _is_abstract_class(graph, cls):
            continue
        if spec.base in _ancestors(graph, qualname, by_simple):
            implementations[qualname] = cls.lineno

    registering = sorted(graph.modules) if spec.register_call is not None else []
    for module_name in registering:
        info = graph.modules[module_name]
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            if terminal_name(node.func) != spec.register_call:
                continue
            factory_arg: ast.expr | None = None
            if len(node.args) >= 2:
                factory_arg = node.args[1]
            else:
                for kw in node.keywords:
                    if kw.arg in ("factory", "cluster_cls"):
                        factory_arg = kw.value
            if factory_arg is None:
                continue
            registered = _registered_class_from_arg(
                graph, module_name, factory_arg, by_simple
            )
            if registered is None or registered == spec.base:
                continue
            cls = graph.classes.get(registered)
            if cls is None:
                continue
            if registered not in implementations:
                if _is_abstract_class(graph, cls):
                    continue
                implementations[registered] = cls.lineno
                if spec.base not in _ancestors(graph, registered, by_simple):
                    strangers.append(registered)
    return implementations, strangers


# ----------------------------------------------------------------------
# The checks
# ----------------------------------------------------------------------
def _finding(cls: ClassInfo, rule: str, line: int, message: str, col: int = 1) -> Violation:
    return Violation(cls.path, line, col, rule, message, function=cls.qualname)


def _check_con001(
    graph: CallGraph,
    spec: ProtocolSpec,
    cls: ClassInfo,
    stranger: bool,
    by_simple: dict[str, tuple[str, ...]],
) -> list[Violation]:
    out: list[Violation] = []
    if stranger:
        out.append(
            _finding(
                cls, "CON001", cls.lineno,
                f"`{cls.name}` is registered as a {spec.registry} but does "
                f"not subclass `{spec.base}`",
            )
        )

    ancestors = _ancestors(graph, cls.qualname, by_simple)
    for name in spec.required:
        resolved = _resolve_method(graph, cls, name, by_simple)
        if resolved is None:
            out.append(
                _finding(
                    cls, "CON001", cls.lineno,
                    f"{spec.registry} `{cls.name}` is missing required "
                    f"method `{name}` (protocol `{spec.base}`)",
                )
            )
        elif _is_abstractmethod(resolved):
            out.append(
                _finding(
                    cls, "CON001", cls.lineno,
                    f"{spec.registry} `{cls.name}` never implements abstract "
                    f"method `{name}` declared by `{resolved.qualname}`",
                )
            )

    # Abstract methods anywhere in the chain must resolve to concrete defs.
    declared: set[str] = set()
    for ancestor in ancestors:
        info = graph.classes.get(ancestor)
        if info is None:
            continue
        for name, fn in info.methods.items():
            if _is_abstractmethod(fn) and name not in declared:
                declared.add(name)
                resolved = _resolve_method(graph, cls, name, by_simple)
                if (
                    resolved is not None
                    and _is_abstractmethod(resolved)
                    and name not in spec.required  # already reported above
                ):
                    out.append(
                        _finding(
                            cls, "CON001", cls.lineno,
                            f"{spec.registry} `{cls.name}` never implements "
                            f"abstract method `{name}` declared by "
                            f"`{resolved.qualname}`",
                        )
                    )

    # Overrides must accept at least the protocol arity.
    for name in spec.required:
        own = cls.methods.get(name)
        if own is None:
            continue
        for ancestor in ancestors:
            info = graph.classes.get(ancestor)
            if info is None or name not in info.methods:
                continue
            base_def = info.methods[name]
            if _positional_arity(own) < _positional_arity(base_def):
                out.append(
                    _finding(
                        cls, "CON001", own.lineno,
                        f"`{cls.name}.{name}` takes {_positional_arity(own)} "
                        f"positional parameter(s) but the protocol definition "
                        f"`{base_def.qualname}` takes {_positional_arity(base_def)}; "
                        "callers pass the protocol arity",
                    )
                )
            break  # nearest definition wins
    return out


def _check_con002(graph: CallGraph, spec: ProtocolSpec, cls: ClassInfo) -> list[Violation]:
    module = graph.modules.get(cls.module)
    if module is None:
        return []
    return [
        _finding(
            cls, "CON002", line,
            f"module-level mutable `{name}` in the module defining "
            f"{spec.registry} `{cls.name}`; registered implementations "
            "must keep state on the instance (module state is "
            "per-process under the sweep pool)",
        )
        for name, line in module.module_mutables
        if not name.startswith(_CON002_EXEMPT_PREFIX)
    ]


def _check_con003(
    graph: CallGraph,
    spec: ProtocolSpec,
    cls: ClassInfo,
    by_simple: dict[str, tuple[str, ...]],
    taint: TaintAnalysis,
) -> list[Violation]:
    ctor = _resolve_method(graph, cls, "__init__", by_simple)
    if ctor is not None and any(p in RNG_PARAM_NAMES for p in ctor.params):
        return []
    return [
        _finding(
            cls, "CON003", source.line,
            f"{spec.registry} `{cls.name}.{name}` draws from the "
            f"ambient RNG ({source.detail}) with no "
            "constructor-injectable generator "
            f"({'/'.join(sorted(RNG_PARAM_NAMES))}); same-seed "
            "runs cannot reproduce its decisions",
            col=source.col,
        )
        for name in sorted(cls.methods)
        for source in taint.facts[cls.methods[name].qualname].sources
        if source.kind == KIND_AMBIENT_RNG
    ]


def check_contracts(graph: CallGraph, taint: TaintAnalysis) -> Contracts:
    """Run CON001–003 over every discovered registry implementation and
    count the implementations per registry, from one discovery each."""
    by_simple = _class_by_simple_name(graph)
    findings: set[Violation] = set()
    census: dict[str, int] = {}
    for spec in PROTOCOLS:
        if spec.base not in graph.classes:
            continue  # protocol not in the analyzed tree (partial fixture)
        implementations, strangers = _discover(graph, spec, by_simple)
        census[spec.registry] = len(implementations)
        for qualname in sorted(implementations):
            cls = graph.classes[qualname]
            findings.update(_check_con001(graph, spec, cls, qualname in strangers, by_simple))
            findings.update(_check_con002(graph, spec, cls))
            findings.update(_check_con003(graph, spec, cls, by_simple, taint))
    return Contracts(findings=tuple(sorted(findings)), census=dict(sorted(census.items())))
