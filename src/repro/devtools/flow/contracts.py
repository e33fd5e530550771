"""Registry-contract checking for pluggable implementations.

The two extension registries — :func:`repro.core.registry.register_policy`
and :func:`repro.telemetry.sampling.register_sampling_policy` — are where
contributor code enters the engine.  A policy that forgets ``decide``, a
sampling controller holding module-level mutable state, or an autoscaler
drawing from the ambient RNG will pass import time and only fail (or
worse, silently diverge) mid-run.  This pass verifies the contracts
statically, over the same call graph FlowLint already built:

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
tables of such classes), and every ``register_*`` call site whose
factory argument resolves to a class — including classes that do *not*
subclass the base, which is itself a CON001.

The application-graph registries — :func:`repro.workloads.registry.
register_workload` / ``register_app`` and :func:`repro.platform.routing.
register_routing` — register *factories and enum members*, not protocol
classes, so the class checks above do not apply.  Their contract is
checked at the registration call site instead:

* **CON004** — a registration call site is malformed: the name argument
  is a literal that is empty or not a string, the registered value is a
  bare literal where a callable / ``RoutingPolicy`` member is required,
  or the same literal name is registered twice in the tree without
  ``replace=True`` (an import-time crash, caught statically).
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass

from repro.devtools.flow.callgraph import CallGraph, ClassInfo, FunctionInfo
from repro.devtools.flow.taint import KIND_AMBIENT_RNG, taint_facts_of
from repro.devtools.rules import _terminal_name

#: Constructor parameter names that count as an injected entropy source.
RNG_PARAM_NAMES = frozenset({"rng", "rng_streams", "streams", "generator", "seed", "rng_seed"})

#: Module-level names exempt from CON002 (interpreter/protocol plumbing,
#: not state): dunders like ``__all__`` are read-only conventions.
_CON002_EXEMPT_PREFIX = "__"


@dataclass(frozen=True)
class ProtocolSpec:
    """One registry's contract."""

    registry: str  # short label used in messages ("policy", ...)
    register_call: str  # bare name of the registration function
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
        register_call="register_sampling_policy",
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
class CallSiteSpec:
    """One call-site registry's contract (name -> value tables).

    Unlike :class:`ProtocolSpec` registries these hold factories or enum
    members, so conformance is judged where ``register_*`` is called, not
    on a class hierarchy.  ``module`` names the module that defines the
    registration function: when it is absent from the analyzed tree the
    registry does not exist there and the checks (and census) skip it,
    mirroring the ``spec.base not in graph.classes`` gate above.
    """

    registry: str  # short label used in messages ("workload", ...)
    register_call: str  # bare name of the registration function
    module: str  # module defining the registration function
    value_keyword: str  # keyword spelling of the registered value
    value_contract: str  # human phrasing of what the value must be


CALLSITE_REGISTRIES: tuple[CallSiteSpec, ...] = (
    CallSiteSpec(
        registry="workload",
        register_call="register_workload",
        module="repro.workloads.registry",
        value_keyword="factory",
        value_contract="an experiment factory (callable)",
    ),
    CallSiteSpec(
        registry="app",
        register_call="register_app",
        module="repro.workloads.registry",
        value_keyword="factory",
        value_contract="an application factory (callable)",
    ),
    CallSiteSpec(
        registry="routing",
        register_call="register_routing",
        module="repro.platform.routing",
        value_keyword="policy",
        value_contract="a RoutingPolicy member",
    ),
)


@dataclass(frozen=True, order=True)
class ContractFinding:
    """One contract violation, attributable to an implementation class."""

    path: str
    line: int
    col: int
    rule: str
    cls: str  # implementation class qualname (the baseline key)
    message: str


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
        _terminal_name(dec) == "abstractmethod" for dec in fn.node.decorator_list
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
        return name_to_class(_terminal_name(arg))
    if isinstance(arg, ast.Lambda):
        for node in ast.walk(arg.body):
            if isinstance(node, ast.Call):
                resolved = name_to_class(_terminal_name(node.func))
                if resolved is not None:
                    return resolved
        return None
    if isinstance(arg, ast.Call):
        # A factory-of-factories: ``_interval_factory(KubernetesHpa)``.
        for inner in (*arg.args, *[kw.value for kw in arg.keywords]):
            if isinstance(inner, (ast.Name, ast.Attribute)):
                resolved = name_to_class(_terminal_name(inner))
                if resolved is not None:
                    return resolved
    return None


def _discover(
    graph: CallGraph, spec: ProtocolSpec, by_simple: dict[str, tuple[str, ...]]
) -> tuple[dict[str, int], list[str]]:
    """(implementations -> discovery line, registered-but-not-subclassing).

    Implementations are concrete classes whose ancestry includes the
    protocol base, plus anything a ``register_*`` call site resolves to;
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

    for module_name in sorted(graph.modules):
        info = graph.modules[module_name]
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            if _terminal_name(node.func) != spec.register_call:
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


def _callsite_args(
    node: ast.Call, spec: CallSiteSpec
) -> tuple[ast.expr | None, ast.expr | None, bool]:
    """(name argument, value argument, replace=True present) of one call."""
    name_arg: ast.expr | None = node.args[0] if node.args else None
    value_arg: ast.expr | None = node.args[1] if len(node.args) >= 2 else None
    replace = False
    for kw in node.keywords:
        if kw.arg == "name":
            name_arg = kw.value
        elif kw.arg == spec.value_keyword:
            value_arg = kw.value
        elif kw.arg == "replace":
            replace = isinstance(kw.value, ast.Constant) and kw.value.value is True
    return name_arg, value_arg, replace


def _check_callsites(
    graph: CallGraph, spec: CallSiteSpec
) -> tuple[dict[str, int], list[ContractFinding]]:
    """(literal name -> first registration line, CON004 findings).

    Only literal arguments are judged — a computed name or factory is a
    legitimate dynamic registration this pass cannot see through.
    """
    registered: dict[str, int] = {}
    out: list[ContractFinding] = []
    for module_name in sorted(graph.modules):
        info = graph.modules[module_name]
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            if _terminal_name(node.func) != spec.register_call:
                continue
            name_arg, value_arg, replace = _callsite_args(node, spec)

            def finding(message: str) -> ContractFinding:
                label = "<dynamic>"
                if isinstance(name_arg, ast.Constant):
                    label = repr(name_arg.value)
                return ContractFinding(
                    path=info.path,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    rule="CON004",
                    cls=f"{module_name}:{spec.register_call}({label})",
                    message=message,
                )

            literal_name: str | None = None
            if isinstance(name_arg, ast.Constant):
                if not isinstance(name_arg.value, str) or not name_arg.value:
                    out.append(
                        finding(
                            f"{spec.registry} registration name must be a "
                            f"non-empty string, got {name_arg.value!r}"
                        )
                    )
                else:
                    literal_name = name_arg.value
            if isinstance(value_arg, ast.Constant):
                out.append(
                    finding(
                        f"{spec.registry} {spec.value_keyword} must be "
                        f"{spec.value_contract}, got the literal "
                        f"{value_arg.value!r}"
                    )
                )
            if literal_name is not None:
                if literal_name in registered and not replace:
                    out.append(
                        finding(
                            f"{spec.registry} {literal_name!r} is registered "
                            f"twice (first at line {registered[literal_name]}) "
                            "without replace=True; the second registration "
                            "raises at import time"
                        )
                    )
                else:
                    registered.setdefault(literal_name, node.lineno)
    return registered, out


# ----------------------------------------------------------------------
# The checks
# ----------------------------------------------------------------------
def _check_con001(
    graph: CallGraph,
    spec: ProtocolSpec,
    cls: ClassInfo,
    stranger: bool,
    by_simple: dict[str, tuple[str, ...]],
) -> list[ContractFinding]:
    out: list[ContractFinding] = []

    def finding(line: int, message: str) -> ContractFinding:
        return ContractFinding(
            path=cls.path, line=line, col=1, rule="CON001", cls=cls.qualname, message=message
        )

    if stranger:
        out.append(
            finding(
                cls.lineno,
                f"`{cls.name}` is registered as a {spec.registry} but does "
                f"not subclass `{spec.base}`",
            )
        )

    ancestors = _ancestors(graph, cls.qualname, by_simple)
    for name in spec.required:
        resolved = _resolve_method(graph, cls, name, by_simple)
        if resolved is None:
            out.append(
                finding(
                    cls.lineno,
                    f"{spec.registry} `{cls.name}` is missing required "
                    f"method `{name}` (protocol `{spec.base}`)",
                )
            )
        elif _is_abstractmethod(resolved):
            out.append(
                finding(
                    cls.lineno,
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
                        finding(
                            cls.lineno,
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
                    ContractFinding(
                        path=cls.path,
                        line=own.lineno,
                        col=1,
                        rule="CON001",
                        cls=cls.qualname,
                        message=(
                            f"`{cls.name}.{name}` takes {_positional_arity(own)} "
                            f"positional parameter(s) but the protocol definition "
                            f"`{base_def.qualname}` takes {_positional_arity(base_def)}; "
                            "callers pass the protocol arity"
                        ),
                    )
                )
            break  # nearest definition wins
    return out


def _check_con002(graph: CallGraph, spec: ProtocolSpec, cls: ClassInfo) -> list[ContractFinding]:
    module = graph.modules.get(cls.module)
    if module is None:
        return []
    out: list[ContractFinding] = []
    for name, line in module.module_mutables:
        if name.startswith(_CON002_EXEMPT_PREFIX):
            continue
        out.append(
            ContractFinding(
                path=cls.path,
                line=line,
                col=1,
                rule="CON002",
                cls=cls.qualname,
                message=(
                    f"module-level mutable `{name}` in the module defining "
                    f"{spec.registry} `{cls.name}`; registered implementations "
                    "must keep state on the instance (module state is "
                    "per-process under the sweep pool)"
                ),
            )
        )
    return out


def _check_con003(
    graph: CallGraph,
    spec: ProtocolSpec,
    cls: ClassInfo,
    by_simple: dict[str, tuple[str, ...]],
) -> list[ContractFinding]:
    ctor = _resolve_method(graph, cls, "__init__", by_simple)
    injectable = ctor is not None and any(p in RNG_PARAM_NAMES for p in ctor.params)
    if injectable:
        return []
    out: list[ContractFinding] = []
    for name in sorted(cls.methods):
        facts = taint_facts_of(graph, cls.methods[name])
        for source in facts.sources:
            if source.kind != KIND_AMBIENT_RNG:
                continue
            out.append(
                ContractFinding(
                    path=cls.path,
                    line=source.line,
                    col=source.col,
                    rule="CON003",
                    cls=cls.qualname,
                    message=(
                        f"{spec.registry} `{cls.name}.{name}` draws from the "
                        f"ambient RNG ({source.detail}) with no "
                        "constructor-injectable generator "
                        f"({'/'.join(sorted(RNG_PARAM_NAMES))}); same-seed "
                        "runs cannot reproduce its decisions"
                    ),
                )
            )
    return out


def check_contracts(graph: CallGraph) -> tuple[ContractFinding, ...]:
    """Run CON001–004 over every discovered registry implementation."""
    by_simple = _class_by_simple_name(graph)
    findings: set[ContractFinding] = set()
    for spec in PROTOCOLS:
        if spec.base not in graph.classes:
            continue  # protocol not in the analyzed tree (partial fixture)
        implementations, strangers = _discover(graph, spec, by_simple)
        stranger_set = set(strangers)
        for qualname in sorted(implementations):
            cls = graph.classes[qualname]
            findings.update(
                _check_con001(graph, spec, cls, qualname in stranger_set, by_simple)
            )
            findings.update(_check_con002(graph, spec, cls))
            findings.update(_check_con003(graph, spec, cls, by_simple))
    for callsite_spec in CALLSITE_REGISTRIES:
        if callsite_spec.module not in graph.modules:
            continue  # registry not in the analyzed tree (partial fixture)
        _, callsite_findings = _check_callsites(graph, callsite_spec)
        findings.update(callsite_findings)
    return tuple(sorted(findings))


def contract_summary(graph: CallGraph) -> dict[str, int]:
    """Registry label -> number of discovered implementations.

    Call-site registries (workload/app/routing) count distinct literal
    names registered anywhere in the tree; like the protocol registries
    they appear only when their defining module is part of the analysis.
    """
    by_simple = _class_by_simple_name(graph)
    out: dict[str, int] = {}
    for spec in PROTOCOLS:
        if spec.base not in graph.classes:
            continue
        implementations, _ = _discover(graph, spec, by_simple)
        out[spec.registry] = len(implementations)
    for callsite_spec in CALLSITE_REGISTRIES:
        if callsite_spec.module not in graph.modules:
            continue
        registered, _ = _check_callsites(graph, callsite_spec)
        out[callsite_spec.registry] = len(registered)
    return dict(sorted(out.items()))
