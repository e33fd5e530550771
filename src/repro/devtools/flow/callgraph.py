"""Module-resolved call graph over the ``repro`` package.

The graph is built in two passes:

1. **Collection** — for every parsed module, classes, methods, top-level
   functions, import aliases, dataclass field types, and ``self.attr``
   types (inferred from constructor assignments) are indexed.
2. **Resolution** — every call site is resolved to zero or more known
   functions, preferring precise evidence (imports, local constructor
   assignments, parameter/field annotations, ``self`` dispatch with base
   classes) and falling back to class-hierarchy name matching for
   duck-typed protocol calls: ``actor.on_step(...)`` with an unknown
   receiver reaches *every* class defining ``on_step``, which is exactly
   how the engine's actor protocol and the policy registry dispatch.

The fallback makes the graph a sound over-approximation for the
reachability questions the call-graph rules ask ("could this run inside
a step?"); precise receiver typing keeps it from collapsing into
"everything calls everything".
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.devtools.source import SourceFile, dotted_name, is_mutable_container

#: Method names never resolved through the name-match fallback: they are
#: overwhelmingly stdlib container/IO calls, and fallback edges through
#: them would wire unrelated subsystems together.
_FALLBACK_STOPLIST = frozenset(
    {
        "append",
        "extend",
        "add",
        "pop",
        "popleft",
        "remove",
        "discard",
        "clear",
        "items",
        "keys",
        "values",
        "setdefault",
        "update",
        "sort",
        "join",
        "split",
        "strip",
        "startswith",
        "endswith",
        "format",
        "write",
        "read",
        "close",
        "copy",
        "count",
        "index",
        "insert",
    }
)


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition in the analyzed tree."""

    qualname: str  # e.g. ``repro.sim.engine.Engine.step``
    module: str  # e.g. ``repro.sim.engine``
    cls: str | None  # simple class name, or None for top-level defs
    name: str  # the bare def name
    path: str  # repo-relative posix path of the defining file
    lineno: int
    node: ast.FunctionDef | ast.AsyncFunctionDef = field(repr=False, compare=False)
    params: tuple[str, ...] = ()


@dataclass
class ClassInfo:
    """One class definition: methods, bases, and inferred attribute types."""

    qualname: str
    name: str
    module: str
    path: str = ""  # repo-relative posix path of the defining file
    lineno: int = 0
    bases: tuple[str, ...] = ()  # simple or dotted base names, unresolved
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` name -> class qualname (from ``self.x = Ctor(...)``
    #: in any method, or a class-level ``x: SomeClass`` field annotation).
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module and its local namespace."""

    name: str  # dotted module name
    path: str  # repo-relative posix path
    tree: ast.Module = field(repr=False)
    aliases: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: Module-level mutable container assignments: (name, lineno).
    module_mutables: tuple[tuple[str, int], ...] = ()


class CallGraph:
    """Functions, classes, and resolved call edges over one source tree."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: method simple name -> sorted tuple of defining-method qualnames.
        self.methods_by_name: dict[str, tuple[str, ...]] = {}
        #: caller qualname -> sorted tuple of callee qualnames.
        self.edges: dict[str, tuple[str, ...]] = {}

    # -- queries -------------------------------------------------------
    def callees(self, qualname: str) -> tuple[str, ...]:
        """Resolved callees of one function (empty if unknown)."""
        return self.edges.get(qualname, ())

    def functions_named(self, name: str) -> tuple[str, ...]:
        """Every method qualname whose bare name is ``name``."""
        return self.methods_by_name.get(name, ())

    def class_of(self, method_qualname: str) -> ClassInfo | None:
        """The class owning a method qualname, if any."""
        info = self.functions.get(method_qualname)
        if info is None or info.cls is None:
            return None
        return self.classes.get(f"{info.module}.{info.cls}")

    @property
    def edge_count(self) -> int:
        """Total number of resolved call edges."""
        return sum(len(v) for v in self.edges.values())


def _annotation_class(annotation: ast.expr | None) -> str | None:
    """The (possibly dotted) class name of a simple annotation, if any.

    ``Cluster`` -> ``Cluster``; ``spec.RunSpec`` -> ``spec.RunSpec``;
    string annotations parse recursively; unions/subscripts return the
    first resolvable member (``Tracer | None`` -> ``Tracer``).
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            parsed = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
        return _annotation_class(parsed)
    if isinstance(annotation, (ast.Name, ast.Attribute)):
        return dotted_name(annotation)
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _annotation_class(annotation.left) or _annotation_class(annotation.right)
    if isinstance(annotation, ast.Subscript):
        base = _annotation_class(annotation.value)
        if base in ("Optional",):
            return _annotation_class(annotation.slice)
        return None
    return None


def _collect_module(f: SourceFile, name: str) -> ModuleInfo:
    """Pass 1 for one module: defs, classes, module mutables."""
    path = f.path
    info = ModuleInfo(name=name, path=path, tree=f.tree, aliases=f.aliases)
    mutables: list[tuple[str, int]] = []
    for node in f.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[node.name] = _function_info(name, None, path, node)
        elif isinstance(node, ast.ClassDef):
            info.classes[node.name] = _collect_class(name, path, node, info.aliases)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if value is not None and is_mutable_container(value, info.aliases):
                for target in targets:
                    if isinstance(target, ast.Name):
                        mutables.append((target.id, node.lineno))
    info.module_mutables = tuple(mutables)
    return info


def _function_info(
    module: str, cls: str | None, path: str, node: ast.FunctionDef | ast.AsyncFunctionDef
) -> FunctionInfo:
    owner = f"{module}.{cls}" if cls else module
    params = tuple(a.arg for a in (*node.args.posonlyargs, *node.args.args))
    return FunctionInfo(
        qualname=f"{owner}.{node.name}",
        module=module,
        cls=cls,
        name=node.name,
        path=path,
        lineno=node.lineno,
        node=node,
        params=params,
    )


def _collect_class(
    module: str, path: str, node: ast.ClassDef, aliases: Mapping[str, str]
) -> ClassInfo:
    info = ClassInfo(
        qualname=f"{module}.{node.name}",
        name=node.name,
        module=module,
        path=path,
        lineno=node.lineno,
        bases=tuple(b for b in (dotted_name(base) for base in node.bases) if b),
    )
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[child.name] = _function_info(module, node.name, path, child)
        elif isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
            # Dataclass-style field annotation: ``engine: Engine``.
            annotated = _annotation_class(child.annotation)
            if annotated is not None:
                info.attr_types[child.target.id] = annotated
    return info


def build_call_graph(files: Iterable[SourceFile]) -> CallGraph:
    """Build the graph from the parsed files inside ``src/repro``.

    Files outside the package (no module name) are skipped; each file's
    tree and import aliases are the ones the pass already computed.
    """
    graph = CallGraph()
    for f in sorted(files, key=lambda f: f.path):
        if f.module is not None:
            graph.modules[f.module] = _collect_module(f, f.module)

    by_name: dict[str, list[str]] = {}
    class_by_simple_name: dict[str, list[str]] = {}
    for module_info in graph.modules.values():
        for fn in module_info.functions.values():
            graph.functions[fn.qualname] = fn
        for cls in module_info.classes.values():
            graph.classes[cls.qualname] = cls
            class_by_simple_name.setdefault(cls.name, []).append(cls.qualname)
            for fn in cls.methods.values():
                graph.functions[fn.qualname] = fn
                by_name.setdefault(fn.name, []).append(fn.qualname)
    graph.methods_by_name = {
        name: tuple(sorted(quals)) for name, quals in sorted(by_name.items())
    }

    _infer_attribute_types(graph, class_by_simple_name)
    for module_info in graph.modules.values():
        resolver = _Resolver(graph, module_info, class_by_simple_name)
        for fn in module_info.functions.values():
            graph.edges[fn.qualname] = resolver.resolve_function(fn, cls=None)
        for cls in module_info.classes.values():
            for fn in cls.methods.values():
                graph.edges[fn.qualname] = resolver.resolve_function(fn, cls=cls)
    return graph


def _infer_attribute_types(graph: CallGraph, class_by_simple_name: Mapping[str, list[str]]) -> None:
    """Record ``self.attr`` types from constructor-call assignments.

    ``self.nic = NetworkInterface(...)`` in any method of a class types
    ``self.nic`` for every other method of that class.  Annotation-derived
    field types collected in pass 1 are canonicalised to qualnames here.
    """
    for cls in graph.classes.values():
        module_info = graph.modules[cls.module]
        resolved: dict[str, str] = {}
        for attr, annotated in cls.attr_types.items():
            qual = _resolve_class_name(annotated, module_info, graph, class_by_simple_name)
            if qual is not None:
                resolved[attr] = qual
        for method in cls.methods.values():
            for node in ast.walk(method.node):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                value = node.value
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        qual = None
                        if isinstance(value, ast.Call):
                            dotted = dotted_name(value.func)
                            if dotted is not None:
                                qual = _resolve_class_name(
                                    dotted, module_info, graph, class_by_simple_name
                                )
                        if qual is None and isinstance(node, ast.AnnAssign):
                            annotated = _annotation_class(node.annotation)
                            if annotated is not None:
                                qual = _resolve_class_name(
                                    annotated, module_info, graph, class_by_simple_name
                                )
                        if qual is not None:
                            resolved.setdefault(target.attr, qual)
        cls.attr_types = resolved


def _resolve_class_name(
    dotted: str,
    module_info: ModuleInfo,
    graph: CallGraph,
    class_by_simple_name: Mapping[str, list[str]],
) -> str | None:
    """Resolve a (possibly dotted/aliased) class reference to a qualname."""
    head, _, rest = dotted.partition(".")
    expanded = module_info.aliases.get(head, head)
    candidate = f"{expanded}.{rest}" if rest else expanded
    if candidate in graph.classes:
        return candidate
    local = f"{module_info.name}.{dotted}"
    if not rest and local in graph.classes:
        return local
    # An unambiguous simple name anywhere in the tree still types precisely.
    simple = dotted.rsplit(".", 1)[-1]
    matches = class_by_simple_name.get(simple, [])
    if len(matches) == 1:
        return matches[0]
    return None


class _Resolver:
    """Pass 2: resolve every call site of one module's functions."""

    def __init__(
        self,
        graph: CallGraph,
        module_info: ModuleInfo,
        class_by_simple_name: Mapping[str, list[str]],
    ) -> None:
        self.graph = graph
        self.module = module_info
        self.class_by_simple_name = class_by_simple_name

    # -- helpers -------------------------------------------------------
    def _class_method(self, class_qual: str, method: str) -> str | None:
        """Look up ``method`` on a class, walking base classes in order."""
        seen: set[str] = set()
        queue = [class_qual]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.graph.classes.get(current)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method].qualname
            owner_module = self.graph.modules.get(cls.module)
            for base in cls.bases:
                if owner_module is not None:
                    base_qual = _resolve_class_name(
                        base, owner_module, self.graph, self.class_by_simple_name
                    )
                    if base_qual is not None:
                        queue.append(base_qual)
        return None

    def _constructor_targets(self, class_qual: str) -> list[str]:
        """Edges created by instantiating a class: __init__ / __post_init__."""
        out = []
        for dunder in ("__init__", "__post_init__"):
            target = self._class_method(class_qual, dunder)
            if target is not None:
                out.append(target)
        return out

    def _local_types(
        self, fn: FunctionInfo, cls: ClassInfo | None
    ) -> dict[str, str]:
        """Variable name -> class qualname, from annotations, ctor calls,
        and the return annotations of resolved helper calls
        (``daemon = self._daemon(...)`` types ``daemon``)."""
        types: dict[str, str] = {}
        args = fn.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            qual = self._resolve_annotation(arg.annotation)
            if qual is not None:
                types[arg.arg] = qual
        for node in ast.walk(fn.node):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            qual = None
            if isinstance(value, ast.Call):
                dotted = dotted_name(value.func)
                if dotted is not None:
                    qual = _resolve_class_name(
                        dotted, self.module, self.graph, self.class_by_simple_name
                    )
                if qual is None:
                    qual = self._return_type_of(value, cls)
            if qual is None and isinstance(node, ast.AnnAssign):
                qual = self._resolve_annotation(node.annotation)
            if qual is not None:
                for target in targets:
                    if isinstance(target, ast.Name):
                        types[target.id] = qual
        return types

    def _return_type_of(self, call: ast.Call, cls: ClassInfo | None) -> str | None:
        """Class qualname of a call's annotated return type, if resolvable."""
        callee: FunctionInfo | None = None
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in self.module.functions:
                callee = self.module.functions[func.id]
            else:
                expanded = self.module.aliases.get(func.id)
                if expanded is not None:
                    callee = self.graph.functions.get(expanded)
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and cls is not None
        ):
            target = self._class_method(cls.qualname, func.attr)
            if target is not None:
                callee = self.graph.functions.get(target)
        if callee is None:
            return None
        annotated = _annotation_class(callee.node.returns)
        if annotated is None:
            return None
        owner = self.graph.modules.get(callee.module)
        if owner is None:
            return None
        return _resolve_class_name(annotated, owner, self.graph, self.class_by_simple_name)

    def _resolve_annotation(self, annotation: ast.expr | None) -> str | None:
        annotated = _annotation_class(annotation)
        if annotated is None:
            return None
        return _resolve_class_name(annotated, self.module, self.graph, self.class_by_simple_name)

    # -- the main resolution walk --------------------------------------
    def resolve_function(self, fn: FunctionInfo, cls: ClassInfo | None) -> tuple[str, ...]:
        """All resolved callee qualnames of one function body."""
        callees: set[str] = set()
        local_types = self._local_types(fn, cls)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                callees.update(self._resolve_call(node, fn, cls, local_types))
        callees.discard(fn.qualname)
        return tuple(sorted(callees))

    def _resolve_call(
        self,
        call: ast.Call,
        fn: FunctionInfo,
        cls: ClassInfo | None,
        local_types: Mapping[str, str],
    ) -> list[str]:
        func = call.func
        # Bare name: local def, imported def, or a constructor.
        if isinstance(func, ast.Name):
            return self._resolve_bare_name(func.id)
        if not isinstance(func, ast.Attribute):
            return []
        method = func.attr
        receiver = func.value

        # Fully dotted target through imports: repro.units.mb_to_mbit(...).
        dotted = dotted_name(func)
        if dotted is not None:
            head, _, rest = dotted.partition(".")
            expanded = self.module.aliases.get(head, head)
            candidate = f"{expanded}.{rest}" if rest else expanded
            if candidate in self.graph.functions:
                return [candidate]

        # self.method(...) / super().method(...)
        if isinstance(receiver, ast.Name) and receiver.id == "self" and cls is not None:
            target = self._class_method(cls.qualname, method)
            if target is not None:
                return [target]
            return self._fallback(method)
        if (
            isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Name)
            and receiver.func.id == "super"
            and cls is not None
        ):
            owner = self.graph.classes.get(cls.qualname)
            if owner is not None:
                for base in owner.bases:
                    base_qual = _resolve_class_name(
                        base, self.module, self.graph, self.class_by_simple_name
                    )
                    if base_qual is not None:
                        target = self._class_method(base_qual, method)
                        if target is not None:
                            return [target]
            return []

        # self.attr.method(...) with an inferred attribute type.
        if (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
            and cls is not None
        ):
            attr_type = cls.attr_types.get(receiver.attr)
            if attr_type is not None:
                target = self._class_method(attr_type, method)
                if target is not None:
                    return [target]
                return []  # typed receiver, method not in tree: stdlib etc.
            return self._fallback(method)

        # var.method(...) with a locally typed variable.
        if isinstance(receiver, ast.Name):
            var_type = local_types.get(receiver.id)
            if var_type is not None:
                target = self._class_method(var_type, method)
                if target is not None:
                    return [target]
                return []
            # ClassName.method(...) — classmethod / unbound call.
            if receiver.id[:1].isupper():
                class_qual = _resolve_class_name(
                    receiver.id, self.module, self.graph, self.class_by_simple_name
                )
                if class_qual is not None:
                    target = self._class_method(class_qual, method)
                    if target is not None:
                        return [target]
        return self._fallback(method)

    def _resolve_bare_name(self, name: str) -> list[str]:
        if name in self.module.functions:
            return [self.module.functions[name].qualname]
        expanded = self.module.aliases.get(name)
        if expanded is not None:
            if expanded in self.graph.functions:
                return [expanded]
            if expanded in self.graph.classes:
                return self._constructor_targets(expanded)
        local_class = f"{self.module.name}.{name}"
        if local_class in self.graph.classes:
            return self._constructor_targets(local_class)
        return []

    def _fallback(self, method: str) -> list[str]:
        """Class-hierarchy name matching for unknown receivers."""
        if method.startswith("__") or method in _FALLBACK_STOPLIST:
            return []
        return list(self.graph.functions_named(method))
