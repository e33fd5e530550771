"""Application graphs: multi-service call chains with back-pressure.

The paper's evaluation (Section VI) scales independent single services,
but real traffic flows through call chains — frontend -> api -> db, with
per-request fan-out — where a saturated downstream tier back-pressures
upstream response times.  This module is the value-object layer for that
model:

- a tier is a :class:`~repro.cluster.microservice.MicroserviceSpec`: an
  existing resource profile (by registry name) plus the replica bounds,
  target utilization and per-replica allocations the Monitor scales
  against — the same spec a plain fleet deploys.
- :class:`CallEdge` — "each request handled by *caller* issues *calls*
  requests to *callee*", with an optional per-edge routing-policy name.
- :class:`ServiceGraph` — tiers + edges, validated acyclic with a pinned
  deterministic topological order (Kahn's algorithm, lexicographic
  tie-break).
- :class:`ApplicationSpec` — a named graph plus its ingress tiers; the
  unit :class:`~repro.experiments.runner.Simulation` builds from.
- :class:`AppRequest` — the lifecycle record for one ingress request's
  journey through the graph (spawned/joined internal calls, end-to-end
  latency).

The single-service path is the degenerate case: a one-service, zero-edge
graph behaves byte-identically to a plain fleet (no internal calls are
spawned, every request keeps ``downstream_pending == 0``).

All value objects are frozen; the canonical JSON codec feeds
:meth:`~repro.experiments.spec.RunSpec.canonical_json` identity, so field
order and omit-when-default rules here are load-bearing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.cluster.microservice import MicroserviceSpec
from repro.codec import canonical_json, decode_record, list_of, record_of, untag
from repro.errors import WorkloadError
from repro.workloads.requests import Request, RequestState

#: Schema tag embedded in canonical application JSON.
GRAPH_SCHEMA = "repro.app/1"


@dataclass(frozen=True)
class CallEdge:
    """Per-request fan-out from one tier to another.

    Each request handled by ``caller`` issues ``calls`` downstream
    requests to ``callee``; the caller's completion then waits on all of
    them (its latency includes its slowest downstream dependency).
    ``routing`` optionally names a registered routing policy for this
    edge; ``None`` inherits the run-level policy.
    """

    caller: str
    callee: str
    calls: int = 1
    routing: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.calls, int) or isinstance(self.calls, bool):
            raise WorkloadError(
                f"edge {self.caller!r}->{self.callee!r}: calls must be an int, "
                f"got {self.calls!r}"
            )
        if self.calls < 0:
            raise WorkloadError(
                f"edge {self.caller!r}->{self.callee!r}: fan-out must be >= 0, "
                f"got {self.calls}"
            )
        if self.caller == self.callee:
            raise WorkloadError(f"edge {self.caller!r} may not call itself")

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON types; ``routing`` is omitted when unset."""
        return {key: value for key, value in asdict(self).items() if value is not None}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CallEdge":
        """Decode :meth:`to_dict` output; raises :class:`WorkloadError`."""
        return decode_record(cls, data, WorkloadError, "edge")


@dataclass(frozen=True)
class ServiceGraph:
    """An acyclic service-dependency graph.

    Validation happens at construction: unique tier names, edges that
    reference known tiers, no duplicate (caller, callee) pairs, and
    acyclicity — proven by computing the pinned topological order.
    """

    services: tuple[MicroserviceSpec, ...]
    edges: tuple[CallEdge, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "services", tuple(self.services))
        object.__setattr__(self, "edges", tuple(self.edges))
        if not self.services:
            raise WorkloadError("a service graph needs at least one service")
        names = [spec.name for spec in self.services]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise WorkloadError(f"duplicate service names in graph: {dupes}")
        known = set(names)
        seen_pairs: set[tuple[str, str]] = set()
        for edge in self.edges:
            for endpoint in (edge.caller, edge.callee):
                if endpoint not in known:
                    raise WorkloadError(
                        f"edge {edge.caller!r}->{edge.callee!r} references "
                        f"unknown service {endpoint!r}"
                    )
            pair = (edge.caller, edge.callee)
            if pair in seen_pairs:
                raise WorkloadError(
                    f"duplicate edge {edge.caller!r}->{edge.callee!r}"
                )
            seen_pairs.add(pair)
        # Raises on cycles; also pins the deterministic order.
        self.topological_order()

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def service(self, name: str) -> MicroserviceSpec:
        """Tier spec by name, or raise."""
        for spec in self.services:
            if spec.name == name:
                return spec
        raise WorkloadError(f"unknown service {name!r} in graph")

    def service_names(self) -> tuple[str, ...]:
        """All tier names, sorted."""
        return tuple(sorted(spec.name for spec in self.services))

    def out_edges(self, name: str) -> tuple[CallEdge, ...]:
        """Edges out of ``name``, sorted by callee (deterministic dispatch)."""
        return tuple(
            sorted(
                (e for e in self.edges if e.caller == name),
                key=_edge_callee,
            )
        )

    def fan_out(self, name: str) -> int:
        """Total downstream calls one request to ``name`` spawns."""
        return sum(e.calls for e in self.edges if e.caller == name)

    def roots(self) -> tuple[str, ...]:
        """Tiers with no incoming edges (the natural ingress set), sorted."""
        called = {e.callee for e in self.edges}
        return tuple(sorted(n for n in (s.name for s in self.services) if n not in called))

    def topological_order(self) -> tuple[str, ...]:
        """Kahn's algorithm with a sorted ready set — the pinned order.

        Deterministic for a given graph regardless of the order services
        or edges were listed in; raises :class:`WorkloadError` naming the
        cycle participants when the graph is not a DAG.
        """
        indegree = {spec.name: 0 for spec in self.services}
        for edge in self.edges:
            indegree[edge.callee] += 1
        ready = sorted(name for name, deg in indegree.items() if deg == 0)
        order: list[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for edge in self.out_edges(name):
                indegree[edge.callee] -= 1
                if indegree[edge.callee] == 0:
                    ready.append(edge.callee)
            ready.sort()
        if len(order) != len(self.services):
            cycle = sorted(name for name, deg in indegree.items() if deg > 0)
            raise WorkloadError(f"service graph has a cycle through {cycle}")
        return tuple(order)

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "services": [asdict(spec) for spec in self.services],
            "edges": [edge.to_dict() for edge in self.edges],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ServiceGraph":
        """Decode :meth:`to_dict` output; raises :class:`WorkloadError`."""
        return _decode_graph(data, WorkloadError, "graph")


@dataclass(frozen=True)
class ApplicationSpec:
    """A named application: a service graph plus its ingress tiers.

    ``ingress`` names the tiers that receive user traffic; it defaults to
    the graph's roots.  :meth:`service_specs` lists every tier's fleet
    spec in topological order, so the Monitor evaluates its per-service
    policies — HYSCALE_CPU, CPU+Mem, Kubernetes-HPA — per tier with no
    further wiring.
    """

    name: str
    graph: ServiceGraph
    ingress: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("an application needs a non-empty name")
        object.__setattr__(self, "ingress", tuple(self.ingress))
        if not self.ingress:
            object.__setattr__(self, "ingress", self.graph.roots())
        if not self.ingress:
            raise WorkloadError(
                f"application {self.name!r} has no ingress tier (every "
                "service has an incoming edge; pass ingress= explicitly)"
            )
        known = {spec.name for spec in self.graph.services}
        for tier in self.ingress:
            if tier not in known:
                raise WorkloadError(
                    f"application {self.name!r}: ingress tier {tier!r} is not "
                    "in the graph"
                )
        if len(set(self.ingress)) != len(self.ingress):
            raise WorkloadError(f"application {self.name!r}: duplicate ingress tiers")

    def service_specs(self) -> tuple["MicroserviceSpec", ...]:
        """Every tier as a fleet spec, in the pinned topological order."""
        return tuple(self.graph.service(name) for name in self.graph.topological_order())

    @classmethod
    def single_service(cls, spec: "MicroserviceSpec", name: str | None = None) -> "ApplicationSpec":
        """Degenerate one-tier application wrapping an existing fleet spec.

        Behaves byte-identically to running the spec as a plain fleet: no
        edges means no internal calls, so every request completes exactly
        as it would without a graph.
        """
        return cls(
            name=name or spec.name,
            graph=ServiceGraph(services=(spec,)),
        )

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": GRAPH_SCHEMA,
            "name": self.name,
            "graph": self.graph.to_dict(),
            "ingress": list(self.ingress),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ApplicationSpec":
        """Decode a ``repro.app/1`` document; raises :class:`WorkloadError`
        naming the bad field (the tier and edge constructors' own errors for
        bad values pass through)."""
        return decode_app(data, WorkloadError, "app")

    def canonical_json(self) -> str:
        """Byte-stable canonical encoding (sorted keys, no whitespace)."""
        return canonical_json(self.to_dict())


def _decode_graph(data: Any, error: type[Exception], path: str) -> ServiceGraph:
    # Imported here, not at module top: cluster.microservice's package
    # imports repro.workloads (for Request), so a top-level import would
    # cycle during package init.
    from repro.cluster.microservice import MicroserviceSpec

    nested = {"services": list_of(record_of(MicroserviceSpec)), "edges": list_of(record_of(CallEdge))}
    return decode_record(ServiceGraph, data, error, path, nested)


def decode_app(data: Any, error: type[Exception], path: str) -> ApplicationSpec:
    """The nested decoder behind :meth:`ApplicationSpec.from_dict`."""
    fields = untag(data, error, path, schema=GRAPH_SCHEMA)
    return decode_record(ApplicationSpec, fields, error, path, {"graph": _decode_graph})


@dataclass
class AppRequest:
    """Lifecycle record for one ingress request's journey through the graph.

    Created by the graph router when the load generator hands it an
    ingress request; updated as internal tier calls are spawned and
    joined; finished when the root request itself completes or fails.
    The end-to-end latency is the root's response time — by construction
    it includes the slowest downstream dependency chain, because a tier
    stays in flight (holding its concurrency slot and memory) until all
    of its downstream calls resolve.
    """

    app: str
    root: Request
    spawned: int = 0
    internal_completed: int = 0
    internal_failed: int = 0
    #: Internal requests still outstanding anywhere in the subtree.
    live_internal: int = 0

    @property
    def finished(self) -> bool:
        return self.root.is_finished

    @property
    def succeeded(self) -> bool:
        return self.root.state is RequestState.SUCCEEDED

    @property
    def response_time(self) -> float | None:
        return self.root.response_time


def _edge_callee(edge: CallEdge) -> str:
    """Sort key for deterministic edge iteration (module-level: HOT001)."""
    return edge.callee


def three_tier_graph(
    *,
    frontend_profile: str = "cpu_bound",
    api_profile: str = "cpu_bound",
    # cpu_bound, not disk_bound: the default ``hybrid`` policy watches CPU
    # and memory, so a disk-bound db would never emit a scaling signal it
    # can see (pair ``db_profile="disk_bound"`` with the ``disk`` policy).
    db_profile: str = "cpu_bound",
    api_calls: int = 1,
    db_calls: int = 2,
    db_max_replicas: int = 16,
) -> ServiceGraph:
    """The canonical frontend -> api -> db chain used by examples and benches.

    One user request does frontend work, issues ``api_calls`` api calls,
    and each api call issues ``db_calls`` db reads.  Capping
    ``db_max_replicas`` is the standard way to demonstrate back-pressure:
    the db saturates, api requests block on their reads, frontend blocks
    on api, and ingress p99 climbs.
    """
    from repro.cluster.microservice import MicroserviceSpec  # lazy: see _decode_graph

    return ServiceGraph(
        services=(
            MicroserviceSpec(
                name="frontend",
                profile=frontend_profile,
                cpu_request=0.5,
                mem_limit=512.0,
                max_replicas=16,
            ),
            MicroserviceSpec(
                name="api",
                profile=api_profile,
                cpu_request=0.5,
                mem_limit=512.0,
                max_replicas=16,
            ),
            MicroserviceSpec(
                name="db",
                profile=db_profile,
                cpu_request=0.5,
                mem_limit=768.0,
                max_replicas=db_max_replicas,
                stateful=True,
            ),
        ),
        edges=(
            CallEdge(caller="frontend", callee="api", calls=api_calls),
            CallEdge(caller="api", callee="db", calls=db_calls),
        ),
    )


def three_tier_app(
    name: str = "three-tier",
    *,
    db_max_replicas: int = 16,
    db_calls: int = 2,
) -> ApplicationSpec:
    """A ready-to-run three-tier :class:`ApplicationSpec`."""
    return ApplicationSpec(
        name=name,
        graph=three_tier_graph(db_max_replicas=db_max_replicas, db_calls=db_calls),
    )
