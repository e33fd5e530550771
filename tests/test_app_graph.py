"""Application graphs: validation, degeneracy, back-pressure, registries.

Three contracts from the ApplicationSpec/ServiceGraph redesign are pinned
here:

1. **Validation** — malformed graphs (cycles, unknown endpoints, bad
   fan-out, duplicate edges/tiers) fail loudly at construction, and the
   topological order is pinned regardless of listing order.
2. **Degeneracy** — a one-service, zero-edge application behaves
   byte-identically to running the same spec as a plain fleet; the app
   block is purely additive.
3. **Back-pressure** — capping a downstream tier's replicas degrades the
   *ingress* tier's end-to-end SLO; the damage surfaces where users feel
   it, monotonically in the cap.

Plus the registry satellite: workload/app/profile/routing names resolve
through one instance-held table each.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.cli import build_parser
from repro.config import ClusterConfig, SimulationConfig
from repro.cluster import MicroserviceSpec
from repro.errors import ClusterError, ExperimentError, WorkloadError
from repro.experiments.configs import three_tier
from repro.experiments.runner import Simulation
from repro.experiments.spec import RunSpec
from repro.metrics.sla import Sla, evaluate_sla
from repro.platform.load_balancer import RoutingPolicy
from repro.platform.routing import (
    DEFAULT_ROUTING,
    register_routing,
    registered_routings,
    resolve_routing,
)
from repro.workloads import CPU_BOUND, LowBurstLoad, ServiceLoad
from repro.workloads.graph import (
    GRAPH_SCHEMA,
    ApplicationSpec,
    CallEdge,
    ServiceGraph,
    three_tier_app,
    three_tier_graph,
)
from repro.workloads.registry import (
    register_app,
    register_profile,
    register_workload,
    registered_apps,
    registered_profiles,
    registered_workloads,
    resolve_app,
    resolve_profile,
    resolve_workload,
)


#: ``three_tier_app().canonical_json()`` as written when graph tiers were
#: their own spec type.
PINNED_THREE_TIER_DOCUMENT = (
    '{"graph":{"edges":[{"callee":"api","caller":"frontend","calls":1},'
    '{"callee":"db","caller":"api","calls":2}],"services":['
    '{"cpu_request":0.5,"disk_quota":50.0,"max_concurrency":16,"max_replicas":16,'
    '"mem_limit":512.0,"min_replicas":1,"name":"frontend","net_rate":50.0,'
    '"profile":"cpu_bound","state_size_mb":256.0,"stateful":false,"target_utilization":0.5},'
    '{"cpu_request":0.5,"disk_quota":50.0,"max_concurrency":16,"max_replicas":16,'
    '"mem_limit":512.0,"min_replicas":1,"name":"api","net_rate":50.0,'
    '"profile":"cpu_bound","state_size_mb":256.0,"stateful":false,"target_utilization":0.5},'
    '{"cpu_request":0.5,"disk_quota":50.0,"max_concurrency":16,"max_replicas":16,'
    '"mem_limit":768.0,"min_replicas":1,"name":"db","net_rate":50.0,'
    '"profile":"cpu_bound","state_size_mb":256.0,"stateful":true,"target_utilization":0.5}]},'
    '"ingress":["frontend"],"name":"three-tier","schema":"repro.app/1"}'
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _tiers(*names: str) -> tuple[MicroserviceSpec, ...]:
    return tuple(MicroserviceSpec(name=name) for name in names)


# ----------------------------------------------------------------------
# 1. Graph validation
# ----------------------------------------------------------------------
class TestGraphValidation:
    def test_cycle_is_rejected_naming_participants(self):
        with pytest.raises(WorkloadError, match="cycle through"):
            ServiceGraph(
                services=_tiers("a", "b", "c"),
                edges=(
                    CallEdge(caller="a", callee="b"),
                    CallEdge(caller="b", callee="c"),
                    CallEdge(caller="c", callee="a"),
                ),
            )

    def test_unknown_edge_endpoint(self):
        with pytest.raises(WorkloadError, match="unknown service 'ghost'"):
            ServiceGraph(
                services=_tiers("a"),
                edges=(CallEdge(caller="a", callee="ghost"),),
            )

    def test_duplicate_edge(self):
        with pytest.raises(WorkloadError, match="duplicate edge"):
            ServiceGraph(
                services=_tiers("a", "b"),
                edges=(
                    CallEdge(caller="a", callee="b", calls=1),
                    CallEdge(caller="a", callee="b", calls=2),
                ),
            )

    def test_self_edge(self):
        with pytest.raises(WorkloadError, match="may not call itself"):
            CallEdge(caller="a", callee="a")

    def test_fan_out_must_be_a_real_int(self):
        with pytest.raises(WorkloadError, match="must be an int"):
            CallEdge(caller="a", callee="b", calls=True)
        with pytest.raises(WorkloadError, match=">= 0"):
            CallEdge(caller="a", callee="b", calls=-1)

    def test_duplicate_service_names(self):
        with pytest.raises(WorkloadError, match="duplicate service names"):
            ServiceGraph(services=_tiers("a", "a"))

    def test_empty_graph(self):
        with pytest.raises(WorkloadError, match="at least one service"):
            ServiceGraph(services=())

    def test_topological_order_is_pinned_regardless_of_listing(self):
        edges = (
            CallEdge(caller="front", callee="api"),
            CallEdge(caller="api", callee="db"),
        )
        forward = ServiceGraph(services=_tiers("front", "api", "db"), edges=edges)
        reversed_listing = ServiceGraph(
            services=_tiers("db", "api", "front"), edges=tuple(reversed(edges))
        )
        assert forward.topological_order() == ("front", "api", "db")
        assert forward.topological_order() == reversed_listing.topological_order()

    def test_ingress_defaults_to_roots(self):
        app = three_tier_app()
        assert app.ingress == ("frontend",)
        assert app.graph.roots() == ("frontend",)

    def test_ingress_must_be_in_graph(self):
        with pytest.raises(WorkloadError, match="ingress tier 'ghost'"):
            ApplicationSpec(name="x", graph=three_tier_graph(), ingress=("ghost",))

    def test_codec_round_trip_and_schema(self):
        app = three_tier_app(db_max_replicas=4)
        decoded = ApplicationSpec.from_dict(app.to_dict())
        assert decoded == app
        assert decoded.canonical_json() == app.canonical_json()
        assert GRAPH_SCHEMA in app.canonical_json()
        with pytest.raises(WorkloadError, match="unsupported application schema"):
            ApplicationSpec.from_dict({**app.to_dict(), "schema": "repro.app/99"})

    def test_codec_bytes_are_pinned(self):
        """``repro.app/1`` is unchanged by tiers being plain fleet specs: the
        app document and a run spec carrying it (the shard-cache key input)
        hash to the digests recorded when tiers had their own spec type."""
        assert _sha256(three_tier_app().canonical_json()) == (
            "a991f6c20b85c4c82423e24ecd8073c0c67233a7b5c37f401222a68f040cf3f9"
        )
        assert _sha256(three_tier("low").to_run_spec("hybrid").canonical_json()) == (
            "fa81f8c1e63a3c5a5fdcd07308d738509dd0aa6759784a4f6b33a9ae06a7b656"
        )

    def test_decodes_the_pinned_document_to_an_equal_app(self):
        assert ApplicationSpec.from_dict(json.loads(PINNED_THREE_TIER_DOCUMENT)) == three_tier_app()

    def test_codec_rejects_a_nan_tier_field(self):
        document = three_tier_app().to_dict()
        document["graph"]["services"][0]["mem_limit"] = float("nan")
        with pytest.raises(ClusterError, match="finite"):
            ApplicationSpec.from_dict(document)

    def test_run_spec_codec_carries_the_app(self):
        spec = three_tier().to_run_spec("hybrid")
        assert spec.app is not None
        assert GRAPH_SCHEMA in spec.canonical_json()
        decoded = RunSpec.from_dict(spec.to_dict())
        assert decoded.canonical_json() == spec.canonical_json()
        assert decoded.app == spec.app


# ----------------------------------------------------------------------
# Shared run plumbing
# ----------------------------------------------------------------------
def _app_simulation(db_max_replicas: int, worker_nodes: int = 8) -> Simulation:
    return Simulation.build(
        config=SimulationConfig(cluster=ClusterConfig(worker_nodes=worker_nodes), seed=7),
        loads=[
            ServiceLoad(
                service="frontend",
                profile=CPU_BOUND,
                pattern=LowBurstLoad(base=8.0, amplitude=0.3, period=120.0),
            )
        ],
        policy="hybrid",
        workload_label="app-graph-test",
        app=three_tier_app(db_max_replicas=db_max_replicas),
    )


# ----------------------------------------------------------------------
# 2. One-node degeneracy: graph run == plain-fleet run
# ----------------------------------------------------------------------
class TestSingleServiceDegeneracy:
    DURATION = 90.0

    def _fleet_pieces(self):
        config = SimulationConfig(cluster=ClusterConfig(worker_nodes=8), seed=3)
        spec = MicroserviceSpec(
            name="web", cpu_request=0.5, mem_limit=512.0, net_rate=50.0, max_replicas=8
        )
        loads = [
            ServiceLoad(
                service="web",
                profile=CPU_BOUND,
                pattern=LowBurstLoad(base=6.0, amplitude=0.3, period=60.0),
            )
        ]
        return config, spec, loads

    def test_one_node_graph_matches_plain_fleet_byte_for_byte(self):
        config, spec, loads = self._fleet_pieces()
        plain = Simulation.build(
            config=config, specs=[spec], loads=loads, policy="hybrid",
            workload_label="degenerate",
        ).run(self.DURATION)
        wrapped = Simulation.build(
            config=config, loads=loads, policy="hybrid",
            workload_label="degenerate",
            app=ApplicationSpec.single_service(spec),
        ).run(self.DURATION)

        plain_dict = plain.to_dict()
        wrapped_dict = wrapped.to_dict()
        app_block = wrapped_dict.pop("app")
        # Everything the plain fleet reports is reproduced exactly; the
        # app block is purely additive.
        assert "app" not in plain_dict
        assert wrapped_dict == plain_dict
        # And the additive block is the degenerate one: every request is
        # ingress, none are internal.
        assert app_block["internal_requests"] == 0
        assert app_block["ingress_requests"] == plain.total_requests

    def test_user_view_collapses_to_run_totals(self):
        config, spec, loads = self._fleet_pieces()
        plain = Simulation.build(
            config=config, specs=[spec], loads=loads, policy="hybrid",
            workload_label="degenerate",
        ).run(self.DURATION)
        # No app: the user_* accessors read the run totals directly.
        assert plain.user_requests == plain.total_requests
        assert plain.user_avg_response_time == plain.avg_response_time
        assert plain.user_p99_response_time == plain.p99_response_time


# ----------------------------------------------------------------------
# 3. Back-pressure: a capped downstream tier degrades the ingress SLO
# ----------------------------------------------------------------------
class TestBackPressure:
    DURATION = 120.0
    SLA = Sla(response_time_target=8.0)
    #: (workers, sim seconds, db caps loosest first, minimum rise in
    #: violation points from the first cap to the last).  The second row
    #: is the paper's testbed: 19 workers (24 machines minus 5 LBs).
    STAIRCASES = (
        (8, DURATION, (16, 1), 10.0),
        (19, 150.0, (16, 2, 1), 0.0),
    )

    def _violation_pct(self, db_max_replicas: int, worker_nodes: int, duration: float) -> float:
        simulation = _app_simulation(db_max_replicas, worker_nodes)
        simulation.run(duration)
        report = evaluate_sla(simulation.collector, self.SLA)
        return 100.0 * (1.0 - report.adherence)

    def test_capping_db_raises_ingress_slo_violations(self):
        # The bottleneck is two hops downstream of the only tier users
        # talk to; its saturation must surface there, monotonically in the
        # cap.  The violation rate, not completed-only latency, is the
        # observable: once timeouts dominate, the survivors are the fast ones.
        for worker_nodes, duration, caps, margin in self.STAIRCASES:
            staircase = [self._violation_pct(cap, worker_nodes, duration) for cap in caps]
            assert all(later >= earlier for earlier, later in zip(staircase, staircase[1:])), staircase
            assert staircase[-1] - staircase[0] > margin, staircase

    def test_internal_traffic_exists_and_is_separated(self):
        simulation = _app_simulation(16)
        summary = simulation.run(self.DURATION)
        assert summary.app is not None
        # frontend -> 1x api -> 2x db: three internal calls per user hit.
        assert summary.app.internal_requests > summary.app.ingress_requests
        # The user-facing accessors read the ingress block, never the
        # internal fan-out (no double-counting in reports).
        assert summary.user_requests == summary.app.ingress_requests
        assert summary.total_requests > summary.app.ingress_requests


# ----------------------------------------------------------------------
# Registries: workloads, apps, profiles, routing
# ----------------------------------------------------------------------
class TestWorkloadRegistry:
    def test_builtins_are_registered(self):
        assert set(registered_workloads()) >= {
            "cpu", "memory", "mixed", "network", "disk", "bitbrains",
        }
        assert "three-tier" in registered_apps()

    def test_unknown_names_fail_with_the_known_set(self):
        with pytest.raises(WorkloadError, match="unknown workload 'gpu'"):
            resolve_workload("gpu")
        with pytest.raises(WorkloadError, match="unknown application"):
            resolve_app("nope")
        with pytest.raises(WorkloadError, match="unknown profile"):
            resolve_profile("nope")

    def test_double_registration_needs_replace(self):
        factory, takes_burst = resolve_workload("cpu")
        with pytest.raises(WorkloadError, match="already registered"):
            register_workload("cpu", factory, takes_burst=takes_burst)
        # Idempotent re-registration with replace=True is the supported
        # override path (and leaves the table unchanged here).
        register_workload("cpu", factory, takes_burst=takes_burst, replace=True)
        assert resolve_workload("cpu") == (factory, takes_burst)

    def test_malformed_registrations_are_rejected(self):
        factory, _ = resolve_workload("cpu")
        for bad_name in (3, ""):
            with pytest.raises(WorkloadError, match="non-empty"):
                register_workload(bad_name, factory)  # type: ignore[arg-type]
            with pytest.raises(WorkloadError, match="non-empty"):
                register_app(bad_name, factory)  # type: ignore[arg-type]
        with pytest.raises(WorkloadError, match="callable"):
            register_workload("test-not-callable", "cpu")  # type: ignore[arg-type]
        with pytest.raises(WorkloadError, match="MicroserviceProfile"):
            register_profile("cpu_bound")  # type: ignore[arg-type]
        with pytest.raises(WorkloadError, match="non-empty"):
            register_profile(replace(CPU_BOUND, name=""))
        for names in (registered_workloads(), registered_apps(), registered_profiles()):
            assert list(names) == sorted(names)

    def test_app_factory_builds_an_app_bearing_spec(self):
        spec = resolve_app("three-tier")(burst="low", seed=0)
        assert spec.app is not None
        assert spec.app.name == "three-tier"
        assert spec.specs == ()


class TestRoutingRegistry:
    def test_builtins_and_default(self):
        assert set(registered_routings()) >= {
            "least_outstanding", "round_robin", "topology", "weighted_cpu",
        }
        assert DEFAULT_ROUTING == RoutingPolicy.WEIGHTED_CPU.value

    def test_resolution(self):
        assert resolve_routing("topology") is RoutingPolicy.TOPOLOGY
        # Already-resolved members pass through untouched.
        assert resolve_routing(RoutingPolicy.ROUND_ROBIN) is RoutingPolicy.ROUND_ROBIN
        with pytest.raises(ExperimentError, match="unknown routing policy"):
            resolve_routing("carrier-pigeon")

    def test_registration_guards(self):
        with pytest.raises(ExperimentError, match="already registered"):
            register_routing("round_robin", RoutingPolicy.ROUND_ROBIN)
        with pytest.raises(ExperimentError, match="RoutingPolicy member"):
            register_routing("bogus", "round_robin")

    def test_non_string_name_rejected_and_listing_survives(self):
        with pytest.raises(ExperimentError, match="non-empty"):
            register_routing(7, RoutingPolicy.ROUND_ROBIN)  # type: ignore[arg-type]
        names = registered_routings()
        assert list(names) == sorted(names)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliAppSurface:
    def test_run_accepts_app_and_routing(self):
        args = build_parser().parse_args(
            ["run", "--app", "three-tier", "--routing", "topology"]
        )
        assert args.workload is None
        assert args.app == "three-tier"
        assert args.routing == "topology"

    def test_routing_defaults_to_the_registry_default(self):
        args = build_parser().parse_args(["run", "cpu"])
        assert args.routing == DEFAULT_ROUTING

    def test_unknown_app_and_routing_are_parser_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--app", "nope"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "cpu", "--routing", "nope"])
