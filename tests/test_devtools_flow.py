"""Tests for FlowLint (``repro.devtools.flow``).

A small fixture package — engine, worker, merge, and unit-convert modules
under synthetic ``src/repro/...`` logical paths — exercises the call
graph, reachability, effect summaries, every rule family, the baseline
audit, and the ``repro.flow/1`` report codec.  A meta-test then asserts
the real tree analyzes clean (the CI gate, asserted in-process),
mirroring ``test_devtools_lint.py``.
"""

import json
from pathlib import Path

import pytest

from repro.devtools.flow.analyze import (
    analyze_paths,
    analyze_sources,
    default_baseline,
    main,
)
from repro.devtools.flow.baseline import (
    BASELINE_SCHEMA,
    Baseline,
    BaselineEntry,
    BaselineError,
    apply_baseline,
    load_baseline,
)
from repro.devtools.flow.callgraph import build_call_graph
from repro.devtools.flow.contracts import PROTOCOLS, check_contracts, contract_summary
from repro.devtools.flow.effects import effects_of
from repro.devtools.flow.reachability import discover_roots, reachable_from
from repro.devtools.flow.report import FLOW_SCHEMA, render_flow_json
from repro.devtools.flow.rules import flow_rule_catalog

REPO_ROOT = Path(__file__).resolve().parents[1]

# ----------------------------------------------------------------------
# Fixture package: a miniature repro tree with deliberate violations
# ----------------------------------------------------------------------
ENGINE_SRC = """\
class Helper:
    def tick(self) -> None:
        labels = ["a", "b"]
        if labels[0] in ["a", "c"]:
            del labels


class Engine:
    def __init__(self) -> None:
        self.helper = Helper()

    def step(self) -> None:
        self.helper.tick()
"""

ACTOR_SRC = """\
class Probe:
    def on_step(self, clock: object) -> None:
        key = f"probe/{clock}"
        del key
"""

WORKER_SRC = """\
import os

COUNTER = {}


def run_shard_payload(payload: dict) -> dict:
    COUNTER["runs"] = 1
    os.environ["SEED"] = "1"
    return payload
"""

EXECUTOR_SRC = """\
class SweepExecutor:
    def _merge(self, results: list) -> list:
        seen = set(results)
        out = []
        for item in seen:
            out.append(item)
        return out
"""

RESULT_SRC = """\
def combine(names: list) -> list:
    return [n for n in set(names)]
"""

UNITS_SRC = """\
def push(rate_mbps: float) -> None:
    del rate_mbps


def as_mbit(value_mbit: float) -> float:
    return value_mbit


def go(size_mb: float, total: float) -> None:
    push(size_mb)
    chunk_mb = as_mbit(total)
    del chunk_mb
"""

# --- DetFlow fixtures: taint sources, sanitizers, sinks, contracts ----
SINK_SRC = """\
def span_to_json_line(span: dict) -> str:
    return "{}"
"""

TAINT_PIPE_SRC = '''\
import json
import time

from repro.obs.export import span_to_json_line


def sample_clock() -> float:
    return time.time()


def stamp(span: dict) -> dict:
    span["ts"] = sample_clock()
    return span


def emit_span(span: dict) -> str:
    return span_to_json_line(stamp(span))


def gather_tags() -> list:
    tags = {"b", "a"}
    out = []
    for tag in tags:
        out.append(tag)
    return out


def emit_tags(span: dict) -> str:
    span["tags"] = gather_tags()
    return span_to_json_line(span)


def total_weight() -> float:
    weights = {0.125, 0.5}
    return sum(weights)


def emit_total(span: dict) -> str:
    span["total"] = total_weight()
    return span_to_json_line(span)


def gather_quiet() -> list:
    quiet = {"y", "x"}
    out = []
    for tag in quiet:
        out.append(tag)
    return out


def emit_sorted_tags(span: dict) -> str:
    return span_to_json_line(sorted(gather_quiet()))


def gather_canon() -> list:
    keys = {"k2", "k1"}
    out = []
    for key in keys:
        out.append(key)
    return out


def emit_digest(span: dict) -> str:
    return span_to_json_line(json.dumps(gather_canon(), sort_keys=True))


def list_inputs(root) -> list:
    return sorted(root.rglob("*.py"))


def draw_scaled(streams) -> float:
    rng = streams.stream("pipe")
    return rng.random()
'''

RNG_ACTOR_SRC = """\
import random


class JitterProbe:
    def on_step(self, clock: object) -> None:
        self.noise = random.random()
"""

POLICY_BASE_SRC = """\
import abc


class AutoscalingPolicy(abc.ABC):
    @abc.abstractmethod
    def decide(self, observation: dict) -> int:
        ...
"""

CON_IMPL_SRC = """\
import random

from repro.core.policy import AutoscalingPolicy
from repro.core.registry import register_policy

HISTORY = []


class JitterPolicy(AutoscalingPolicy):
    def act(self, observation: dict) -> int:
        return int(random.random() * 3)


class Freeloader:
    def decide(self, observation: dict) -> int:
        return 0


register_policy("jitter", lambda config: JitterPolicy())
register_policy("free", Freeloader)
"""

CON_OK_SRC = """\
from repro.core.policy import AutoscalingPolicy


class StepPolicy(AutoscalingPolicy):
    def __init__(self, rng=None) -> None:
        self.rng = rng

    def decide(self, observation: dict) -> int:
        return 0
"""

FIXTURE_SOURCES = [
    ("src/repro/sim/engine.py", ENGINE_SRC),
    ("src/repro/sim/probe.py", ACTOR_SRC),
    ("src/repro/sim/rng_actor.py", RNG_ACTOR_SRC),
    ("src/repro/parallel/worker.py", WORKER_SRC),
    ("src/repro/parallel/executor.py", EXECUTOR_SRC),
    ("src/repro/parallel/result.py", RESULT_SRC),
    ("src/repro/netsim/convert.py", UNITS_SRC),
    ("src/repro/obs/export.py", SINK_SRC),
    ("src/repro/analysis/pipe.py", TAINT_PIPE_SRC),
    ("src/repro/core/policy.py", POLICY_BASE_SRC),
    ("src/repro/core/custom.py", CON_IMPL_SRC),
    ("src/repro/core/goodpolicy.py", CON_OK_SRC),
]


def fixture_analysis(baseline=None):
    if baseline is None:
        return analyze_sources(list(FIXTURE_SOURCES))
    return analyze_sources(list(FIXTURE_SOURCES), baseline)


def rules_of(analysis):
    return sorted({fv.rule for fv in analysis.report.unbaselined})


# ----------------------------------------------------------------------
# Call graph
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_collects_methods_and_functions(self):
        graph = build_call_graph(list(FIXTURE_SOURCES))
        assert "repro.sim.engine.Engine.step" in graph.functions
        assert "repro.parallel.worker.run_shard_payload" in graph.functions
        fn = graph.functions["repro.sim.engine.Engine.step"]
        assert fn.module == "repro.sim.engine"
        assert fn.cls == "Engine"
        assert fn.path == "src/repro/sim/engine.py"

    def test_resolves_attribute_call_through_constructor_type(self):
        graph = build_call_graph(list(FIXTURE_SOURCES))
        # ``self.helper = Helper()`` types the attribute, so
        # ``self.helper.tick()`` resolves precisely.
        assert "repro.sim.engine.Helper.tick" in graph.callees(
            "repro.sim.engine.Engine.step"
        )

    def test_bare_name_call_resolves_to_local_function(self):
        graph = build_call_graph(list(FIXTURE_SOURCES))
        assert "repro.netsim.convert.push" in graph.callees(
            "repro.netsim.convert.go"
        )

    def test_module_mutables_are_indexed(self):
        graph = build_call_graph(list(FIXTURE_SOURCES))
        module = graph.modules["repro.parallel.worker"]
        assert [name for name, _ in module.module_mutables] == ["COUNTER"]


# ----------------------------------------------------------------------
# Reachability
# ----------------------------------------------------------------------
class TestReachability:
    def test_step_roots_include_engine_step_and_on_step_actors(self):
        graph = build_call_graph(list(FIXTURE_SOURCES))
        roots = discover_roots(graph)
        assert "repro.sim.engine.Engine.step" in roots.step
        assert "repro.sim.probe.Probe.on_step" in roots.step

    def test_worker_and_merge_roots(self):
        graph = build_call_graph(list(FIXTURE_SOURCES))
        roots = discover_roots(graph)
        assert roots.worker == ("repro.parallel.worker.run_shard_payload",)
        assert "repro.parallel.executor.SweepExecutor._merge" in roots.merge
        assert "repro.parallel.result.combine" in roots.merge

    def test_step_reachability_is_transitive(self):
        graph = build_call_graph(list(FIXTURE_SOURCES))
        roots = discover_roots(graph)
        reachable = reachable_from(graph, roots.step)
        assert "repro.sim.engine.Helper.tick" in reachable
        # The worker never runs inside a step.
        assert "repro.parallel.worker.run_shard_payload" not in reachable


# ----------------------------------------------------------------------
# Effect summaries
# ----------------------------------------------------------------------
class TestEffects:
    def _summary(self, qualname):
        graph = build_call_graph(list(FIXTURE_SOURCES))
        return effects_of(graph.functions[qualname])

    def test_constant_list_literal_is_a_hoistable_allocation(self):
        summary = self._summary("repro.sim.engine.Helper.tick")
        kinds = {(s.kind, s.constant) for s in summary.allocations}
        assert ("list-literal", True) in kinds

    def test_list_membership_is_recorded(self):
        summary = self._summary("repro.sim.engine.Helper.tick")
        assert [m.detail for m in summary.memberships] == ["list literal"]

    def test_fstring_allocation_is_recorded(self):
        summary = self._summary("repro.sim.probe.Probe.on_step")
        assert "fstring" in {s.kind for s in summary.allocations}

    def test_environ_write_is_a_global_write(self):
        summary = self._summary("repro.parallel.worker.run_shard_payload")
        assert "os.environ" in {w.target for w in summary.global_writes}

    def test_set_iteration_is_recorded(self):
        summary = self._summary("repro.parallel.executor.SweepExecutor._merge")
        assert [s.context for s in summary.set_iterations] == ["for-loop"]

    def test_unit_signature_from_suffixes(self):
        summary = self._summary("repro.netsim.convert.push")
        assert "rate_mbps" in summary.param_units
        returning = self._summary("repro.netsim.convert.as_mbit")
        assert returning.return_unit is not None


# ----------------------------------------------------------------------
# Rule families
# ----------------------------------------------------------------------
class TestFlowRules:
    def test_fixture_trips_every_family(self):
        analysis = fixture_analysis()
        found = rules_of(analysis)
        for rule in (
            "HOT001",
            "HOT002",
            "HOT004",
            "PAR001",
            "PAR002",
            "PAR003",
            "UNIT002",
            "DET101",
            "DET102",
            "DET103",
            "DET104",
            "CON001",
            "CON002",
            "CON003",
        ):
            assert rule in found, f"{rule} missing from {found}"

    def test_violations_name_the_offending_function(self):
        analysis = fixture_analysis()
        par002 = [fv for fv in analysis.report.unbaselined if fv.rule == "PAR002"]
        assert par002
        assert all(
            fv.function == "repro.parallel.worker.run_shard_payload" for fv in par002
        )

    def test_unit002_crosses_the_call_boundary(self):
        analysis = fixture_analysis()
        unit = [fv for fv in analysis.report.unbaselined if fv.rule == "UNIT002"]
        messages = " / ".join(fv.message for fv in unit)
        assert "push" in messages  # param mismatch
        assert "as_mbit" in messages  # return mismatch

    def test_catalog_covers_all_families(self):
        catalog = flow_rule_catalog()
        assert set(catalog) == {
            "HOT001",
            "HOT002",
            "HOT003",
            "HOT004",
            "PAR001",
            "PAR002",
            "PAR003",
            "UNIT002",
            "DET101",
            "DET102",
            "DET103",
            "DET104",
            "CON001",
            "CON002",
            "CON003",
            "CON004",
        }
        assert all(summary for summary in catalog.values())


# ----------------------------------------------------------------------
# DetFlow: determinism taint (DET101–104)
# ----------------------------------------------------------------------
class TestDetFlowTaint:
    def _taint(self):
        return fixture_analysis().report.taint

    def _paths_for(self, rule):
        return [p for p in self._taint().paths if p.rule == rule]

    def test_det101_witness_chain_is_multi_hop(self):
        # time.time() in sample_clock -> stamp -> emit_span -> sink.
        paths = self._paths_for("DET101")
        assert paths
        path = next(
            p for p in paths if p.source_function.endswith("sample_clock")
        )
        assert path.kind == "wall-clock"
        assert path.source_detail == "time.time"
        assert path.sink == "repro.obs.export.span_to_json_line"
        assert path.sink_family == "repro.obs/1"
        assert path.hops >= 2
        assert path.chain == (
            "repro.analysis.pipe.sample_clock",
            "repro.analysis.pipe.stamp",
            "repro.analysis.pipe.emit_span",
            "repro.obs.export.span_to_json_line",
        )

    def test_det103_set_iteration_reaches_sink(self):
        paths = self._paths_for("DET103")
        assert any(
            p.source_function.endswith("gather_tags")
            and p.kind == "unordered-iter"
            for p in paths
        )

    def test_det104_float_accumulation_reaches_sink(self):
        paths = self._paths_for("DET104")
        assert any(
            p.source_function.endswith("total_weight")
            and p.kind == "float-accum-unordered"
            for p in paths
        )

    def test_det102_flags_step_reachable_ambient_rng(self):
        analysis = fixture_analysis()
        det102 = [fv for fv in analysis.report.unbaselined if fv.rule == "DET102"]
        assert [fv.function for fv in det102] == [
            "repro.sim.rng_actor.JitterProbe.on_step"
        ]
        assert "RngStreams" in det102[0].message

    def test_sort_barrier_in_caller_kills_the_path(self):
        # gather_quiet's only route to the sink is
        # ``span_to_json_line(sorted(gather_quiet()))`` — no path survives.
        taint = self._taint()
        assert not any(
            p.source_function.endswith("gather_quiet") for p in taint.paths
        )

    def test_canonical_json_in_caller_kills_the_path(self):
        # gather_canon is only reachable through
        # ``json.dumps(gather_canon(), sort_keys=True)``.
        taint = self._taint()
        assert not any(
            p.source_function.endswith("gather_canon") for p in taint.paths
        )

    def test_sorted_at_birth_kills_fs_enumeration(self):
        # ``sorted(root.rglob(...))`` never becomes a live source.
        taint = self._taint()
        facts = taint.facts["repro.analysis.pipe.list_inputs"]
        assert facts.sources == ()
        assert [k.kind for k in facts.killed] == ["fs-enumeration"]

    def test_rng_stream_derivation_is_a_sanitizer_not_a_source(self):
        taint = self._taint()
        facts = taint.facts["repro.analysis.pipe.draw_scaled"]
        assert facts.sources == ()
        assert facts.sanitizers.get("rng-stream", 0) == 1

    def test_every_sanitizer_class_is_applied_in_the_fixture(self):
        applications = self._taint().sanitizer_applications
        for cls in ("sort-barrier", "canonical-json", "rng-stream"):
            assert applications[cls] >= 1, applications

    def test_paths_are_ranked_and_deduplicated(self):
        taint = self._taint()
        assert [p.rank for p in taint.paths] == list(
            range(1, len(taint.paths) + 1)
        )
        keys = [(p.kind, p.source_function, p.sink) for p in taint.paths]
        assert len(keys) == len(set(keys))

    def test_violation_message_carries_the_witness_chain(self):
        analysis = fixture_analysis()
        det101 = [fv for fv in analysis.report.unbaselined if fv.rule == "DET101"]
        assert det101
        message = det101[0].message
        assert "canonical sink" in message
        assert " -> " in message  # the rendered chain


# ----------------------------------------------------------------------
# DetFlow: registry contracts (CON001–003)
# ----------------------------------------------------------------------
class TestContracts:
    def _findings(self):
        graph = build_call_graph(list(FIXTURE_SOURCES))
        return check_contracts(graph)

    def test_protocol_catalogue_names_two_registries(self):
        assert [spec.registry for spec in PROTOCOLS] == ["policy", "sampling"]

    def test_con001_flags_unimplemented_abstract_method(self):
        findings = self._findings()
        jitter = [
            f
            for f in findings
            if f.rule == "CON001" and f.cls.endswith("JitterPolicy")
        ]
        assert any("abstract method `decide`" in f.message for f in jitter)

    def test_con001_flags_registered_non_subclass(self):
        findings = self._findings()
        stranger = [
            f
            for f in findings
            if f.rule == "CON001" and f.cls.endswith("Freeloader")
        ]
        assert len(stranger) == 1
        assert "does not subclass" in stranger[0].message

    def test_con002_flags_module_mutable_per_implementation(self):
        findings = self._findings()
        con002 = [f for f in findings if f.rule == "CON002"]
        assert all("HISTORY" in f.message for f in con002)
        assert {f.cls for f in con002} == {
            "repro.core.custom.Freeloader",
            "repro.core.custom.JitterPolicy",
        }

    def test_con003_flags_ambient_rng_without_injectable_ctor(self):
        findings = self._findings()
        con003 = [f for f in findings if f.rule == "CON003"]
        assert [f.cls for f in con003] == ["repro.core.custom.JitterPolicy"]
        assert "ambient RNG" in con003[0].message

    def test_conforming_policy_with_rng_param_is_clean(self):
        findings = self._findings()
        assert not any(f.cls.endswith("StepPolicy") for f in findings)

    def test_discovery_counts_subclasses_and_registered_strangers(self):
        graph = build_call_graph(list(FIXTURE_SOURCES))
        # JitterPolicy + StepPolicy (subclasses) + Freeloader (register call).
        assert contract_summary(graph) == {"policy": 3}

    def test_abstract_base_is_not_an_implementation(self):
        findings = self._findings()
        assert not any(f.cls.endswith("AutoscalingPolicy") for f in findings)


# ----------------------------------------------------------------------
# DetFlow: call-site registry contracts (CON004)
# ----------------------------------------------------------------------
CALLSITE_REGISTRY_SRC = """\
def register_workload(name, factory, *, takes_burst=True, replace=False):
    pass
"""

CALLSITE_USE_SRC = """\
from repro.workloads.registry import register_workload


def cpu_factory():
    return None


register_workload("cpu", cpu_factory)
register_workload("cpu", cpu_factory)
register_workload("cpu", cpu_factory, replace=True)
register_workload("", cpu_factory)
register_workload("lit", "not-a-factory")
"""

CALLSITE_SOURCES = [
    ("src/repro/workloads/registry.py", CALLSITE_REGISTRY_SRC),
    ("src/repro/experiments/configs.py", CALLSITE_USE_SRC),
]


class TestCallSiteContracts:
    """CON004 judges ``register_workload``-style call sites, not classes."""

    def _findings(self):
        graph = build_call_graph(list(CALLSITE_SOURCES))
        return [f for f in check_contracts(graph) if f.rule == "CON004"]

    def test_duplicate_literal_name_without_replace(self):
        messages = [f.message for f in self._findings()]
        assert any("registered twice" in m for m in messages)
        # The replace=True re-registration is legal and reported nowhere.
        assert sum("registered twice" in m for m in messages) == 1

    def test_empty_name_and_literal_factory(self):
        messages = [f.message for f in self._findings()]
        assert any("non-empty string" in m for m in messages)
        assert any("'not-a-factory'" in m for m in messages)

    def test_census_counts_distinct_literal_names(self):
        graph = build_call_graph(list(CALLSITE_SOURCES))
        # "cpu" and "lit"; the empty name is invalid, not an entry.
        assert contract_summary(graph)["workload"] == 2

    def test_absent_registry_module_is_skipped(self):
        # The shared fixture tree has no repro.workloads.registry, so the
        # call-site registries stay out of its census (the exact pin in
        # test_discovery_counts_subclasses_and_registered_strangers).
        graph = build_call_graph(list(FIXTURE_SOURCES))
        assert "workload" not in contract_summary(graph)
        assert not any(f.rule == "CON004" for f in check_contracts(graph))


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
class TestBaseline:
    def _baseline(self, *entries):
        return Baseline(path=".flowlint-baseline.json", entries=tuple(entries))

    def test_matching_entry_suppresses_the_finding(self):
        baseline = self._baseline(
            BaselineEntry(
                rule="PAR002",
                function="repro.parallel.worker.run_shard_payload",
                reason="fixture: acknowledged seed plumbing",
            )
        )
        analysis = fixture_analysis(baseline)
        assert "PAR002" not in rules_of(analysis)
        assert any(fv.rule == "PAR002" for fv in analysis.report.suppressed)
        assert analysis.report.baseline_audit == ()

    def test_stale_entry_is_base001(self):
        baseline = self._baseline(
            BaselineEntry(rule="HOT001", function="repro.no.such.fn", reason="gone")
        )
        analysis = fixture_analysis(baseline)
        assert [v.rule for v in analysis.report.baseline_audit] == ["BASE001"]
        assert not analysis.clean

    def test_removed_rule_entry_is_base001(self):
        # A catalogue bump that drops a rule must fail the baseline loudly.
        baseline = self._baseline(
            BaselineEntry(
                rule="HOT999",
                function="repro.parallel.worker.run_shard_payload",
                reason="kept across a catalogue bump",
            )
        )
        analysis = fixture_analysis(baseline)
        audit = [v for v in analysis.report.baseline_audit if v.rule == "BASE001"]
        assert len(audit) == 1
        assert "removed or renamed" in audit[0].message
        assert "HOT999" in audit[0].message
        assert not analysis.clean

    def test_known_rule_with_vanished_function_is_stale_not_removed(self):
        baseline = self._baseline(
            BaselineEntry(rule="DET101", function="repro.no.such.fn", reason="gone")
        )
        analysis = fixture_analysis(baseline)
        audit = [v for v in analysis.report.baseline_audit if v.rule == "BASE001"]
        assert len(audit) == 1
        assert "removed or renamed" not in audit[0].message

    def test_missing_reason_is_base002(self):
        baseline = self._baseline(
            BaselineEntry(
                rule="PAR002",
                function="repro.parallel.worker.run_shard_payload",
                reason="  ",
            )
        )
        analysis = fixture_analysis(baseline)
        assert "BASE002" in [v.rule for v in analysis.report.baseline_audit]

    def test_apply_baseline_partitions_findings(self):
        analysis = fixture_analysis()
        findings = list(analysis.report.unbaselined)
        key = findings[0]
        baseline = self._baseline(
            BaselineEntry(rule=key.rule, function=key.function, reason="fixture")
        )
        unbaselined, suppressed, audit = apply_baseline(findings, baseline)
        assert key not in unbaselined
        assert key in suppressed
        assert audit == []

    def test_load_baseline_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"schema": "nope", "entries": []}))
        with pytest.raises(BaselineError):
            load_baseline(path)

    def test_load_baseline_rejects_unparseable_file(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text("{not json")
        with pytest.raises(BaselineError):
            load_baseline(path)

    def test_load_baseline_roundtrip(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(
            json.dumps(
                {
                    "schema": BASELINE_SCHEMA,
                    "entries": [
                        {"rule": "PAR001", "function": "repro.x.y", "reason": "why"}
                    ],
                }
            )
        )
        baseline = load_baseline(path)
        assert baseline.keys() == frozenset({("PAR001", "repro.x.y")})


# ----------------------------------------------------------------------
# Report codec
# ----------------------------------------------------------------------
class TestReport:
    def test_schema_and_sections(self):
        payload = json.loads(render_flow_json(fixture_analysis().report))
        assert payload["schema"] == FLOW_SCHEMA
        assert payload["catalogue_version"]
        assert set(payload["rules"]) == set(flow_rule_catalog())
        assert payload["graph"]["functions"] > 0
        assert payload["reachable"]["step"] >= 2

    def test_inventory_ranks_step_reachable_allocations(self):
        report = fixture_analysis().report
        assert report.inventory
        assert [e.rank for e in report.inventory] == list(
            range(1, len(report.inventory) + 1)
        )
        # Only step-reachable functions contribute.
        assert all("parallel" not in e.function for e in report.inventory)

    def test_report_is_byte_identical_across_runs(self):
        first = render_flow_json(fixture_analysis().report)
        second = render_flow_json(fixture_analysis().report)
        assert first == second

    def test_tainted_path_inventory_section(self):
        payload = json.loads(render_flow_json(fixture_analysis().report))
        inventory = payload["tainted_path_inventory"]
        assert inventory
        assert {row["rule"] for row in inventory} == {"DET101", "DET103", "DET104"}
        first = inventory[0]
        for key in (
            "rank",
            "rule",
            "kind",
            "source_function",
            "source_path",
            "source_line",
            "source_detail",
            "sink",
            "sink_family",
            "hops",
            "chain",
        ):
            assert key in first, key
        assert all(row["hops"] >= 1 for row in inventory)

    def test_taint_summary_section(self):
        payload = json.loads(render_flow_json(fixture_analysis().report))
        summary = payload["taint_summary"]
        assert summary["sources"] >= 4
        assert summary["sources_killed_at_birth"] >= 1
        assert "wall-clock" in summary["sources_by_kind"]
        assert "repro.obs.export.span_to_json_line" in summary["sinks_present"]
        assert summary["tainted_paths"] == len(payload["tainted_path_inventory"])

    def test_contracts_section(self):
        payload = json.loads(render_flow_json(fixture_analysis().report))
        contracts = payload["contracts"]
        assert contracts["implementations"] == {"policy": 3}
        assert contracts["findings"] >= 4  # CON001 x2, CON002 x2, CON003 x1


# ----------------------------------------------------------------------
# CLI (python -m repro.devtools.flow)
# ----------------------------------------------------------------------
class TestCli:
    def _write_fixture_tree(self, root: Path) -> None:
        for logical, source in FIXTURE_SOURCES:
            path = root / logical
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)

    def test_exit_one_on_findings(self, tmp_path, capsys):
        self._write_fixture_tree(tmp_path)
        assert main(["src/repro", "--root", str(tmp_path)]) == 1
        assert "PAR002" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert main(["no-such-dir", "--root", str(tmp_path)]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_exit_two_on_malformed_baseline(self, tmp_path, capsys):
        self._write_fixture_tree(tmp_path)
        (tmp_path / ".flowlint-baseline.json").write_text("{not json")
        assert main(["src/repro", "--root", str(tmp_path)]) == 2
        assert "baseline" in capsys.readouterr().err

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        self._write_fixture_tree(tmp_path)
        assert main(["src/repro", "--root", str(tmp_path), "--write-baseline"]) == 0
        capsys.readouterr()
        # Entries are written without reasons ("TODO: justify" placeholders
        # count as reasons), so the next run is clean.
        assert main(["src/repro", "--root", str(tmp_path)]) == 0
        assert "0 unbaselined" in capsys.readouterr().out

    def test_report_flag_writes_canonical_json(self, tmp_path, capsys):
        self._write_fixture_tree(tmp_path)
        report_path = tmp_path / "flow.json"
        main(["src/repro", "--root", str(tmp_path), "--report", str(report_path)])
        capsys.readouterr()
        payload = json.loads(report_path.read_text())
        assert payload["schema"] == FLOW_SCHEMA

    def test_list_rules_flag(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in flow_rule_catalog():
            assert rule_id in out

    def test_exit_two_on_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--no-such-flag"])
        assert excinfo.value.code == 2
        assert "no-such-flag" in capsys.readouterr().err

    def test_exit_one_with_tainted_path_inventory(self, tmp_path, capsys):
        # The seeded fixture tree must produce a non-empty inventory and
        # a failing exit status.
        self._write_fixture_tree(tmp_path)
        report_path = tmp_path / "flow.json"
        assert (
            main(["src/repro", "--root", str(tmp_path), "--report", str(report_path)])
            == 1
        )
        out = capsys.readouterr().out
        assert "tainted path(s)" in out
        assert "DET101" in out
        payload = json.loads(report_path.read_text())
        assert payload["tainted_path_inventory"]
        assert payload["taint_summary"]["tainted_paths"] > 0

    def test_report_artifact_includes_phase_timings(self, tmp_path, capsys):
        self._write_fixture_tree(tmp_path)
        report_path = tmp_path / "flow.json"
        main(["src/repro", "--root", str(tmp_path), "--report", str(report_path)])
        capsys.readouterr()
        payload = json.loads(report_path.read_text())
        timings = payload["timings"]
        for phase in (
            "parse_graph",
            "reachability",
            "effects",
            "taint",
            "contracts",
            "rules",
            "report",
            "total",
        ):
            assert phase in timings, phase
        assert timings["total"] >= 0.0

    def test_max_wall_gate_trips_on_zero_budget(self, tmp_path, capsys):
        self._write_fixture_tree(tmp_path)
        assert main(["src/repro", "--root", str(tmp_path), "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(["src/repro", "--root", str(tmp_path), "--max-wall", "0"]) == 1
        captured = capsys.readouterr()
        assert "perf gate" in captured.err
        assert "exceeded" in captured.err

    def test_max_wall_gate_passes_on_generous_budget(self, tmp_path, capsys):
        self._write_fixture_tree(tmp_path)
        assert main(["src/repro", "--root", str(tmp_path), "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(["src/repro", "--root", str(tmp_path), "--max-wall", "60"]) == 0
        assert "perf gate" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The real tree must analyze clean (the CI gate, asserted in-process)
# ----------------------------------------------------------------------
class TestRepositoryAnalyzesClean:
    def _analysis(self):
        baseline = default_baseline(REPO_ROOT)
        return analyze_paths(["src/repro"], root=REPO_ROOT, baseline=baseline)

    def test_src_repro_analyzes_clean(self):
        analysis = self._analysis()
        assert len(analysis.graph.functions) > 500  # the walker found the tree
        assert len(analysis.report.inventory) >= 10  # the ranked work-list exists
        assert analysis.clean, "\n" + "\n".join(
            v.render() for v in analysis.violations
        )

    def test_src_repro_has_no_tainted_paths(self):
        # The determinism pin: no nondeterminism source in the real tree
        # reaches a canonical codec.  Any regression shows up as a ranked
        # witness chain here before it shows up as flaky artifact bytes.
        taint = self._analysis().report.taint
        assert taint is not None
        assert taint.paths == (), [p.to_dict() for p in taint.paths]
        # All five artifact codecs plus the derived keys are in the graph.
        assert len(taint.sinks_present) >= 20

    def test_src_repro_registry_contracts_hold(self):
        analysis = self._analysis()
        assert analysis.report.contracts == (), analysis.report.contracts
        summary = contract_summary(analysis.graph)
        # The nine shipped policies and both sampling controllers are all
        # discovered.
        assert summary["policy"] >= 9
        assert summary["sampling"] >= 2
        # Call-site registries: the six CLI workloads, the three-tier app,
        # and the routing table (built-ins are enum members, not call
        # sites, so the routing census counts extensions only).
        assert summary["workload"] >= 6
        assert summary["app"] >= 1
        assert summary["routing"] >= 0
