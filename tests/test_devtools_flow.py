"""Tests for the call-graph half of the static analyzer (``repro.devtools.flow``).

A small fixture package — engine, worker, merge, and unit-convert modules
under synthetic ``src/repro/...`` logical paths — exercises the call
graph, reachability, effect summaries, every call-graph rule family,
suppression markers on call-graph findings, and the ``repro.flow/3``
report.  A meta-test then asserts the real tree analyzes clean (the CI
gate, asserted in-process), mirroring ``test_devtools_lint.py``.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.devtools import main
from repro.devtools.analyzer import (
    GRAPH_RULES,
    REPORT_SCHEMA,
    analyze_paths,
    analyze_sources,
    render_json,
    rule_catalog,
)
from repro.devtools.flow.callgraph import build_call_graph
from repro.devtools.flow.contracts import PROTOCOLS, check_contracts
from repro.devtools.flow.effects import effects_of, unit_signature
from repro.devtools.flow.reachability import (
    MERGE_ROOT_MODULES,
    MERGE_ROOT_QUALNAMES,
    STEP_ROOT_QUALNAMES,
    WORKER_ROOT_QUALNAMES,
    discover_roots,
    reachable_from,
)
from repro.devtools.flow.taint import SINKS, analyze_taint
from repro.devtools.source import load_source

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

# --- Taint fixtures: sources, sanitizers, sinks, contracts -----------
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


def parsed(sources):
    return [load_source(path, source) for path, source in sources]


def fixture_graph():
    return build_call_graph(parsed(FIXTURE_SOURCES))


def fixture_analysis(*extra):
    return analyze_sources([*FIXTURE_SOURCES, *extra])


def rules_of(analysis):
    return sorted({v.rule for v in analysis.violations})


# ----------------------------------------------------------------------
# Call graph
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_collects_methods_and_functions(self):
        graph = fixture_graph()
        assert "repro.sim.engine.Engine.step" in graph.functions
        assert "repro.parallel.worker.run_shard_payload" in graph.functions
        fn = graph.functions["repro.sim.engine.Engine.step"]
        assert fn.module == "repro.sim.engine"
        assert fn.cls == "Engine"
        assert fn.path == "src/repro/sim/engine.py"

    def test_resolves_attribute_call_through_constructor_type(self):
        graph = fixture_graph()
        # ``self.helper = Helper()`` types the attribute, so
        # ``self.helper.tick()`` resolves precisely.
        assert "repro.sim.engine.Helper.tick" in graph.callees(
            "repro.sim.engine.Engine.step"
        )

    def test_bare_name_call_resolves_to_local_function(self):
        graph = fixture_graph()
        assert "repro.netsim.convert.push" in graph.callees(
            "repro.netsim.convert.go"
        )

    def test_module_mutables_are_indexed(self):
        graph = fixture_graph()
        module = graph.modules["repro.parallel.worker"]
        assert [name for name, _ in module.module_mutables] == ["COUNTER"]


# ----------------------------------------------------------------------
# Reachability
# ----------------------------------------------------------------------
class TestReachability:
    def test_step_roots_include_engine_step_and_on_step_actors(self):
        roots = discover_roots(fixture_graph())
        assert "repro.sim.engine.Engine.step" in roots.step
        assert "repro.sim.probe.Probe.on_step" in roots.step

    def test_worker_and_merge_roots(self):
        roots = discover_roots(fixture_graph())
        assert roots.worker == ("repro.parallel.worker.run_shard_payload",)
        assert "repro.parallel.executor.SweepExecutor._merge" in roots.merge
        assert "repro.parallel.result.combine" in roots.merge

    def test_step_reachability_is_transitive(self):
        graph = fixture_graph()
        reachable = reachable_from(graph, discover_roots(graph).step)
        assert "repro.sim.engine.Helper.tick" in reachable
        # The worker never runs inside a step.
        assert "repro.parallel.worker.run_shard_payload" not in reachable


# ----------------------------------------------------------------------
# Effect summaries
# ----------------------------------------------------------------------
class TestEffects:
    def _summary(self, qualname):
        return effects_of(fixture_graph().functions[qualname])

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

    def test_unit_signature_from_suffixes(self):
        graph = fixture_graph()
        params, param_units, _ = unit_signature(graph.functions["repro.netsim.convert.push"].node)
        assert params == ("rate_mbps",)
        assert param_units == {"rate_mbps": "Mbit"}
        *_, return_unit = unit_signature(graph.functions["repro.netsim.convert.as_mbit"].node)
        assert return_unit == "Mbit"


# ----------------------------------------------------------------------
# Rule families
# ----------------------------------------------------------------------
#: File-rule triggers, so the fixture tree trips every rule in the catalogue.
FILE_RULE_SOURCES = [
    (
        "src/repro/telemetry/stamp.py",
        "import time\n\n\n"
        "def flush(registry: object, now: float) -> float:\n"
        "    registry.capture(now)\n"
        "    return time.time()\n",
    ),
    (
        "src/repro/cluster/cache.py",
        "class Cache:\n"
        "    entries = []\n\n"
        "    def to_mib(self, n_bytes: float) -> float:\n"
        "        return n_bytes / 1048576\n\n"
        "    def same(self, cpu_request: float, other: float) -> bool:\n"
        "        return cpu_request == other\n\n"
        "    def poke(self, view: object) -> None:\n"
        "        object.__setattr__(view, 'label', 'x')\n\n"
        "    def on_step(self, clock):\n"
        "        total = self.node.rate + self.node.rate + self.node.rate + self.node.rate\n"
        "        del total\n",
    ),
]


class TestFlowRules:
    def test_fixture_trips_every_family(self):
        found = rules_of(fixture_analysis())
        for rule in (
            "HOT001",
            "HOT002",
            "HOT004",
            "PAR001",
            "PAR002",
            "UNIT002",
            "DET002",
            "DET003",
            "DET101",
            "DET103",
            "DET104",
            "CON001",
            "CON002",
            "CON003",
        ):
            assert rule in found, f"{rule} missing from {found}"

    def test_fixture_trips_every_rule_in_the_catalogue(self):
        found = rules_of(fixture_analysis(*FILE_RULE_SOURCES))
        assert set(rule_catalog()) <= set(found), sorted(set(rule_catalog()) - set(found))

    def test_violations_name_the_offending_function(self):
        par002 = [v for v in fixture_analysis().violations if v.rule == "PAR002"]
        assert par002
        assert all(v.function == "repro.parallel.worker.run_shard_payload" for v in par002)

    def test_unit002_crosses_the_call_boundary(self):
        unit = [v for v in fixture_analysis().violations if v.rule == "UNIT002"]
        messages = " / ".join(v.message for v in unit)
        assert "push" in messages  # param mismatch
        assert "as_mbit" in messages  # return mismatch

    def test_unit002_flags_both_probes(self):
        # One implementation: an argument crossing into another module's
        # differently-suffixed parameter, and a mixed assignment inside a
        # function, are both UNIT002.
        analysis = analyze_sources(
            [
                ("src/repro/netsim/links.py", "def push(rate_mbps: float) -> None:\n    del rate_mbps\n"),
                (
                    "src/repro/netsim/shaper.py",
                    "from repro.netsim.links import push\n\n\n"
                    "def go(size_mb: float, rate_mbps: float) -> float:\n"
                    "    push(size_mb)\n"
                    "    total_mb = rate_mbps\n"
                    "    return total_mb\n",
                ),
            ]
        )
        unit = [(v.path, v.line) for v in analysis.violations if v.rule == "UNIT002"]
        assert unit == [("src/repro/netsim/shaper.py", 5), ("src/repro/netsim/shaper.py", 6)]

    def test_det003_flags_set_iteration_in_merge_code(self):
        # The merge root's set-ordered loop and the result module's set
        # comprehension source are both DET003 findings.
        det003 = {(v.path, v.line) for v in fixture_analysis().violations if v.rule == "DET003"}
        assert ("src/repro/parallel/executor.py", 5) in det003
        assert ("src/repro/parallel/result.py", 2) in det003

    def test_catalog_covers_all_families(self):
        assert {rule.id for rule in GRAPH_RULES} == {
            "HOT001",
            "HOT002",
            "HOT003",
            "HOT004",
            "PAR001",
            "PAR002",
            "DET101",
            "DET103",
            "DET104",
            "CON001",
            "CON002",
            "CON003",
        }
        assert all(rule.summary for rule in GRAPH_RULES)


# ----------------------------------------------------------------------
# Determinism taint (DET101/103/104)
# ----------------------------------------------------------------------
class TestDetFlowTaint:
    def _taint(self):
        return fixture_analysis().program.taint

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

    def test_det002_flags_step_reachable_ambient_rng(self):
        det002 = [v for v in fixture_analysis().violations if v.rule == "DET002"]
        assert ("src/repro/sim/rng_actor.py", 6) in {(v.path, v.line) for v in det002}
        assert all("RngStreams" in v.message for v in det002)

    def test_det002_flags_an_unseeded_draw_in_the_rng_module(self):
        # An unseeded draw in sim/rng.py reached from Engine.step: the rng
        # module is exempt only for seeded construction.
        rng_src = (
            "import numpy as np\n\n\n"
            "class RngStreams:\n"
            "    def stream(self, entropy: list) -> object:\n"
            "        return np.random.default_rng(np.random.SeedSequence(entropy))\n\n"
            "    def jitter(self) -> float:\n"
            "        return float(np.random.random())\n"
        )
        engine_src = (
            "from repro.sim.rng import RngStreams\n\n\n"
            "class Engine:\n"
            "    def __init__(self) -> None:\n"
            "        self.rng = RngStreams()\n\n"
            "    def step(self) -> float:\n"
            "        return self.rng.jitter()\n"
        )
        analysis = analyze_sources(
            [("src/repro/sim/rng.py", rng_src), ("src/repro/sim/engine.py", engine_src)]
        )
        assert "repro.sim.rng.RngStreams.jitter" in analysis.program.step_reachable
        det002 = [(v.path, v.line) for v in analysis.violations if v.rule == "DET002"]
        assert det002 == [("src/repro/sim/rng.py", 9)]

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
        det101 = [v for v in fixture_analysis().violations if v.rule == "DET101"]
        assert det101
        message = det101[0].message
        assert "canonical sink" in message
        assert " -> " in message  # the rendered chain


# ----------------------------------------------------------------------
# Registry contracts (CON001–003)
# ----------------------------------------------------------------------
class TestContracts:
    def _contracts(self):
        graph = fixture_graph()
        return check_contracts(graph, analyze_taint(graph))

    def _findings(self):
        return self._contracts().findings

    def test_protocol_catalogue_names_two_registries(self):
        assert [spec.registry for spec in PROTOCOLS] == ["policy", "sampling"]

    def test_con001_flags_unimplemented_abstract_method(self):
        jitter = [
            f
            for f in self._findings()
            if f.rule == "CON001" and f.function.endswith("JitterPolicy")
        ]
        assert any("abstract method `decide`" in f.message for f in jitter)

    def test_con001_flags_registered_non_subclass(self):
        stranger = [
            f
            for f in self._findings()
            if f.rule == "CON001" and f.function.endswith("Freeloader")
        ]
        assert len(stranger) == 1
        assert "does not subclass" in stranger[0].message

    def test_con002_flags_module_mutable_per_implementation(self):
        con002 = [f for f in self._findings() if f.rule == "CON002"]
        assert all("HISTORY" in f.message for f in con002)
        assert {f.function for f in con002} == {
            "repro.core.custom.Freeloader",
            "repro.core.custom.JitterPolicy",
        }

    def test_con003_flags_ambient_rng_without_injectable_ctor(self):
        con003 = [f for f in self._findings() if f.rule == "CON003"]
        assert [f.function for f in con003] == ["repro.core.custom.JitterPolicy"]
        assert "ambient RNG" in con003[0].message

    def test_conforming_policy_with_rng_param_is_clean(self):
        assert not any(f.function.endswith("StepPolicy") for f in self._findings())

    def test_discovery_counts_subclasses_and_registered_strangers(self):
        # JitterPolicy + StepPolicy (subclasses) + Freeloader (register call).
        assert self._contracts().census == {"policy": 3}

    def test_abstract_base_is_not_an_implementation(self):
        assert not any(f.function.endswith("AutoscalingPolicy") for f in self._findings())


# ----------------------------------------------------------------------
# Suppression markers on call-graph findings
# ----------------------------------------------------------------------
def _with_worker_marker(marker):
    lines = WORKER_SRC.split("\n")
    environ = next(i for i, line in enumerate(lines) if "os.environ" in line)
    lines[environ] += f"  {marker}"
    worker = "\n".join(lines)
    return [(path, worker if path == "src/repro/parallel/worker.py" else source) for path, source in FIXTURE_SOURCES]


class TestMarkers:
    def test_marker_silences_a_call_graph_finding(self):
        analysis = analyze_sources(_with_worker_marker("# lint: disable=PAR002(fixture: seed plumbing)"))
        assert "PAR002" not in rules_of(analysis)
        assert [(v.rule, reason) for v, reason in analysis.suppressed] == [
            ("PAR002", "fixture: seed plumbing")
        ]
        assert "LINT001" not in rules_of(analysis)

    def test_marker_on_the_wrong_line_silences_nothing_and_is_reported(self):
        lines = WORKER_SRC.split("\n")
        lines[0] += "  # lint: disable=PAR002(wrong line)"
        sources = [
            (path, "\n".join(lines) if path == "src/repro/parallel/worker.py" else source)
            for path, source in FIXTURE_SOURCES
        ]
        analysis = analyze_sources(sources)
        assert "PAR002" in rules_of(analysis)
        unused = [v for v in analysis.violations if v.rule == "LINT001"]
        assert [(v.path, v.line) for v in unused] == [("src/repro/parallel/worker.py", 1)]
        assert "silences nothing" in unused[0].message

    def test_marker_for_a_known_rule_that_silences_nothing_is_unused_not_unknown(self):
        # DET101 is in the catalogue but does not fire on the environ line.
        analysis = analyze_sources(_with_worker_marker("# lint: disable=DET101(no such path)"))
        assert "PAR002" in rules_of(analysis)
        unused = [v for v in analysis.violations if v.rule == "LINT001"]
        assert len(unused) == 1
        assert "DET101" in unused[0].message and "silences nothing" in unused[0].message
        assert "does not define" not in unused[0].message

    def test_marker_naming_a_removed_rule_is_reported(self):
        analysis = analyze_sources(
            _with_worker_marker("# lint: disable=PAR002(seed plumbing), PAR003(gone)")
        )
        unknown = [v for v in analysis.violations if v.rule == "LINT001"]
        assert len(unknown) == 1
        assert "PAR003" in unknown[0].message and "does not define" in unknown[0].message

    def test_marker_without_reason_is_lint001_and_silences_nothing(self):
        analysis = analyze_sources(_with_worker_marker("# lint: disable=PAR002"))
        assert {"LINT001", "PAR002"} <= set(rules_of(analysis))

    def test_suppressed_findings_keep_their_reasons_in_the_report(self):
        analysis = analyze_sources(_with_worker_marker("# lint: disable=PAR002(fixture: seed plumbing)"))
        payload = json.loads(render_json(analysis))
        assert payload["summary"]["suppressed"] == 1
        (entry,) = payload["suppressed"]
        assert entry["rule"] == "PAR002"
        assert entry["function"] == "repro.parallel.worker.run_shard_payload"
        assert entry["reason"] == "fixture: seed plumbing"

    def test_call_graph_markers_are_judged_only_over_the_whole_package(self, tmp_path):
        for logical, source in _with_worker_marker("# lint: disable=PAR002(seed plumbing)"):
            path = tmp_path / logical
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
        # Without the rest of the package the worker is no root, so the
        # marker silences nothing yet is not reported.
        partial = analyze_paths(["src/repro/parallel/worker.py"], root=tmp_path)
        assert "LINT001" not in rules_of(partial)
        assert analyze_paths(["src"], root=tmp_path).suppressed


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
class TestReport:
    def test_schema_and_sections(self):
        payload = json.loads(render_json(fixture_analysis()))
        assert payload["schema"] == REPORT_SCHEMA == "repro.flow/3"
        assert payload["catalogue_version"]
        assert set(payload["rules"]) == set(rule_catalog())
        assert payload["files_checked"] == len(FIXTURE_SOURCES)
        assert payload["graph"]["functions"] > 0
        assert payload["reachable"]["step"] >= 2

    def test_inventory_ranks_step_reachable_allocations(self):
        inventory = fixture_analysis().inventory
        assert inventory
        assert [e.rank for e in inventory] == list(range(1, len(inventory) + 1))
        # Only step-reachable functions contribute.
        assert all("parallel" not in e.function for e in inventory)

    def test_report_is_byte_identical_across_runs(self):
        assert render_json(fixture_analysis()) == render_json(fixture_analysis())

    def test_tainted_path_inventory_section(self):
        payload = json.loads(render_json(fixture_analysis()))
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
        payload = json.loads(render_json(fixture_analysis()))
        summary = payload["taint_summary"]
        assert summary["sources"] >= 4
        assert summary["sources_killed_at_birth"] >= 1
        assert "wall-clock" in summary["sources_by_kind"]
        assert "repro.obs.export.span_to_json_line" in summary["sinks_present"]
        assert summary["tainted_paths"] == len(payload["tainted_path_inventory"])

    def test_contracts_section(self):
        payload = json.loads(render_json(fixture_analysis()))
        assert payload["contract_census"] == {"policy": 3}
        by_rule = payload["summary"]["by_rule"]
        # CON001 x2, CON002 x2, CON003 x1
        assert by_rule["CON001"] + by_rule["CON002"] + by_rule["CON003"] >= 4


# ----------------------------------------------------------------------
# CLI (python -m repro.devtools)
# ----------------------------------------------------------------------
class TestCli:
    def _write_tree(self, root: Path, sources=FIXTURE_SOURCES) -> None:
        for logical, source in sources:
            path = root / logical
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)

    def test_exit_one_on_findings(self, tmp_path, capsys):
        self._write_tree(tmp_path)
        assert main(["src/repro", "--root", str(tmp_path)]) == 1
        assert "PAR002" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert main(["no-such-dir", "--root", str(tmp_path)]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_report_flag_writes_canonical_json(self, tmp_path, capsys):
        self._write_tree(tmp_path)
        report_path = tmp_path / "flow.json"
        main(["src/repro", "--root", str(tmp_path), "--report", str(report_path)])
        capsys.readouterr()
        payload = json.loads(report_path.read_text())
        assert payload["schema"] == REPORT_SCHEMA

    def test_list_rules_flag(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in rule_catalog():
            assert rule_id in out

    def test_exit_two_on_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--no-such-flag"])
        assert excinfo.value.code == 2
        assert "no-such-flag" in capsys.readouterr().err

    def test_exit_one_with_tainted_path_inventory(self, tmp_path, capsys):
        # The seeded fixture tree must produce a non-empty inventory and
        # a failing exit status.
        self._write_tree(tmp_path)
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
        self._write_tree(tmp_path)
        report_path = tmp_path / "flow.json"
        main(["src/repro", "--root", str(tmp_path), "--report", str(report_path)])
        capsys.readouterr()
        timings = json.loads(report_path.read_text())["timings"]
        timed = ("parse", "graph", "reachability", "effects", "taint", "contracts", "rules", "report")
        for phase in (*timed, "per_file", "total"):
            assert phase in timings, phase
        # The per-file phase sits outside the gated total.
        assert timings["total"] == pytest.approx(sum(timings[p] for p in timed), abs=1e-5)

    def test_max_wall_gate_trips_on_zero_budget(self, tmp_path, capsys):
        self._write_tree(tmp_path, [("src/repro/sim/ok.py", "X: int = 1\n")])
        assert main(["src/repro", "--root", str(tmp_path), "--max-wall", "0"]) == 1
        captured = capsys.readouterr()
        assert "perf gate" in captured.err
        assert "exceeded" in captured.err

    def test_max_wall_gate_passes_on_generous_budget(self, tmp_path, capsys):
        self._write_tree(tmp_path, [("src/repro/sim/ok.py", "X: int = 1\n")])
        assert main(["src/repro", "--root", str(tmp_path), "--max-wall", "60"]) == 0
        assert "perf gate" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The real tree must analyze clean (the CI gate, asserted in-process)
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=1)
def _real_tree():
    return analyze_paths(["src/repro"], root=REPO_ROOT)


class TestRepositoryAnalyzesClean:
    def test_src_repro_analyzes_clean(self):
        analysis = _real_tree()
        assert len(analysis.program.graph.functions) > 500  # the walker found the tree
        assert len(analysis.inventory) >= 10  # the ranked work-list exists
        assert analysis.clean, "\n" + "\n".join(v.render() for v in analysis.violations)

    def test_src_repro_has_no_tainted_paths(self):
        # The determinism pin: no nondeterminism source in the real tree
        # reaches a canonical codec.  Any regression shows up as a ranked
        # witness chain here before it shows up as flaky artifact bytes.
        program = _real_tree().program
        assert program.taint.paths == (), [p.to_dict() for p in program.taint.paths]
        # Every catalogued root and sink still names something in the tree:
        # a rename must not silently switch a rule family off.
        graph = program.graph
        for qualname in (*STEP_ROOT_QUALNAMES, *WORKER_ROOT_QUALNAMES, *MERGE_ROOT_QUALNAMES):
            assert qualname in graph.functions, qualname
        for module in MERGE_ROOT_MODULES:
            assert module in graph.modules, module
        assert program.taint.sinks_present == tuple(sorted(SINKS))

    def test_src_repro_registry_contracts_hold(self):
        program = _real_tree().program
        assert program.contracts.findings == (), program.contracts.findings
        # The nine shipped policies and both sampling controllers are all
        # discovered.
        assert program.contracts.census["policy"] >= 9
        assert program.contracts.census["sampling"] >= 2
