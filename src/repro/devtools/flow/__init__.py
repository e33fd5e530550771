"""FlowLint: interprocedural call-graph & effect analysis over ``src/repro``.

Where :mod:`repro.devtools.rules` checks one statement at a time, this
subpackage reasons about the *whole program*:

* :mod:`~repro.devtools.flow.callgraph` parses every module under
  ``src/repro`` into a module-resolved call graph — ``self`` dispatch,
  attribute-type inference from ``__init__``/dataclass fields, import
  aliasing, and a class-hierarchy fallback that resolves duck-typed
  protocol calls (``actor.on_step(...)`` reaches every actor).
* :mod:`~repro.devtools.flow.reachability` computes which functions can
  execute inside :meth:`Engine.step` (the hot path), inside
  :func:`run_shard_payload` (the process-pool worker), and inside the
  sweep merge.
* :mod:`~repro.devtools.flow.effects` summarises each function's effects:
  allocations (literals, comprehensions, closures, string formatting),
  O(n) list membership, repeated deep attribute chains, global /
  ``os.environ`` writes, and unordered set iteration.
* :mod:`~repro.devtools.flow.taint` (DetFlow) propagates determinism
  taint from catalogued nondeterminism sources (wall clock, ambient RNG,
  uuid, object identity, environment reads, filesystem enumeration,
  unordered iteration, order-dependent float accumulation) along the
  call graph into the canonical byte-stable sinks, killing it at
  catalogued sanitizers (``sorted``, canonical JSON, ``RngStreams``
  derivation), and emits ranked source→sink witness chains.
* :mod:`~repro.devtools.flow.contracts` statically checks every
  implementation registered through ``register_policy`` /
  ``register_sampling_policy`` against its protocol (CON001–003), and
  every ``register_workload`` / ``register_app`` / ``register_routing``
  call site against the call-site contract (CON004).
* :mod:`~repro.devtools.flow.rules` turns those analyses into the
  HOT / PAR / DET1xx / CON rule families plus interprocedural UNIT002,
  and :mod:`~repro.devtools.flow.baseline` applies the
  reasoned-suppression baseline (``.flowlint-baseline.json``).
* :mod:`~repro.devtools.flow.report` encodes the canonical
  ``repro.flow/2`` JSON report: the ranked hot-path allocation inventory
  (the work-list for the vectorization effort, ROADMAP item 1) and the
  ranked tainted-path inventory with full witness chains.

Entry points: ``hyscale-repro analyze``, ``hyscale-repro lint --flow``,
``python -m repro.devtools.flow``, and ``make analyze``.
"""

from __future__ import annotations

from repro.devtools.flow.analyze import (
    FlowAnalysis,
    analyze_paths,
    analyze_sources,
    default_baseline,
    known_rule_ids,
    main,
)
from repro.devtools.flow.baseline import Baseline, BaselineEntry, load_baseline
from repro.devtools.flow.callgraph import CallGraph, FunctionInfo, build_call_graph
from repro.devtools.flow.contracts import (
    CALLSITE_REGISTRIES,
    PROTOCOLS,
    CallSiteSpec,
    ContractFinding,
    ProtocolSpec,
    check_contracts,
)
from repro.devtools.flow.effects import AllocationSite, EffectSummary, effects_of
from repro.devtools.flow.reachability import Roots, discover_roots, reachable_from
from repro.devtools.flow.report import FLOW_SCHEMA, FlowReport, render_flow_json
from repro.devtools.flow.taint import (
    SINKS,
    TaintAnalysis,
    TaintedPath,
    analyze_taint,
    taint_facts_of,
)

__all__ = [
    "CALLSITE_REGISTRIES",
    "FLOW_SCHEMA",
    "PROTOCOLS",
    "SINKS",
    "AllocationSite",
    "Baseline",
    "BaselineEntry",
    "CallGraph",
    "CallSiteSpec",
    "ContractFinding",
    "EffectSummary",
    "FlowAnalysis",
    "FlowReport",
    "FunctionInfo",
    "ProtocolSpec",
    "Roots",
    "TaintAnalysis",
    "TaintedPath",
    "analyze_paths",
    "analyze_sources",
    "analyze_taint",
    "build_call_graph",
    "check_contracts",
    "default_baseline",
    "discover_roots",
    "effects_of",
    "known_rule_ids",
    "load_baseline",
    "main",
    "reachable_from",
    "render_flow_json",
    "taint_facts_of",
]
