"""The one static analyzer: one pass over the inputs, one catalogue, one report.

Usage::

    python -m repro.devtools                  # check src and examples
    python -m repro.devtools src/repro/sim    # check a subtree
    python -m repro.devtools --format json    # the repro.flow/3 report on stdout
    python -m repro.devtools --report BENCH_static_analysis.json --max-wall 3.4
    python -m repro.devtools --list-rules     # the rule catalogue
    hyscale-repro lint ...                    # the same options via the main CLI

The pass reads, parses and alias-resolves each input file once, builds
the call graph over the ``src/repro`` files among them, derives
reachability, effect summaries, determinism taint and registry
contracts, runs the call-graph rules, then tokenizes each file for its
``# lint: disable=RULE(reason)`` markers and runs the file rules.  Every
finding, of either kind, is silenced only by a reasoned marker on the
line it points to.

Exit status: 0 clean, 1 any unsilenced finding (or a blown ``--max-wall``
budget), 2 usage error (missing paths, unknown flags).

Timing is *injected*: :func:`run` passes ``time.perf_counter`` as the
timer, the library default is none, and the canonical report bytes never
depend on timing.  ``timings["total"]`` covers parsing through the
report; the per-file phase (tokenizing and the file rules) is timed on
its own, outside that total.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.devtools.flow.callgraph import build_call_graph
from repro.devtools.flow.contracts import check_contracts
from repro.devtools.flow.effects import EffectSummary, effects_of
from repro.devtools.flow.reachability import discover_roots, reachable_from
from repro.devtools.flow.rules import GRAPH_RULES
from repro.devtools.flow.taint import analyze_taint
from repro.devtools.rules import FILE_RULES, Program, Rule
from repro.devtools.source import (
    BAD_SUPPRESSION,
    Marker,
    SourceFile,
    Violation,
    load_source,
    parse_markers,
)

#: Version of the rule catalogue.  Bumped whenever a rule is added,
#: removed, or changes meaning, so consumers of the report can detect
#: incompatible rule sets.  "8": one catalogue for both rule kinds;
#: PAR003 folded into DET003, DET102 into DET002, the two UNIT002s into
#: one; the registration call-site rule removed (``NameRegistry.register``
#: checks every registration when its module loads).
CATALOGUE_VERSION = "8"

#: Schema tag of the report ("/3": one report for every rule, with the
#: suppressed findings and their reasons).
REPORT_SCHEMA = "repro.flow/3"

#: The catalogue: every rule the pass runs.
ALL_RULES: tuple[Rule, ...] = FILE_RULES + GRAPH_RULES

_GRAPH_RULE_IDS = frozenset(rule.id for rule in GRAPH_RULES)

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "venv", ".pytest_cache", ".benchmarks"})

#: Repo areas whose prefix anchors a logical (repo-relative) path.
_AREA_MARKERS = ("src/repro/", "tests/", "benchmarks/", "examples/")


def rule_catalog() -> dict[str, str]:
    """Rule ID -> one-line summary (the ``--list-rules`` payload)."""
    return {rule.id: rule.summary for rule in sorted(ALL_RULES, key=lambda r: r.id)}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def logical_path(path: Path, root: Path | None = None) -> str:
    """Repo-relative posix path used for rule scoping.

    Works from any CWD: prefers relativising against ``root``, then falls
    back to locating a known area marker (``src/repro/``, ``examples/`` …)
    inside the absolute path.
    """
    candidates: list[str] = []
    if root is not None:
        try:
            candidates.append(path.resolve().relative_to(root.resolve()).as_posix())
        except ValueError:
            pass
    candidates.append(path.as_posix())
    for candidate in candidates:
        for marker in _AREA_MARKERS:
            idx = candidate.find(marker)
            if idx == 0 or (idx > 0 and candidate[idx - 1] == "/"):
                return candidate[idx:]
    return candidates[0]


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    found: set[Path] = set()
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            found.add(path)
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    found.add(candidate)
    return sorted(found)


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class InventoryEntry:
    """One ranked allocation site on the step-reachable hot path."""

    rank: int
    function: str
    path: str
    line: int
    col: int
    kind: str
    loop_depth: int
    constant: bool


def build_inventory(
    step_reachable: frozenset[str], effects: dict[str, EffectSummary]
) -> tuple[InventoryEntry, ...]:
    """Rank every non-error-path allocation in step-reachable code.

    Deeper loop nesting ranks first (it multiplies per-step cost by the
    iteration count); ties break on path/line so the ranking is stable.
    """
    rows = sorted(
        (-site.loop_depth, effects[q].path, site.line, site.col, site.kind, q, site.constant)
        for q in step_reachable
        if q in effects
        for site in effects[q].allocations
        if not site.error_path
    )
    return tuple(
        InventoryEntry(index + 1, qualname, path, line, col, kind, -neg_depth, constant)
        for index, (neg_depth, path, line, col, kind, qualname, constant) in enumerate(rows)
    )


@dataclass(frozen=True)
class Analysis:
    """Everything one pass found: the program facts, the findings and the report."""

    program: Program
    files_checked: int
    #: Unsilenced findings, meta-rule findings included, sorted.
    violations: tuple[Violation, ...]
    #: Silenced findings with the reason of the marker that silenced each.
    suppressed: tuple[tuple[Violation, str], ...]
    inventory: tuple[InventoryEntry, ...]
    #: Phase label -> seconds; empty unless a ``timer`` was injected.
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when no finding is left unsilenced."""
        return not self.violations

    @property
    def by_rule(self) -> dict[str, int]:
        """Rule ID -> number of unsilenced findings, sorted by ID."""
        return dict(sorted(Counter(v.rule for v in self.violations).items()))

    def to_dict(self) -> dict[str, object]:
        """The canonical ``repro.flow/3`` payload."""
        program, taint = self.program, self.program.taint
        by_kind = Counter(source.kind for facts in taint.facts.values() for source in facts.sources)
        return {
            "schema": REPORT_SCHEMA,
            "catalogue_version": CATALOGUE_VERSION,
            "rules": rule_catalog(),
            "files_checked": self.files_checked,
            "graph": {
                "modules": len(program.graph.modules),
                "functions": len(program.graph.functions),
                "edges": program.graph.edge_count,
            },
            "roots": {
                "step": list(program.roots.step),
                "worker": list(program.roots.worker),
                "merge": list(program.roots.merge),
            },
            "reachable": {
                "step": len(program.step_reachable),
                "worker": len(program.worker_reachable),
                "merge": len(program.merge_reachable),
            },
            "hot_path_inventory": [asdict(e) for e in self.inventory],
            "tainted_path_inventory": [p.to_dict() for p in taint.paths],
            "taint_summary": {
                "sources": taint.source_count,
                "sources_by_kind": dict(sorted(by_kind.items())),
                "sources_killed_at_birth": taint.killed_count,
                "sanitizer_applications": dict(taint.sanitizer_applications),
                "sinks_present": list(taint.sinks_present),
                "tainted_paths": len(taint.paths),
            },
            "contract_census": program.contracts.census,
            "violations": [v.to_dict() for v in self.violations],
            "suppressed": [{**v.to_dict(), "reason": reason} for v, reason in self.suppressed],
            "summary": {
                "violations": len(self.violations),
                "suppressed": len(self.suppressed),
                "by_rule": self.by_rule,
            },
        }


def render_json(analysis: Analysis) -> str:
    """Serialize a report to its canonical byte-identical JSON text."""
    return json.dumps(analysis.to_dict(), indent=2) + "\n"


def render_text(analysis: Analysis) -> str:
    """Human-readable report: one line per finding plus a summary."""
    program, taint = analysis.program, analysis.program.taint
    lines = [v.render() for v in analysis.violations]
    lines.append(
        f"graph: {len(program.graph.functions)} functions, {program.graph.edge_count} edges; "
        f"step-reachable={len(program.step_reachable)} "
        f"worker-reachable={len(program.worker_reachable)} "
        f"merge-reachable={len(program.merge_reachable)}"
    )
    lines.append(f"hot-path inventory: {len(analysis.inventory)} allocation site(s)")
    lines.append(
        f"taint: {taint.source_count} source(s), {taint.killed_count} killed at birth, "
        f"{len(taint.sinks_present)} sink(s), {len(taint.paths)} tainted path(s)"
    )
    noun = "file" if analysis.files_checked == 1 else "files"
    suppressed = f"{len(analysis.suppressed)} suppressed"
    if analysis.violations:
        mix = ", ".join(f"{rule}={count}" for rule, count in analysis.by_rule.items())
        lines.append(
            f"{len(analysis.violations)} violation(s) in {analysis.files_checked} {noun} "
            f"({mix}); {suppressed}"
        )
    else:
        lines.append(f"clean: {analysis.files_checked} {noun} checked, 0 violations, {suppressed}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------
def _suppress(
    findings: Iterable[Violation],
    markers: dict[str, list[Marker]],
    judge_graph_markers: bool,
) -> tuple[list[Violation], list[tuple[Violation, str]]]:
    """Split findings into (reported, suppressed with reasons).  Reported
    also holds a ``LINT001`` for each marker that names a rule the
    catalogue lacks or silences nothing."""
    by_site = {(path, m.line, m.rule): m for path, marks in markers.items() for m in marks}
    used: set[tuple[str, int, str]] = set()
    reported: list[Violation] = []
    suppressed: list[tuple[Violation, str]] = []
    for v in findings:
        marker = by_site.get((v.path, v.line, v.rule))
        if marker is None:
            reported.append(v)
        else:
            suppressed.append((v, marker.reason))
            used.add((v.path, v.line, v.rule))
    known = {rule.id for rule in ALL_RULES}
    for (path, line, rule), m in sorted(by_site.items()):
        if rule not in known:
            message = f"suppression names {rule}, which the rule catalogue does not define"
        elif (path, line, rule) in used or (rule in _GRAPH_RULE_IDS and not judge_graph_markers):
            continue
        else:
            message = f"suppression of {rule} silences nothing on this line; delete it"
        reported.append(Violation(path, line, m.col, BAD_SUPPRESSION, message))
    return reported, suppressed


def analyze_sources(
    sources: Sequence[tuple[str, str]],
    timer: Callable[[], float] | None = None,
    judge_graph_markers: bool = True,
) -> Analysis:
    """Run the one pass over in-memory ``(logical_path, source)`` pairs.

    ``judge_graph_markers=False`` leaves markers for call-graph rules
    unjudged: over part of the package the call graph is partial, so a
    marker that silences nothing there may still be needed.
    """
    timings: dict[str, float] = {}
    last = timer() if timer is not None else 0.0

    def lap(label: str) -> None:
        nonlocal last
        if timer is not None:
            now = timer()
            timings[label] = round(now - last, 6)
            last = now

    files: list[SourceFile] = []
    meta: list[Violation] = []  # LINT00x findings, which no marker silences
    for path, text in sorted(sources):
        loaded = load_source(path, text)
        if isinstance(loaded, SourceFile):
            files.append(loaded)
        else:
            meta.append(loaded)
    lap("parse")
    graph = build_call_graph(files)
    lap("graph")
    roots = discover_roots(graph)
    step_reachable = reachable_from(graph, roots.step)
    worker_reachable = reachable_from(graph, roots.worker)
    merge_reachable = reachable_from(graph, roots.merge)
    lap("reachability")
    effects = {qualname: effects_of(fn) for qualname, fn in sorted(graph.functions.items())}
    lap("effects")
    taint = analyze_taint(graph)
    lap("taint")
    contracts = check_contracts(graph, taint)
    lap("contracts")
    program = Program(
        graph=graph,
        roots=roots,
        step_reachable=step_reachable,
        worker_reachable=worker_reachable,
        merge_reachable=merge_reachable,
        effects=effects,
        taint=taint,
        contracts=contracts,
    )
    findings = [v for f in files for rule in GRAPH_RULES for v in rule.run(f, program)]
    lap("rules")
    markers: dict[str, list[Marker]] = {}
    for f in files:
        markers[f.path], problems = parse_markers(f.source, f.path)
        meta += problems
        findings += [v for rule in FILE_RULES for v in rule.run(f, program)]
    lap("per_file")
    reported, suppressed = _suppress(set(findings), markers, judge_graph_markers)
    inventory = build_inventory(step_reachable, effects)
    lap("report")
    if timer is not None:
        timings["total"] = round(sum(t for label, t in timings.items() if label != "per_file"), 6)
    return Analysis(
        program=program,
        files_checked=len(sources),
        violations=tuple(sorted(meta + reported)),
        suppressed=tuple(sorted(suppressed)),
        inventory=inventory,
        timings=timings,
    )


def analyze_paths(
    paths: Sequence[str | Path],
    root: str | Path | None = None,
    timer: Callable[[], float] | None = None,
) -> Analysis:
    """Run the one pass over files/directories rooted at ``root`` (default: CWD).

    Markers for call-graph rules are judged only when the inputs cover
    the whole ``src/repro`` package.
    """
    root_path = Path(root) if root is not None else Path.cwd()
    requested = [Path(root_path, p).resolve() for p in paths]
    package = (root_path / "src" / "repro").resolve()
    whole_package = any(p == package or p in package.parents for p in requested)
    sources = [
        (logical_path(file, root_path), file.read_text(encoding="utf-8"))
        for file in iter_python_files(requested)
    ]
    return analyze_sources(sources, timer=timer, judge_graph_markers=whole_package)


def run(args: argparse.Namespace) -> int:
    """Run the analyzer for parsed command-line options; returns the exit status."""
    if args.list_rules:
        for rule_id, summary in rule_catalog().items():
            print(f"{rule_id}  {summary}")
        return 0
    root = Path(args.root) if args.root is not None else Path.cwd()
    missing = [str(Path(root, p)) for p in args.paths if not Path(root, p).exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    analysis = analyze_paths(args.paths, root=root, timer=time.perf_counter)
    if args.report is not None:
        payload = {**analysis.to_dict(), "timings": analysis.timings}
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    total = analysis.timings["total"]
    over_budget = args.max_wall is not None and total > args.max_wall
    if args.format == "json":
        print(render_json(analysis), end="")
    else:
        print(render_text(analysis))
        if over_budget:
            print(
                f"perf gate: analyzer took {total:.3f}s, budget {args.max_wall:.3f}s — exceeded",
                file=sys.stderr,
            )
        elif args.max_wall is not None:
            print(f"perf gate: {total:.3f}s <= {args.max_wall:.3f}s budget")
    return 1 if over_budget or not analysis.clean else 0
