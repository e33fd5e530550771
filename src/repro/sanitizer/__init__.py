"""SimSan: an opt-in invariant sanitizer for the simulator.

The paper's results (Figs. 6-10) assume the simulated cluster never
violates physical invariants while the scaling algorithms mutate limits
mid-run.  This package checks that assumption at runtime, ASAN/TSAN
style — zero overhead when off, recording frozen violation evidence when
on:

* :class:`Sanitizer` — the hook protocol (engine step brackets + monitor
  view audits);
* :class:`SimSanitizer` — the recording implementation: conservation,
  ledger/view consistency, tick-aliasing write-set tracking, monotonic
  time and event-queue ordering;
* :class:`SanViolation` + the ``repro.san/1`` JSONL codec and the
  human ``render_san_report`` renderer.

Run the whole test suite under the sanitizer with
``pytest --simsan`` (the dedicated CI lane), or pass
``observe=Observe(sanitizer=SimSanitizer())`` to
:meth:`repro.Simulation.build`.
See ``docs/dev-tooling.md`` for the full check catalogue and the static
SAN/UNIT lint rules that enforce SimSan's preconditions.
"""

from repro.sanitizer.api import Sanitizer
from repro.sanitizer.export import (
    SAN_SCHEMA,
    parse_san_line,
    read_san_jsonl,
    render_san_report,
    violation_to_json_line,
    violations_to_jsonl,
    write_san_jsonl,
)
from repro.sanitizer.records import SanViolation, violation_from_dict, violation_to_dict
from repro.sanitizer.simsan import DOMAIN_WRITERS, SimSanitizer

__all__ = [
    "Sanitizer",
    "SimSanitizer",
    "DOMAIN_WRITERS",
    "SanViolation",
    "violation_to_dict",
    "violation_from_dict",
    "SAN_SCHEMA",
    "violation_to_json_line",
    "violations_to_jsonl",
    "write_san_jsonl",
    "parse_san_line",
    "read_san_jsonl",
    "render_san_report",
]
