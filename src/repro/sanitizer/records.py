"""Frozen violation records the sanitizer emits.

A :class:`SanViolation` is sim-timestamped evidence that one invariant
broke: which check fired, at what simulated time and step, against which
subject (a node axis, an actor, the clock), and two human strings — a
one-line message plus optional numeric detail.  Records are frozen and
ordered so reports sort deterministically and exports are a pure function
of the run (the same byte-determinism contract as ``repro.obs`` spans).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.codec import decode_record
from repro.errors import SanitizerError

#: Check identifiers a violation may carry (the sanitizer's rule catalogue).
CHECKS = (
    "conservation",  # per-node resource sums vs physical capacity
    "ledger",  # ClusterView/NodeLedger snapshot vs actual node state
    "aliasing",  # an actor wrote state owned by another actor mid-step
    "time",  # simulated time failed to advance monotonically
    "events",  # event-queue ordering (a due event survived fire_due)
    "phase",  # an in-flight request's stored phase vs its remaining work
    "quiet",  # a vouched node's containers and manager frame vs a read by value
)


@dataclass(frozen=True, order=True)
class SanViolation:
    """One invariant violation, frozen at the simulated instant it was seen."""

    #: Simulated time (seconds) at which the check fired.
    now: float
    #: Engine step index the violation belongs to.
    step: int
    #: Which check fired — one of :data:`CHECKS`.
    check: str
    #: What broke the invariant: ``node/axis``, an actor name, a container id.
    subject: str
    #: One-line human statement of the violated invariant.
    message: str
    #: Optional numeric evidence (expected vs actual, deterministic text).
    detail: str = ""

    def __post_init__(self) -> None:
        if self.check not in CHECKS:
            raise SanitizerError(f"unknown sanitizer check {self.check!r} (want one of {CHECKS})")


def violation_to_dict(violation: SanViolation) -> dict:
    """Plain-dict form (JSON-ready, insertion order = field order)."""
    return asdict(violation)


def violation_from_dict(payload: dict) -> SanViolation:
    """Rebuild a violation from its dict form; raises
    :class:`~repro.errors.SanitizerError` naming the bad field."""
    return decode_record(SanViolation, payload, SanitizerError, "violation")
