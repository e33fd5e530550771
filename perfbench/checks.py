"""Output checks applied to every simulated repeat."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.experiments.runner import Simulation
from repro.metrics.summary import RunSummary

#: The seed of the runs whose digests are pinned in ``pinned.json``.
DEFAULT_SEED = 0

PINNED_PATH = Path(__file__).with_name("pinned.json")


class CheckFailed(Exception):
    """A repeat produced a wrong or inconsistent result."""


def digest(summary: RunSummary) -> str:
    """sha256 of the canonical JSON of a summary (timeline included)."""
    text = json.dumps(summary.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pinned_digest(workload: str) -> str:
    """The default-seed digest pinned for ``workload``."""
    pinned = json.loads(PINNED_PATH.read_text(encoding="utf-8"))
    if workload not in pinned:
        raise CheckFailed(f"no digest pinned for {workload}")
    return pinned[workload]


def check_conservation(simulation: Simulation, summary: RunSummary) -> None:
    """User requests generated == settled + in flight + queued at the front LBs.

    In app runs the internal graph calls are excluded on every side: only
    ingress requests are user traffic.
    """
    generated = simulation.generator.total_generated
    in_flight = 0
    for node in simulation.cluster.nodes.values():
        for container in node.containers.values():
            in_flight += sum(1 for request in container.inflight if request.ingress)
    queued = simulation.load_balancer.backlog()
    settled = summary.user_requests
    if generated != settled + in_flight + queued:
        raise CheckFailed(
            f"request conservation: generated {generated} != settled {settled} "
            f"+ in flight {in_flight} + queued {queued}"
        )


def _check_outcome(simulation: Simulation, summary: RunSummary) -> str:
    check_conservation(simulation, summary)
    if summary.user_requests < 1:
        raise CheckFailed("no user request settled")
    return digest(summary)


def check_pin(workload: str, simulation: Simulation, summary: RunSummary) -> None:
    """Check the untimed default-seed run against its pinned digest."""
    value = _check_outcome(simulation, summary)
    pinned = pinned_digest(workload)
    if pinned != value:
        raise CheckFailed(f"default-seed digest {value} != pinned {pinned}")


def check_repeat(
    workload: str, seed: int, simulation: Simulation, summary: RunSummary, seen: set[str]
) -> str:
    """Check one finished repeat; returns its digest.

    ``seen`` collects the digests of earlier repeats of the same workload
    and seed, which must all agree.
    """
    value = _check_outcome(simulation, summary)
    seen.add(value)
    if len(seen) > 1:
        raise CheckFailed(f"repeats of {workload} seed {seed} disagree: {sorted(seen)}")
    return value
