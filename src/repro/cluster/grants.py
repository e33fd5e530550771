"""Frozen per-step resource grants handed to :meth:`Container.advance`.

The node's schedulers (fair-share CPU, disk device, NIC) each award one
resource per step.  The award travels as one immutable value object, so
every scheduler expresses "what this container was granted" in a single
vocabulary.

A field left at ``None`` means "this resource was not scheduled this
call": :meth:`Container.advance` only touches the phases whose grants are
present, which keeps the three scheduler passes independent.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class ResourceGrants:
    """One step's resource awards for a single container.

    Attributes
    ----------
    cpu:
        Cores awarded by the node's weighted fair-share (``None`` = the CPU
        scheduler did not run for this container this call).
    contention:
        Co-location contention factor applied to the CPU grant (Section
        III-A's measured penalty); meaningful only when ``cpu`` is set.
    disk:
        Disk bandwidth awarded in MB/s (``None`` = disk not scheduled).
    net:
        Egress throughput awarded in Mbit/s (``None`` = NIC not scheduled).
    """

    cpu: float | None = None
    contention: float = 1.0
    disk: float | None = None
    net: float | None = None
