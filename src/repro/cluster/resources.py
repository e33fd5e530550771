"""Three-axis resource vectors (CPU cores, memory MiB, network Mbit/s).

The paper frames hybrid scaling as a multidimensional bin-packing problem
over exactly these axes (Section I).  :class:`ResourceVector` is the shared
currency: node capacities, container requests, usage samples, and
availability reports are all instances of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

#: Axis names, in canonical order.
AXES = ("cpu", "memory", "network")


@dataclass(frozen=True)
class ResourceVector:
    """An immutable (cpu, memory, network) triple with vector arithmetic.

    Units are cores, MiB, and Mbit/s respectively (see :mod:`repro.units`).
    Arithmetic is element-wise; comparisons of interest are the *dominance*
    relations used by placement (``fits_within``) rather than a total order.
    """

    cpu: float = 0.0
    memory: float = 0.0
    network: float = 0.0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "ResourceVector":
        """The additive identity."""
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def sum(cls, vectors: Iterable["ResourceVector"]) -> "ResourceVector":
        """Element-wise sum of an iterable of vectors."""
        cpu = memory = network = 0.0
        for v in vectors:
            cpu += v.cpu
            memory += v.memory
            network += v.network
        return cls(cpu, memory, network)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu + other.cpu, self.memory + other.memory, self.network + other.network)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu - other.cpu, self.memory - other.memory, self.network - other.network)

    def __mul__(self, factor: float) -> "ResourceVector":
        return ResourceVector(self.cpu * factor, self.memory * factor, self.network * factor)

    __rmul__ = __mul__

    def __neg__(self) -> "ResourceVector":
        return self * -1.0

    def __iter__(self) -> Iterator[float]:
        yield self.cpu
        yield self.memory
        yield self.network

    # ------------------------------------------------------------------
    # Element-wise combinators
    # ------------------------------------------------------------------
    def clamp_floor(self, floor: float = 0.0) -> "ResourceVector":
        """Clamp every axis to at least ``floor`` (default: drop negatives)."""
        return ResourceVector(max(self.cpu, floor), max(self.memory, floor), max(self.network, floor))

    def elementwise_min(self, other: "ResourceVector") -> "ResourceVector":
        """Element-wise minimum."""
        return ResourceVector(min(self.cpu, other.cpu), min(self.memory, other.memory), min(self.network, other.network))

    def axis(self, axis: str) -> float:
        """Read one named axis."""
        if axis not in AXES:
            raise ValueError(f"unknown axis {axis!r}; expected one of {AXES}")
        return getattr(self, axis)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def fits_within(self, capacity: "ResourceVector", tolerance: float = 1e-9) -> bool:
        """True if this vector fits inside ``capacity`` on every axis."""
        return (
            self.cpu <= capacity.cpu + tolerance
            and self.memory <= capacity.memory + tolerance
            and self.network <= capacity.network + tolerance
        )

    def is_nonnegative(self, tolerance: float = 1e-9) -> bool:
        """True if every axis is >= 0 (within tolerance)."""
        return self.cpu >= -tolerance and self.memory >= -tolerance and self.network >= -tolerance

    def __repr__(self) -> str:
        return f"ResourceVector(cpu={self.cpu:.3f}, memory={self.memory:.1f}, network={self.network:.1f})"
