"""Linux traffic-control primitives: token buckets and HTB.

The paper shapes container egress with ``tc`` hierarchical token bucket
(HTB) filters plus ``iptables`` marks (Sections III-C and II-D).  We model
the two HTB properties the experiments rely on:

* each class is **guaranteed** its configured ``rate`` when it has demand;
* spare capacity is **borrowed** up to each class's ``ceil``, split in
  proportion to class rate (HTB lends in proportion to quantum, which
  defaults to rate / r2q).

Granting is work-conserving and never exceeds link capacity — both are
property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.fairshare import weighted_fair_share
from repro.errors import NetworkSimError


class TokenBucket:
    """Classic token bucket: sustained ``rate`` with burst absorption.

    Used for per-class conformance accounting.  ``rate`` is in Mbit/s and
    ``burst`` in Mbit.
    """

    def __init__(self, rate: float, burst: float | None = None):
        if rate < 0:
            raise NetworkSimError(f"rate must be non-negative, got {rate}")
        self.rate = float(rate)
        # Default burst: 100 ms worth of traffic, floor of 1 Mbit — roughly
        # tc's heuristic of sizing bursts to timer resolution.
        self.burst = float(burst) if burst is not None else max(1.0, rate * 0.1)
        if self.burst <= 0:
            raise NetworkSimError(f"burst must be positive, got {self.burst}")
        self.tokens = self.burst

    def refill(self, dt: float) -> None:
        """Accrue ``rate * dt`` tokens, capped at the burst size."""
        if dt < 0:
            raise NetworkSimError("dt must be non-negative")
        self.tokens = min(self.burst, self.tokens + self.rate * dt)

    def consume(self, amount: float) -> float:
        """Drain up to ``amount`` Mbit of tokens; return what was granted."""
        if amount < 0:
            raise NetworkSimError("amount must be non-negative")
        granted = min(amount, self.tokens)
        self.tokens -= granted
        return granted

    def set_rate(self, rate: float) -> None:
        """Reconfigure the sustained rate (``tc class change``)."""
        if rate < 0:
            raise NetworkSimError(f"rate must be non-negative, got {rate}")
        self.rate = float(rate)
        self.burst = max(1.0, rate * 0.1)
        self.tokens = min(self.tokens, self.burst)


@dataclass
class HtbClass:
    """One HTB leaf class: guaranteed ``rate``, borrow ceiling ``ceil``."""

    class_id: str
    rate: float  # Mbit/s guaranteed
    ceil: float  # Mbit/s maximum after borrowing

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise NetworkSimError(f"class {self.class_id}: rate must be >= 0")
        if self.ceil < self.rate:
            raise NetworkSimError(f"class {self.class_id}: ceil must be >= rate")


class HtbQdisc:
    """A single-level HTB hierarchy on one link.

    Parameters
    ----------
    capacity:
        Link capacity in Mbit/s (the root class rate).
    """

    def __init__(self, capacity: float):
        if capacity <= 0:
            raise NetworkSimError(f"capacity must be positive, got {capacity}")
        self.capacity = float(capacity)
        self._classes: dict[str, HtbClass] = {}
        #: The class ids sorted, rebuilt on the first read after
        #: :meth:`add_class` or :meth:`del_class` (``None`` until then).
        self._sorted_ids: list[str] | None = None

    # ------------------------------------------------------------------
    # Class management ("tc class add / change / del")
    # ------------------------------------------------------------------
    def add_class(self, class_id: str, rate: float, ceil: float | None = None) -> HtbClass:
        """Create a leaf class; ``ceil`` defaults to link capacity."""
        if class_id in self._classes:
            raise NetworkSimError(f"class {class_id!r} already exists")
        cls = HtbClass(class_id, rate, self.capacity if ceil is None else ceil)
        self._classes[class_id] = cls
        self._sorted_ids = None
        return cls

    def change_class(self, class_id: str, rate: float | None = None, ceil: float | None = None) -> HtbClass:
        """Reconfigure an existing class."""
        cls = self.get_class(class_id)
        new_rate = cls.rate if rate is None else rate
        new_ceil = cls.ceil if ceil is None else ceil
        updated = HtbClass(class_id, new_rate, new_ceil)
        self._classes[class_id] = updated
        return updated

    def del_class(self, class_id: str) -> None:
        """Remove a leaf class."""
        if class_id not in self._classes:
            raise NetworkSimError(f"class {class_id!r} does not exist")
        del self._classes[class_id]
        self._sorted_ids = None

    def get_class(self, class_id: str) -> HtbClass:
        """Look up a class by id."""
        try:
            return self._classes[class_id]
        except KeyError:
            raise NetworkSimError(f"class {class_id!r} does not exist") from None

    def _id_ordered(self) -> list[str]:
        """The class ids in sorted order (sorted once per membership change)."""
        ids = self._sorted_ids
        if ids is None:
            ids = self._sorted_ids = sorted(self._classes)
        return ids

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def allocate(self, offered: dict[str, float]) -> dict[str, float]:
        """Split link capacity among classes given offered loads (Mbit/s).

        Two HTB phases:

        1. every class is granted ``min(offered, rate)`` — scaled down
           proportionally if the guarantees alone exceed capacity
           (oversubscribed link);
        2. leftover capacity is lent to classes still below both their
           offered load and their ceiling, in proportion to class rate.

        Returns per-class grants; ids absent from ``offered`` get 0.
        """
        for cid, load in offered.items():
            if load < 0:
                raise NetworkSimError(f"offered load for {cid!r} must be >= 0")
            if cid not in self._classes:
                raise NetworkSimError(f"offered load for unknown class {cid!r}")

        grants: dict[str, float] = {}
        ids = [cid for cid in self._id_ordered() if offered.get(cid, 0.0) > 0]
        if not ids:
            return {cid: 0.0 for cid in offered}

        # Phase 1: guarantees.
        wanted = {cid: min(offered[cid], self._classes[cid].rate) for cid in ids}
        total_wanted = sum(wanted.values())
        scale = min(1.0, self.capacity / total_wanted) if total_wanted > 0 else 1.0
        for cid in ids:
            grants[cid] = wanted[cid] * scale

        # Phase 2: borrowing, weighted by class rate (zero-rate classes get
        # a tiny weight so they can still borrow, like HTB's minimum quantum).
        leftover = self.capacity - sum(grants.values())
        if leftover > 1e-12:
            demands = []
            weights = []
            for cid in ids:
                cls = self._classes[cid]
                headroom = max(0.0, min(offered[cid], cls.ceil) - grants[cid])
                demands.append(headroom)
                weights.append(max(cls.rate, 1e-6))
            # With no headroom anywhere the fair share lends 0.0 to every
            # class; adding that still turns a -0.0 grant (a class whose rate
            # is -0.0) into 0.0, so only the share itself is skipped.
            borrowed = weighted_fair_share(leftover, demands, weights) if any(demands) else [0.0] * len(ids)
            for cid, extra in zip(ids, borrowed):
                grants[cid] += extra

        for cid in offered:
            grants.setdefault(cid, 0.0)
        return grants
