"""Client request model and failure taxonomy.

A request is the unit of load: it arrives at the load balancer, is routed to
one replica, and works through its processor-sharing phases there
(:class:`Phase`): compute, disk I/O, then its response over the node's NIC.
The paper's Figures 6-8 distinguish exactly two failure classes, which we
mirror:

* **removal failures** — "requests that end prematurely due to container
  removals" (a replica was scaled in or OOM-killed while serving);
* **connection failures** — "requests that fail prematurely at the
  microservice" (timeout, or no live replica to route to).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.errors import WorkloadError

_request_ids = itertools.count(1)


class RequestState(enum.Enum):
    """Lifecycle states of a request."""

    QUEUED = "queued"  # created, waiting for the load balancer
    RUNNING = "running"  # assigned to a replica, consuming resources
    SUCCEEDED = "succeeded"
    FAILED = "failed"


class Phase(enum.Enum):
    """The local work phases of a running request, in the order served."""

    CPU = "cpu"  # core-seconds of compute
    DISK = "disk"  # MB of disk I/O
    NET = "net"  # Mbit of response payload


#: The order a request is served in: the members' definition order.
_PHASE_ORDER = tuple(Phase)


class FailureReason(enum.Enum):
    """Why a request failed — matches the paper's two failure classes."""

    REMOVAL = "removal"  # serving container was removed / OOM-killed
    CONNECTION = "connection"  # timeout or no replica available


@dataclass
class Request:
    """One client request and its progress through the system.

    Demands are stamped by the workload profile at creation time:

    * ``cpu_work`` — core-seconds of compute required,
    * ``mem_footprint`` — MiB resident in the serving container while the
      request is in flight,
    * ``net_mbits`` — response payload to egress once compute finishes.
    """

    service: str
    arrival_time: float
    cpu_work: float = 0.0
    mem_footprint: float = 0.0
    net_mbits: float = 0.0
    #: Disk I/O demand in MB (the paper's declared-but-unimplemented axis;
    #: served between the compute and network phases).
    disk_mb: float = 0.0
    timeout: float = 30.0
    request_id: int = field(default_factory=lambda: next(_request_ids))

    # Mutable progress -------------------------------------------------
    state: RequestState = RequestState.QUEUED
    failure_reason: FailureReason | None = None
    container_id: str | None = None
    start_time: float | None = None
    finish_time: float | None = None
    cpu_done: float = 0.0
    disk_done: float = 0.0
    net_done: float = 0.0
    #: Service-time multiplier applied at assignment; encodes the replica
    #: distribution overhead measured in Section III-A.
    overhead_factor: float = 1.0
    #: The running request's current phase (CPU, then DISK, then NET), else
    #: ``None``.  Stored, not derived on read: :meth:`assign` sets it,
    #: :meth:`advance` moves it on when the phase's work runs out, and
    #: :meth:`complete`/:meth:`fail` clear it.  It always equals
    #: :meth:`derive_phase` (SimSan checks that after every step).
    phase: Phase | None = field(default=None, init=False)

    # Application-graph lifecycle ---------------------------------------
    #: Downstream calls this request still waits on.  Settlement keeps the
    #: request in flight — occupying its thread-pool slot and memory —
    #: until the count reaches zero, which is how downstream saturation
    #: back-pressures upstream latency.  Always 0 outside graph runs.
    downstream_pending: int = 0
    #: Set when any downstream call failed; the join then fails this
    #: request with a connection failure instead of completing it.
    downstream_failed: bool = False
    #: False for internal tier-to-tier calls spawned by the graph router;
    #: user-traffic accounting (ingress SLO, compare tables) only counts
    #: requests with this flag set.
    ingress: bool = True
    #: Node hosting the replica that issued this call, when known — the
    #: hint topology-aware routing uses to prefer same-node replicas.
    origin_node: str | None = None

    def __post_init__(self) -> None:
        if self.cpu_work < 0 or self.mem_footprint < 0 or self.net_mbits < 0 or self.disk_mb < 0:
            raise WorkloadError("request demands must be non-negative")
        if self.timeout <= 0:
            raise WorkloadError("request timeout must be positive")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def effective_cpu_work(self) -> float:
        """CPU demand after the distribution-overhead multiplier."""
        return self.cpu_work * self.overhead_factor

    @property
    def cpu_remaining(self) -> float:
        """Core-seconds of compute still required."""
        return self.remaining(Phase.CPU)

    @property
    def disk_remaining(self) -> float:
        """MB of disk I/O still required."""
        return self.remaining(Phase.DISK)

    @property
    def progress(self) -> float:
        """Fraction of total work done across all phases."""
        total = self.effective_cpu_work + self.disk_mb + self.net_mbits
        if total <= 0:
            return 1.0
        return min(1.0, (self.cpu_done + self.disk_done + self.net_done) / total)

    @property
    def resident_memory(self) -> float:
        """MiB currently held by this request in its container.

        Heap grows as the request is processed: a quarter is allocated at
        admission (buffers, session state) and the rest in proportion to
        progress.  The ramp is what gives memory-aware scalers a window to
        react before a burst's full footprint lands.
        """
        return self.mem_footprint * (0.25 + 0.75 * self.progress)

    @property
    def net_remaining(self) -> float:
        """Mbit of response payload still to transmit."""
        return self.remaining(Phase.NET)

    def remaining(self, phase: Phase) -> float:
        """Work still required in ``phase`` (core-seconds, MB, or Mbit)."""
        if phase is Phase.CPU:
            return max(0.0, self.effective_cpu_work - self.cpu_done)
        if phase is Phase.DISK:
            return max(0.0, self.disk_mb - self.disk_done)
        return max(0.0, self.net_mbits - self.net_done)

    def derive_phase(self) -> Phase | None:
        """The phase the remaining work implies: the first of CPU, DISK, NET
        with more than 1e-12 left, or ``None`` when done or not running.

        The one definition of a phase; :attr:`phase` stores its value.
        """
        if self.state is not RequestState.RUNNING:
            return None
        for phase in _PHASE_ORDER:
            if self.remaining(phase) > 1e-12:
                return phase
        return None

    @property
    def local_work_done(self) -> bool:
        """True once a running request has no phase left (graph calls may still be pending)."""
        return self.state is RequestState.RUNNING and self.phase is None

    @property
    def is_finished(self) -> bool:
        """True for both terminal states."""
        return self.state in (RequestState.SUCCEEDED, RequestState.FAILED)

    @property
    def response_time(self) -> float | None:
        """Arrival-to-finish latency; ``None`` until the request finishes."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    def deadline(self) -> float:
        """Absolute time at which this request times out."""
        return self.arrival_time + self.timeout

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def assign(self, container_id: str, now: float, overhead_factor: float = 1.0) -> None:
        """Route the request to a replica and start the CPU phase."""
        if self.state is not RequestState.QUEUED:
            raise WorkloadError(f"cannot assign request in state {self.state}")
        if overhead_factor < 1.0:
            raise WorkloadError("overhead_factor must be >= 1")
        self.state = RequestState.RUNNING
        self.container_id = container_id
        self.start_time = now
        self.overhead_factor = overhead_factor
        self.phase = self.derive_phase()

    def advance(self, phase: Phase, amount: float) -> None:
        """Credit ``amount`` of progress in ``phase``.

        When that is the current phase and at most 1e-12 of it is left,
        the request moves on to its next phase with work (or to ``None``).
        """
        if amount < 0:
            raise WorkloadError("progress must be non-negative")
        if phase is Phase.CPU:
            self.cpu_done += amount
        elif phase is Phase.DISK:
            self.disk_done += amount
        else:
            self.net_done += amount
        if phase is self.phase and self.remaining(phase) <= 1e-12:
            self.phase = self.derive_phase()

    def complete(self, now: float) -> None:
        """Mark the request successful."""
        if self.is_finished:
            raise WorkloadError("request already finished")
        self.state = RequestState.SUCCEEDED
        self.finish_time = now
        self.phase = None

    def fail(self, now: float, reason: FailureReason) -> None:
        """Mark the request failed with one of the paper's two reasons."""
        if self.is_finished:
            raise WorkloadError("request already finished")
        self.state = RequestState.FAILED
        self.failure_reason = reason
        self.finish_time = now
        self.phase = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Request(id={self.request_id}, service={self.service!r}, "
            f"state={self.state.value}, t={self.arrival_time:.2f})"
        )
