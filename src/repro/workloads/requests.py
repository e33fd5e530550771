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
import math
from dataclasses import dataclass, field
from types import MappingProxyType

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

#: Where each phase's (work, progress) pair sits in :attr:`Request.work` and
#: :attr:`Request.done`: its place in the serving order.  The work left in
#: phase ``p`` is ``work[i] - done[i]`` with ``i = PHASE_INDEX[p]``.
PHASE_INDEX = MappingProxyType({phase: i for i, phase in enumerate(_PHASE_ORDER)})


def _progress(phase: Phase, doc: str) -> property:
    """``phase``'s entry of :attr:`Request.done`, read and written by name."""
    i = PHASE_INDEX[phase]

    def get(request: Request) -> float:
        return request.done[i]

    def set_(request: Request, value: float) -> None:
        request.done[i] = value

    return property(get, set_, doc=doc)


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

    Each phase's work and the progress made in it sit side by side in
    :attr:`work` and :attr:`done`, at the phase's :data:`PHASE_INDEX`; the
    sharing kernel reads and writes them there directly.
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
    #: Service-time multiplier applied at assignment; encodes the replica
    #: distribution overhead measured in Section III-A.
    overhead_factor: float = 1.0
    #: The running request's current phase (CPU, then DISK, then NET), else
    #: ``None``.  Stored, not derived on read: :meth:`assign` sets it,
    #: :meth:`finish_phase` moves it on when the phase's work runs out, and
    #: :meth:`complete`/:meth:`fail` clear it.  It always equals
    #: :meth:`derive_phase` (SimSan checks that after every step), so a
    #: request in its phase always has more than 1e-12 of it left.
    phase: Phase | None = field(default=None, init=False)
    #: Each phase's work: ``cpu_work * overhead_factor`` (fixed at
    #: :meth:`assign`), ``disk_mb`` and ``net_mbits``, by :data:`PHASE_INDEX`.
    work: tuple[float, float, float] = field(init=False, repr=False)
    #: Progress made in each phase, by :data:`PHASE_INDEX`.
    done: list[float] = field(init=False, repr=False)

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
        # Written so that NaN fails too.
        if not (
            0 <= self.cpu_work < math.inf
            and 0 <= self.mem_footprint < math.inf
            and 0 <= self.net_mbits < math.inf
            and 0 <= self.disk_mb < math.inf
        ):
            raise WorkloadError("request demands must be finite and non-negative")
        if not 0 < self.timeout < math.inf:
            raise WorkloadError("request timeout must be positive and finite")
        self._stamp_work()
        self.done = [0.0] * 3

    def _stamp_work(self) -> None:
        """Fix each phase's work from the demands and the overhead factor."""
        self.work = (self.cpu_work * self.overhead_factor, self.disk_mb, self.net_mbits)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    cpu_done = _progress(Phase.CPU, "Core-seconds of compute done.")
    disk_done = _progress(Phase.DISK, "MB of disk I/O done.")
    net_done = _progress(Phase.NET, "Mbit of response payload transmitted.")

    @property
    def resident_memory(self) -> float:
        """MiB currently held by this request in its container.

        Heap grows as the request is processed: a quarter is allocated at
        admission (buffers, session state) and the rest in proportion to
        the fraction of all phases' work done (all of it when there is no
        work).  The ramp is what gives memory-aware scalers a window to
        react before a burst's full footprint lands.
        """
        work, done = self.work, self.done
        total = work[0] + work[1] + work[2]
        progress = 1.0 if total <= 0 else min(1.0, (done[0] + done[1] + done[2]) / total)
        return self.mem_footprint * (0.25 + 0.75 * progress)

    def remaining(self, phase: Phase) -> float:
        """Work still required in ``phase`` (core-seconds, MB, or Mbit)."""
        i = PHASE_INDEX[phase]
        return max(0.0, self.work[i] - self.done[i])

    def derive_phase(self) -> Phase | None:
        """The phase the remaining work implies: the first of CPU, DISK, NET
        with more than 1e-12 left, or ``None`` when done or not running.

        The one definition of a phase; :attr:`phase` stores its value.
        """
        if self.state is not RequestState.RUNNING:
            return None
        work, done = self.work, self.done
        for i, phase in enumerate(_PHASE_ORDER):
            if work[i] - done[i] > 1e-12:
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
        self._stamp_work()
        self.phase = self.derive_phase()

    def advance(self, phase: Phase, amount: float) -> None:
        """Credit ``amount`` of progress in ``phase``.

        When that is the current phase and at most 1e-12 of it is left,
        the request moves on to its next phase with work (or to ``None``).
        The sharing kernel does the same for a whole window at once.
        """
        if amount < 0:
            raise WorkloadError("progress must be non-negative")
        i = PHASE_INDEX[phase]
        done = self.done
        done[i] += amount
        if phase is self.phase and self.work[i] - done[i] <= 1e-12:
            self.finish_phase()

    def finish_phase(self) -> None:
        """Leave the current phase, whose work has run out, for the next
        phase with work left (``None`` when there is none)."""
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
