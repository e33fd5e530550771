"""Simulated Docker container.

A container is the unit of deployment (each houses exactly one microservice
replica, as in Section V-A of the paper).  It carries:

* **allocations** — CPU request (cores; exposed to the daemon as Docker CPU
  shares), a hard memory limit, and an HTB network rate;
* **runtime state** — the lifecycle state machine and in-flight requests;
* **measured usage** — what ``docker stats`` would report: CPU cores used
  last step, resident memory, egress and disk throughput.

A hosted container holds a reference to its node.  Every change a node's
quiet step or its manager's ``docker stats`` frame could see bumps that
node's change generation: :meth:`accept`, :meth:`freeze`,
:meth:`terminate` and any write through the four usage readings do it
here (DESIGN.md, "The idle-container write").  The node's own passes
write the readings' backing fields directly.

The *node* owns scheduling (fair-share CPU, disk, NIC transmission); the
container owns distributing whatever it was granted across its in-flight
requests — one processor-sharing kernel, :meth:`Container._share_epochs`,
for every grant — and its own memory accounting.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING

from repro.cluster.grants import ResourceGrants
from repro.config import OverheadModel
from repro.errors import ContainerStateError
from repro.units import cores_to_shares
from repro.workloads.requests import PHASE_INDEX, FailureReason, Phase, Request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.cluster.node import Node

_container_seq = itertools.count(1)


def _fallback_container_id(service: str, replica_index: int) -> str:
    """Mint a process-global fallback id (ad-hoc containers only)."""
    return f"{service}.r{replica_index}.c{next(_container_seq)}"


class ContainerState(enum.Enum):
    """Container lifecycle, matching the simulated daemon's view."""

    PENDING = "pending"  # created, still booting
    RUNNING = "running"
    STOPPED = "stopped"  # removed gracefully or by scale-in
    OOM_KILLED = "oom_killed"  # killed by the kernel for exceeding memory


#: States in which the container occupies node resources.
ACTIVE_STATES = (ContainerState.PENDING, ContainerState.RUNNING)


class Container:
    """One microservice replica inside a simulated Docker container."""

    def __init__(
        self,
        service: str,
        replica_index: int,
        cpu_request: float,
        mem_limit: float,
        net_rate: float,
        *,
        created_at: float = 0.0,
        boot_delay: float = 0.0,
        max_concurrency: int = 16,
        disk_quota: float = 50.0,
        overheads: OverheadModel | None = None,
        container_id: str | None = None,
    ):
        if cpu_request < 0 or mem_limit <= 0 or net_rate < 0:
            raise ContainerStateError(
                "container allocations must satisfy cpu>=0, memory>0, network>=0"
            )
        if max_concurrency < 1:
            raise ContainerStateError("max_concurrency must be >= 1")
        # Simulation paths pass an id allocated by the run's Cluster so that
        # ids are a pure function of the run (the process-global fallback is
        # only for ad-hoc containers built in tests and microbenchmarks).
        self.container_id = container_id or _fallback_container_id(service, replica_index)
        self.service = service
        self.replica_index = replica_index
        self.created_at = created_at
        self.overheads = overheads or OverheadModel()

        # Allocations (mutated by `docker update`, i.e. vertical scaling).
        self.cpu_request = float(cpu_request)
        self.mem_limit = float(mem_limit)
        self.net_rate = float(net_rate)
        # Reference disk bandwidth (MB/s) for the disk scaler's utilization
        # denominator; not enforced (disk has no reservations).
        self.disk_quota = float(disk_quota)

        # Lifecycle.
        self.state = ContainerState.PENDING if boot_delay > 0 else ContainerState.RUNNING
        self.boot_remaining = float(boot_delay)
        self.stopped_at: float | None = None

        # Runtime.  ``inflight`` is arrival-ordered; only the first
        # ``max_concurrency`` are actively processed (the application's
        # thread pool), the rest wait in the connection backlog.
        self.max_concurrency = int(max_concurrency)
        self.inflight: list[Request] = []
        self.finished: list[Request] = []  # drained by the node each step

        #: The node hosting this container, set and cleared by the node.
        self._host: Node | None = None

        # Measured usage (what `docker stats` reports); see the properties.
        self._cpu_usage = 0.0
        self._mem_usage = self.overheads.container_base_memory
        self._net_usage = 0.0
        self._disk_usage = 0.0

        # Lifetime counters.
        self.total_completed = 0
        self.total_failed = 0

        # CPU left over after compute this step; caps network syscall
        # throughput (see OverheadModel.net_cpu_per_mbit).
        self._net_cpu_headroom = 0.0

    # ------------------------------------------------------------------
    # Usage readings: a write through one bumps the host's generation
    # ------------------------------------------------------------------
    def _changed(self) -> None:
        """Bump the host node's change generation (no-op when unhosted)."""
        host = self._host
        if host is not None:
            host.generation += 1

    def readings(self) -> tuple[float, float, float, float]:
        """The four usage readings in ``docker stats`` frame order: CPU,
        memory, network, disk (one call instead of four property reads)."""
        return (self._cpu_usage, self._mem_usage, self._net_usage, self._disk_usage)

    @property
    def cpu_usage(self) -> float:
        """Cores consumed last step."""
        return self._cpu_usage

    @cpu_usage.setter
    def cpu_usage(self, value: float) -> None:
        self._cpu_usage = value
        self._changed()

    @property
    def mem_usage(self) -> float:
        """Resident memory (MiB) after last step's settlement."""
        return self._mem_usage

    @mem_usage.setter
    def mem_usage(self, value: float) -> None:
        self._mem_usage = value
        self._changed()

    @property
    def net_usage(self) -> float:
        """Mbit/s of egress last step."""
        return self._net_usage

    @net_usage.setter
    def net_usage(self, value: float) -> None:
        self._net_usage = value
        self._changed()

    @property
    def disk_usage(self) -> float:
        """MB/s of disk I/O last step."""
        return self._disk_usage

    @disk_usage.setter
    def disk_usage(self, value: float) -> None:
        self._disk_usage = value
        self._changed()

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def cpu_shares(self) -> int:
        """Docker CPU shares corresponding to the CPU request."""
        return cores_to_shares(self.cpu_request)

    @property
    def is_active(self) -> bool:
        """True while the container occupies node resources."""
        return self.state in ACTIVE_STATES

    @property
    def is_serving(self) -> bool:
        """True when the container can accept and progress requests."""
        return self.state is ContainerState.RUNNING

    def active_requests(self) -> list[Request]:
        """Requests inside the thread pool (arrival order, bounded)."""
        return self.inflight[: self.max_concurrency]

    def phase_requests(self, phase: Phase) -> list[Request]:
        """In-flight requests currently in ``phase`` (arrival order).

        Progress flows through a *sliding* thread-pool window (see
        :meth:`_share_epochs`), so short requests queued behind the first
        ``max_concurrency`` can still complete within one step; the window
        bounds simultaneous residency (memory), not per-step turnover.
        """
        return [r for r in self.inflight if r.phase is phase]

    def memory_working_set(self) -> float:
        """Resident memory: application base footprint + active requests.

        Backlogged requests sit in the socket queue and cost no memory —
        which is what bounds the working set to
        ``base + max_concurrency * footprint``.  The requests' memory is a
        left fold in arrival order (DESIGN.md §4).
        """
        held = 0.0
        for request in self.active_requests():
            held += request.resident_memory
        return self.overheads.container_base_memory + held

    def _pending(self, phase: Phase) -> float:
        """Work left in ``phase`` over the requests in it: a left fold in
        arrival order.  A stale stored phase adds nothing, as it reads 0 in
        :meth:`Request.remaining`."""
        i = PHASE_INDEX[phase]
        pending = 0.0
        for request in self.inflight:
            if request.phase is phase:
                left = request.work[i] - request.done[i]
                if left > 0.0:
                    pending += left
        return pending

    @property
    def is_swapping(self) -> bool:
        """True when the working set exceeds the memory limit."""
        return self.memory_working_set() > self.mem_limit + 1e-9

    # ------------------------------------------------------------------
    # Scheduling interface used by the node
    # ------------------------------------------------------------------
    def cpu_demand(self, node_capacity: float) -> float:
        """How much CPU this container could usefully consume this step.

        Work-conserving model: with compute work pending the container will
        take any share it is granted (bounded only by node capacity); idle
        containers still burn the application's background CPU.
        """
        if not self.is_serving:
            return 0.0
        for request in self.inflight:
            phase = request.phase
            if phase is Phase.CPU or phase is Phase.NET:
                # Pending transmissions also need CPU (networking syscalls).
                return node_capacity
        return min(self.overheads.container_background_cpu, node_capacity)

    def advance(self, grants: ResourceGrants, dt: float) -> None:
        """Spend this step's resource grants on in-flight work.

        The unified scheduling entry point: the node awards CPU, disk, and
        network through one frozen :class:`ResourceGrants` value; only the
        phases whose grants are present are advanced, so each scheduler
        pass stays independent.
        """
        if grants.cpu is not None:
            self._advance_compute(grants.cpu, dt, grants.contention)
        if grants.disk is not None:
            self._advance_disk(grants.disk, dt)
        if grants.net is not None:
            self._advance_network(grants.net, dt)

    def _advance_compute(self, granted_cores: float, dt: float, contention_factor: float) -> None:
        """Spend a CPU grant on in-flight compute, processor-sharing style.

        Parameters
        ----------
        granted_cores:
            Cores awarded by the node's weighted fair-share for this step.
        dt:
            Step width in seconds.
        contention_factor:
            ``1 + colocation_contention`` when other containers on the node
            also demanded CPU (Section III-A's measured 17 % penalty);
            1.0 otherwise.
        """
        if granted_cores < 0 or dt <= 0 or contention_factor < 1.0:
            raise ContainerStateError("invalid compute grant")
        background = min(self.overheads.container_background_cpu, granted_cores)
        useful = max(0.0, granted_cores - background)
        requests = self.phase_requests(Phase.CPU)
        if not requests:
            self._cpu_usage = background if self.is_serving else 0.0
            self._net_cpu_headroom = useful
            return

        efficiency = 1.0 / contention_factor
        if self.is_swapping:
            efficiency *= self.overheads.swap_slowdown

        budget = useful * dt * efficiency  # effective core-seconds this step
        consumed = self._share_epochs(requests, budget, Phase.CPU)
        # Measured usage is what was actually burned (back out efficiency so
        # swap stalls still *look* busy to the monitor, as iowait does).
        compute_cores = consumed / (dt * efficiency) if efficiency > 0 else 0.0
        self._cpu_usage = background + compute_cores
        self._net_cpu_headroom = max(0.0, useful - compute_cores)

    def disk_demand(self, dt: float) -> float:
        """Disk I/O demand in MB/s this step (outstanding I/O / dt)."""
        if not self.is_serving:
            return 0.0
        return self._pending(Phase.DISK) / dt

    def _advance_disk(self, granted_mb_per_s: float, dt: float) -> None:
        """Spend a disk grant (MB/s) on pending I/O."""
        if granted_mb_per_s < 0 or dt <= 0:
            raise ContainerStateError("invalid disk grant")
        requests = self.phase_requests(Phase.DISK)
        if not requests:
            self._disk_usage = 0.0
            return
        served = self._share_epochs(requests, granted_mb_per_s * dt, Phase.DISK)
        self._disk_usage = served / dt

    def net_demand(self, dt: float) -> float:
        """Egress demand in Mbit/s this step.

        Bounded both by the pending payload and by the CPU left over for
        networking syscalls — a compute-starved container cannot saturate
        its shaped rate (the coupling Section VI-A leans on).
        """
        if not self.is_serving:
            return 0.0
        demand = self._pending(Phase.NET) / dt
        coefficient = self.overheads.net_cpu_per_mbit
        if coefficient > 0:
            demand = min(demand, self._net_cpu_headroom / coefficient)
        return demand

    def _advance_network(self, granted_mbps: float, dt: float) -> None:
        """Spend a NIC grant on pending response payloads."""
        if granted_mbps < 0 or dt <= 0:
            raise ContainerStateError("invalid network grant")
        requests = self.phase_requests(Phase.NET)
        if not requests:
            self._net_usage = 0.0
            return
        transmitted = self._share_epochs(requests, granted_mbps * dt, Phase.NET)
        self._net_usage = net_usage = transmitted / dt
        # Networking syscalls burn CPU proportional to bytes pushed; the
        # monitor sees it as CPU usage (it is, to `docker stats`).
        self._cpu_usage += net_usage * self.overheads.net_cpu_per_mbit

    def _share_epochs(self, queue: list[Request], budget: float, phase: Phase) -> float:
        """Processor-share ``budget`` over ``queue``'s ``phase`` work; return what was spent.

        The one sharing kernel behind every grant (DESIGN.md §4, "Processor
        sharing").  It runs in epochs over a sliding thread-pool window: the
        first ``max_concurrency`` queued requests progress at an equal rate;
        when the smallest finishes, the next queued request takes its slot
        within the same step, so no budget is stranded at step boundaries.
        Only the window advanced, so only the window is re-filtered: a
        request that finished ``phase`` has moved its stored phase on.

        An epoch is plain arithmetic on each request's ``phase`` pair
        (``work[i] - done[i]``, ``done[i] += per_request``), the float
        operations :meth:`Request.remaining` and :meth:`Request.advance`
        perform.  A request in its phase has more than 1e-12 of it left, so
        their floor at 0 is taken once per epoch, on the window's minimum,
        which only a stale stored phase can bring to 0.
        """
        i = PHASE_INDEX[phase]
        spent = 0.0
        cap = self.max_concurrency
        while queue and budget > 1e-12:
            window = queue[:cap]
            size = len(window)
            smallest = max(0.0, min([r.work[i] - r.done[i] for r in window]))
            per_request = min(budget / size, smallest)
            for request in window:
                done = request.done
                done[i] += per_request
                if request.work[i] - done[i] <= 1e-12:
                    request.finish_phase()
            epoch = per_request * size
            spent += epoch
            budget -= epoch
            if per_request < smallest - 1e-15 or per_request <= 0.0:
                # Budget exhausted mid-epoch.  (Nothing spent means a stored
                # phase went stale; stop rather than spin, SimSan reports it.)
                break
            queue = [r for r in window if r.phase is phase] + queue[cap:]
        return spent

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def tick_boot(self, dt: float) -> None:
        """Progress the boot timer; flips PENDING -> RUNNING when done."""
        if self.state is ContainerState.PENDING:
            self.boot_remaining -= dt
            if self.boot_remaining <= 1e-9:
                self.boot_remaining = 0.0
                self.state = ContainerState.RUNNING

    def freeze(self, duration: float) -> None:
        """Pause the container for a live migration.

        The container stops serving (state back to PENDING) for ``duration``
        seconds — the checkpoint/restore window.  In-flight requests survive
        the move but keep aging toward their deadlines, so long freezes cost
        timeouts: migration is cheap, not free.
        """
        if not self.is_active:
            raise ContainerStateError(f"cannot freeze {self.container_id} in state {self.state}")
        if duration < 0:
            raise ContainerStateError("freeze duration must be non-negative")
        self.state = ContainerState.PENDING
        self.boot_remaining = max(self.boot_remaining, float(duration))
        self._changed()

    def accept(self, request: Request, now: float, overhead_factor: float = 1.0) -> None:
        """Take ownership of a routed request."""
        if not self.is_serving:
            raise ContainerStateError(
                f"container {self.container_id} cannot accept requests in state {self.state}"
            )
        request.assign(self.container_id, now, overhead_factor=overhead_factor)
        self.inflight.append(request)
        self._changed()

    def settle_requests(self, now: float) -> None:
        """Complete finished requests and fail timed-out ones.

        A request whose local phases are done but whose downstream graph
        calls are still outstanding (``downstream_pending > 0``) stays in
        flight — holding its concurrency slot and memory — until the
        graph router joins the last call.  That hold is the back-pressure
        mechanism: a saturated downstream tier keeps upstream requests
        resident, raising upstream occupancy and response times.
        """
        still_inflight: list[Request] = []
        for request in self.inflight:
            # In-flight requests are running, so a ``None`` phase is
            # ``local_work_done``.
            if request.phase is None and request.downstream_pending == 0:
                if request.downstream_failed:
                    request.fail(now, FailureReason.CONNECTION)
                    self.total_failed += 1
                else:
                    request.complete(now)
                    self.total_completed += 1
                self.finished.append(request)
            elif now >= request.arrival_time + request.timeout:  # the deadline
                request.fail(now, FailureReason.CONNECTION)
                self.total_failed += 1
                self.finished.append(request)
            else:
                still_inflight.append(request)
        self.inflight = still_inflight
        self._mem_usage = self.memory_working_set()

    def terminate(self, now: float, *, oom: bool = False) -> list[Request]:
        """Stop the container, failing all in-flight requests as removals.

        Returns the failed requests so the caller can hand them to metrics.
        """
        if not self.is_active:
            raise ContainerStateError(f"container {self.container_id} already stopped")
        self.state = ContainerState.OOM_KILLED if oom else ContainerState.STOPPED
        self.stopped_at = now
        casualties = []
        for request in self.inflight:
            request.fail(now, FailureReason.REMOVAL)
            self.total_failed += 1
            casualties.append(request)
            self.finished.append(request)
        self.inflight = []
        self._cpu_usage = 0.0
        self._net_usage = 0.0
        self._disk_usage = 0.0
        self._mem_usage = 0.0
        self._changed()
        return casualties

    def drain_finished(self) -> list[Request]:
        """Hand over and clear the finished-request buffer."""
        finished, self.finished = self.finished, []
        return finished

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Container({self.container_id}, state={self.state.value}, "
            f"cpu={self.cpu_request:.2f}, mem={self.mem_limit:.0f}, net={self.net_rate:.0f})"
        )
