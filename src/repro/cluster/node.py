"""Simulated cluster machine.

Each node mirrors one box of the paper's testbed (4 cores, 8 GiB, one NIC).
Per simulation step a node:

1. progresses container boots,
2. runs the Docker CPU scheduler — weighted max-min fair share over CPU
   shares, with the Section III-A co-location contention penalty,
3. drives the NIC — HTB shaping plus tx-queue contention,
4. settles requests (completions, timeouts), and
5. OOM-kills containers whose working set exceeds the kill threshold.

The node is deliberately policy-free: it executes allocations, it never
decides them (that is the MONITOR's job, Section V-B/C).

Every node carries a change generation, bumped by everything that can
change what its next quiet step or its manager's next ``docker stats``
frame would see.  A node that took a quiet step vouches for its
containers until the generation moves, so its later steps, its manager's
frames and the MONITOR's view of it cost O(1) (DESIGN.md, "The
idle-container write").
"""

from __future__ import annotations

from typing import Iterable

from repro.cluster.container import Container, ContainerState
from repro.cluster.disk import DiskDevice
from repro.cluster.grants import ResourceGrants
from repro.cluster.fairshare import weighted_fair_share
from repro.cluster.resources import ResourceVector
from repro.config import OverheadModel
from repro.errors import CapacityError, ClusterError
from repro.netsim.interface import NetworkInterface
from repro.workloads.requests import Request


def _write_idle(containers: Iterable[Container], granted_cores: float, overheads: OverheadModel) -> None:
    """Write one step's usage on serving containers with nothing in flight.

    Each was granted ``granted_cores`` by the CPU fair share.  These are the
    values the full passes would write: compute takes ``min(bg, g)`` as
    background CPU and leaves the rest as network headroom, disk and NIC
    see no demand, and settlement leaves the base memory.  The quiet-node
    step is the case ``g = bg`` (DESIGN.md, "The idle-container write").
    """
    cpu_usage = min(overheads.container_background_cpu, granted_cores)
    headroom = max(0.0, granted_cores - cpu_usage)
    base_memory = overheads.container_base_memory
    for container in containers:
        container._cpu_usage = cpu_usage
        container._net_cpu_headroom = headroom
        container._disk_usage = 0.0
        container._net_usage = 0.0
        container._mem_usage = base_memory


class Node:
    """One machine: capacity, hosted containers, local schedulers."""

    def __init__(
        self,
        name: str,
        capacity: ResourceVector,
        overheads: OverheadModel | None = None,
        disk_capacity: float = 150.0,
    ):
        if not capacity.is_nonnegative() or capacity.cpu <= 0 or capacity.memory <= 0:
            raise ClusterError(f"node {name!r}: capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.overheads = overheads or OverheadModel()
        self.nic = NetworkInterface(capacity.network, self.overheads)
        self.disk = DiskDevice(disk_capacity)
        #: Hosted containers in hosting order (node-manager frames and
        #: ``DockerClient.reap`` follow it).
        self.containers: dict[str, Container] = {}
        #: The same containers in id order, rebuilt on the first read after
        #: :meth:`add_container`, :meth:`remove_container` or
        #: :meth:`detach_container` (``None`` until then).
        self._by_id: list[Container] | None = None
        #: Requests that finished on this node since the last drain.
        self.finished: list[Request] = []
        #: Containers the node's steps OOM-killed since the daemon last
        #: reaped it, in kill (id) order.  The MONITOR reaps every step, so
        #: in a run this holds the last step's kills.
        self.last_oom_kills: list[Container] = []
        #: The change generation: bumped by hosting changes,
        #: :meth:`reshape_network`, ``DockerDaemon.update`` and, through
        #: their host reference, the hosted containers' ``accept``,
        #: ``freeze``, ``terminate`` and usage-reading writes.
        self.generation = 0
        #: The generation of the node's last step if that step was quiet,
        #: else -1 (see :attr:`vouched`).
        self._vouched_at = -1

    # ------------------------------------------------------------------
    # Hosting
    # ------------------------------------------------------------------
    @property
    def vouched(self) -> bool:
        """True while the node's last step was quiet and nothing that step
        or its manager's frame reads has changed since.

        Every serving container then holds exactly the idle readings,
        nothing is in flight or booting, and the next quiet step would
        write the same values.
        """
        return self._vouched_at == self.generation

    def _id_ordered(self) -> list[Container]:
        """Hosted containers in id order (sorted once per membership change)."""
        ordered = self._by_id
        if ordered is None:
            table = self.containers
            ordered = self._by_id = [table[key] for key in sorted(table)]
        return ordered

    def active_containers(self) -> list[Container]:
        """Containers occupying resources (PENDING or RUNNING), id-ordered."""
        return [c for c in self._id_ordered() if c.is_active]

    def serving_containers(self) -> list[Container]:
        """RUNNING containers, id-ordered."""
        return [c for c in self._id_ordered() if c.is_serving]

    def allocated(self) -> ResourceVector:
        """Sum of active containers' requested resources."""
        return ResourceVector.sum(
            ResourceVector(c.cpu_request, c.mem_limit, c.net_rate) for c in self._id_ordered() if c.is_active
        )

    def available(self) -> ResourceVector:
        """Unreserved capacity (never negative: clamped at zero)."""
        return (self.capacity - self.allocated()).clamp_floor(0.0)

    def hosts_service(self, service: str) -> bool:
        """True if any active container on this node belongs to ``service``."""
        return any(c.service == service for c in self.active_containers())

    def can_fit(self, request: ResourceVector) -> bool:
        """True if the requested allocation fits in current availability."""
        return request.fits_within(self.available())

    def add_container(self, container: Container, *, enforce_capacity: bool = True) -> None:
        """Host a container, wiring up its NIC shaping class."""
        if container.container_id in self.containers:
            raise ClusterError(f"container {container.container_id} already on node {self.name}")
        request = ResourceVector(container.cpu_request, container.mem_limit, container.net_rate)
        if enforce_capacity and not self.can_fit(request):
            raise CapacityError(
                f"node {self.name}: {request} does not fit in {self.available()}"
            )
        self.containers[container.container_id] = container
        self._by_id = None
        container._host = self
        self.generation += 1
        # HTB guarantee at the container's allocated rate with borrowing up
        # to link capacity: Docker cannot hard-cap network without tc, and
        # the paper's platform leaves container NICs work-conserving (only
        # the Section III microbenchmarks shape hard; they configure their
        # qdiscs explicitly).
        self.nic.attach(container.container_id, rate=container.net_rate)

    def remove_container(self, container_id: str, now: float, *, oom: bool = False) -> Container:
        """Stop and unhost a container; in-flight requests become removal failures."""
        container = self.containers.get(container_id)
        if container is None:
            raise ClusterError(f"container {container_id} not on node {self.name}")
        if container.is_active:
            container.terminate(now, oom=oom)
        self.finished.extend(container.drain_finished())
        if self.nic.is_attached(container_id):
            self.nic.detach(container_id)
        del self.containers[container_id]
        self._by_id = None
        container._host = None
        self.generation += 1
        return container

    def detach_container(self, container_id: str) -> Container:
        """Unhost a container *without* terminating it (live migration).

        The container keeps its in-flight requests; the caller re-attaches
        it to another node via :meth:`add_container`.
        """
        container = self.containers.get(container_id)
        if container is None:
            raise ClusterError(f"container {container_id} not on node {self.name}")
        if self.nic.is_attached(container_id):
            self.nic.detach(container_id)
        del self.containers[container_id]
        self._by_id = None
        container._host = None
        self.generation += 1
        return container

    def reshape_network(self, container_id: str, rate: float) -> None:
        """Apply a vertical network-rate change down to the NIC."""
        container = self.containers.get(container_id)
        if container is None:
            raise ClusterError(f"container {container_id} not on node {self.name}")
        container.net_rate = float(rate)
        self.nic.reshape(container_id, rate=rate)
        self.generation += 1

    # ------------------------------------------------------------------
    # Per-step machinery
    # ------------------------------------------------------------------
    def step(self, now: float, dt: float) -> None:
        """Advance every hosted container by one step ending at ``now``."""
        if self._vouched_at == self.generation:
            # Quiet and unchanged since the last quiet step: the idle write
            # would store the values already there.
            return
        quiet = self._quiet_serving()
        if quiet is not None:
            # Every serving container is idle and fair share grants each its
            # background CPU (see DESIGN.md, "The idle-container write").
            _write_idle(quiet, self.overheads.container_background_cpu, self.overheads)
            self._vouched_at = self.generation
            return
        self._vouched_at = -1

        # Only boots change who is serving, so one id-ordered list serves
        # the three schedulers and settlement.  A plain container with
        # nothing in flight is idle: it claims only its background CPU and
        # skips the per-container passes.
        running, plain = ContainerState.RUNNING, Container
        serving: list[Container] = []
        idle: list[bool] = []
        working: list[Container] = []
        for container in self._id_ordered():
            container.tick_boot(dt)
            if container.state is running:
                serving.append(container)
                is_idle = not container.inflight and type(container) is plain
                idle.append(is_idle)
                if not is_idle:
                    working.append(container)
        cpu_grants = self._schedule_cpu(serving, idle, dt)
        self._schedule_disk(working, dt)
        self._schedule_network(working, dt)

        # One id-ordered loop for idle and working containers keeps the
        # order of OOM kills and finished requests.
        for container, granted, is_idle in zip(serving, cpu_grants, idle):
            if is_idle:
                _write_idle((container,), granted, container.overheads)
            else:
                container.settle_requests(now)
            if container._mem_usage > container.overheads.oom_factor * container.mem_limit:
                # The kernel kills the worst offender; requests die as
                # removal failures.  The daemon reaps the carcass.
                container.terminate(now, oom=True)
                self.last_oom_kills.append(container)
            if container.finished:
                self.finished.extend(container.drain_finished())

    def _quiet_serving(self) -> list[Container] | None:
        """The serving containers if this node is quiet, else ``None``.

        Quiet means nothing hosted can change this step beyond the idle
        usage refresh: no in-flight request, no container booting, no
        container whose base memory alone trips the OOM threshold, and
        total background CPU demand within half the node's capacity over
        at most 64 claimants (unless background CPU is zero), so fair
        share grants every serving container exactly its background.
        Container subclasses (the stress generators) make their own demand
        without requests, so they always take the full step.
        """
        overheads = self.overheads
        base_memory = overheads.container_base_memory
        oom_factor = overheads.oom_factor
        # Enum members and the class as locals: this scan runs once per
        # node per step.
        running, pending, plain = ContainerState.RUNNING, ContainerState.PENDING, Container
        serving = []
        for container in self.containers.values():
            state = container.state
            if state is running:
                if (
                    container.inflight
                    or base_memory > oom_factor * container.mem_limit
                    or type(container) is not plain
                ):
                    return None
                serving.append(container)
            elif state is pending:
                return None
        background = overheads.container_background_cpu
        n = len(serving)
        if n * background <= 0.5 * self.capacity.cpu and (background == 0.0 or n <= 64):
            return serving
        return None

    def _schedule_cpu(self, containers: list[Container], idle: list[bool], dt: float) -> list[float]:
        """Weighted fair-share CPU with the co-location contention penalty.

        Advances the working containers and returns every container's grant;
        an idle container demands ``min(bg, cap)``, what :meth:`Container.cpu_demand`
        gives with nothing in flight.
        """
        if not containers:
            return []
        capacity = self.capacity.cpu
        demands = [
            min(c.overheads.container_background_cpu, capacity) if is_idle else c.cpu_demand(capacity)
            for c, is_idle in zip(containers, idle)
        ]
        weights = [float(c.cpu_shares) for c in containers]
        grants = weighted_fair_share(capacity, demands, weights)

        background = self.overheads.container_background_cpu
        busy = sum(1 for d in demands if d > background + 1e-12)
        contention = 1.0
        if busy >= 2:
            contention = min(
                1.0 + self.overheads.colocation_contention * (busy - 1),
                self.overheads.colocation_cap,
            )
        for container, granted, is_idle in zip(containers, grants, idle):
            if not is_idle:
                container.advance(ResourceGrants(cpu=granted, contention=contention), dt)
        return grants

    def _schedule_disk(self, containers: list[Container], dt: float) -> None:
        """Fair-share the disk device over containers with pending I/O.

        Zero offers change no other grant (the device shares only among
        positive loads), so idle containers are left out.
        """
        offered = {c.container_id: c.disk_demand(dt) for c in containers}
        if not any(load > 0 for load in offered.values()):
            for c in containers:
                c._disk_usage = 0.0
            return
        grants = self.disk.transfer(offered)
        for container in containers:
            container.advance(ResourceGrants(disk=grants.get(container.container_id, 0.0)), dt)

    def _schedule_network(self, containers: list[Container], dt: float) -> None:
        """HTB shaping + tx-queue contention over the working containers.

        Zero offers change no other grant (HTB allocates only to positive
        offers), so idle containers are left out.
        """
        offered = {c.container_id: c.net_demand(dt) for c in containers}
        if not any(load > 0 for load in offered.values()):
            for c in containers:
                c._net_usage = 0.0
            return
        throughput = self.nic.transmit(offered)
        for container in containers:
            granted = throughput.get(container.container_id, 0.0)
            if granted == 0.0:
                container._net_usage = 0.0  # what spending a zero grant writes
            else:
                container.advance(ResourceGrants(net=granted), dt)

    def drain_finished(self) -> list[Request]:
        """Hand over and clear requests that finished on this node."""
        finished, self.finished = self.finished, []
        return finished

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Node({self.name}, containers={len(self.containers)}, avail={self.available()})"
