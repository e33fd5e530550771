"""SimSan: the recording simulation sanitizer.

In the style of ASAN/TSAN for the discrete-event simulator: opt-in,
bracketed around every engine step, and silent unless an invariant the
paper's results rest on actually breaks.  Three families of checks:

**Conservation** (``check="conservation"``) — after each step, every node
must satisfy the physics the testbed machines impose: the sum of active
containers' CPU requests ≤ cores, memory limits ≤ capacity, shaped network
rates ≤ NIC line rate, measured CPU/egress usage ≤ capacity, and every
active container's HTB class rate must agree with its allocated
``net_rate`` (the tc view and the daemon view of the same number).

**Ledger consistency** (``check="ledger"``) — the :class:`ClusterView`
snapshot the monitor hands to policies (and through it the
``NodeLedger``'s opening balances) must be byte-consistent with the actual
:class:`~repro.cluster.node.Node` state at the instant it was built:
identical capacity and allocation vectors, and every replica view backed
by a live container on the claimed node.

**Tick-aliasing** (``check="aliasing"``) — the sim analog of a race
detector.  Each domain of mutable simulation state has a declared writer
set (which engine phases may change it); the sanitizer snapshots each
domain at the step bracket, diffs after every actor, and flags any actor
that changed a domain it does not own.

Plus two cheap ordering checks: simulated time must advance strictly
monotonically between step brackets (``check="time"``), and after
``fire_due`` no event with ``due <= now`` may remain queued
(``check="events"``).

**Request phases** (``check="phase"``) — the processor-sharing kernel
trusts each request's stored ``phase``; after every step it must equal
the phase :meth:`~repro.workloads.requests.Request.derive_phase` computes
from the request's remaining work, for every in-flight request.

**Vouched nodes** (``check="quiet"``) — a node that vouches for its
containers (:attr:`~repro.cluster.node.Node.vouched`) skips its step, and
its manager records the shared quiet frame without reading it.  After
every step each vouched node is read by value: every serving container
must hold exactly the idle readings, nothing may be in flight or
booting, and its node manager's latest frame must equal a read of its
usages and allocations.  A write that goes around the generation bumps
shows here instead of as a stale frame.

Violations are recorded as frozen :class:`~repro.sanitizer.SanViolation`
records (never raised mid-run — the sanitizer observes, it does not
perturb), exported via :mod:`repro.sanitizer.export`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from repro.cluster.container import ContainerState
from repro.errors import SanitizerError
from repro.sanitizer.records import SanViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import Node
    from repro.core.view import ClusterView
    from repro.platform.node_manager import NodeManager

#: Which engine phases may legitimately write each state domain.  The
#: ``"events"`` pseudo-phase covers callbacks fired from the event queue at
#: the end of the step (boot completions, delayed actions).
DOMAIN_WRITERS: Mapping[str, frozenset[str]] = {
    # Machines joining/leaving and their capacities: only fault injection
    # ("dynamic addition and removal of machines").
    "fleet": frozenset({"faults"}),
    # Per-container reservations and liveness: placement/vertical scaling
    # (monitor), OOM kills and lifecycle (cluster), crashes (faults).
    "allocations": frozenset({"faults", "cluster", "monitor", "events"}),
    # Service -> replica membership: scaling and reaping (monitor),
    # terminations (cluster), crash cleanup (faults).
    "services": frozenset({"faults", "cluster", "monitor", "events"}),
}


class SimSanitizer:
    """Records invariant violations for one bound cluster.

    Parameters
    ----------
    tolerance:
        Relative slack for float comparisons against capacities.  The
        monitor's headroom clamps and the placement ledger both admit
        allocations up to a few ulps past capacity; anything beyond
        ``tolerance * max(1, capacity)`` is a real violation.
    max_violations:
        Recording cap — a systemically broken run would otherwise flood
        memory with one record per step.  :attr:`truncated` reports
        whether the cap was hit.
    extra_writers:
        Additional ``domain -> actor names`` grants for experiments that
        register custom actors which legitimately mutate cluster state.
    """

    def __init__(
        self,
        *,
        tolerance: float = 1e-6,
        max_violations: int = 1000,
        extra_writers: Mapping[str, Iterable[str]] | None = None,
    ) -> None:
        if tolerance < 0:
            raise SanitizerError(f"tolerance must be non-negative, got {tolerance}")
        if max_violations < 1:
            raise SanitizerError(f"max_violations must be positive, got {max_violations}")
        self.tolerance = tolerance
        self.max_violations = max_violations
        self._writers = {
            domain: writers | frozenset(extra_writers.get(domain, ()) if extra_writers else ())
            for domain, writers in DOMAIN_WRITERS.items()
        }
        self._cluster: Cluster | None = None
        self._node_managers: Mapping[str, NodeManager] = {}
        self._violations: list[SanViolation] = []
        self._dropped = 0
        self._open = False
        self._step = 0
        self._last_now: float | None = None
        self._baseline: dict[str, tuple] = {}
        #: Completed step brackets (inspected by tests and ``check.py``).
        self.steps_checked = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, *, cluster: "Cluster", node_managers: "Mapping[str, NodeManager]") -> None:
        """Attach the cluster whose invariants this sanitizer audits, and the
        node managers (by node name) whose frames the ``quiet`` check reads."""
        if self._cluster is not None and self._cluster is not cluster:
            raise SanitizerError(
                "sanitizer is already bound to a different cluster; "
                "build one SimSanitizer per simulation"
            )
        self._cluster = cluster
        self._node_managers = node_managers

    def _require_cluster(self, hook: str) -> "Cluster":
        if self._cluster is None:
            raise SanitizerError(f"{hook} called before bind(cluster=...)")
        return self._cluster

    # ------------------------------------------------------------------
    # Engine hooks (the step bracket)
    # ------------------------------------------------------------------
    def begin_step(self, *, now: float, step: int) -> None:
        """Open the bracket: monotonic-time check + domain baselines."""
        cluster = self._require_cluster("begin_step")
        if self._open:
            raise SanitizerError(
                f"begin_step at t={now} while the t={self._last_now} bracket is still open"
            )
        self._open = True
        self._step = step
        if self._last_now is not None and now <= self._last_now:
            self._record(
                now=now,
                check="time",
                subject="clock",
                message="simulated time failed to advance monotonically",
                detail=f"previous step ended at t={self._last_now!r}, this step began at t={now!r}",
            )
        self._last_now = now
        self._baseline = self._probe(cluster)

    def after_actor(self, *, name: str, now: float) -> None:
        """Diff every domain; flag changes by an actor outside its writer set."""
        cluster = self._require_cluster("after_actor")
        self._require_open("after_actor")
        self._diff_domains(cluster, phase=name, now=now)

    def end_step(self, *, now: float, next_due: float | None, fired: int) -> None:
        """Close the bracket: event-phase diff, queue order, conservation,
        phases, vouched nodes."""
        cluster = self._require_cluster("end_step")
        self._require_open("end_step")
        self._diff_domains(cluster, phase="events", now=now)
        if next_due is not None and next_due <= now:
            self._record(
                now=now,
                check="events",
                subject="event-queue",
                message="a due event survived fire_due (queue ordering broken)",
                detail=f"next_due={next_due!r} <= now={now!r}",
            )
        self.check_conservation(now=now)
        self.check_phases(now=now)
        self.check_quiet(now=now)
        self._open = False
        self.steps_checked += 1

    def _require_open(self, hook: str) -> None:
        if not self._open:
            raise SanitizerError(f"{hook} called outside a begin_step/end_step bracket")

    # ------------------------------------------------------------------
    # Tick-aliasing: domain snapshots + write-set diffing
    # ------------------------------------------------------------------
    def _probe(self, cluster: "Cluster") -> dict[str, tuple]:
        """Cheap structural snapshot of every tracked state domain."""
        nodes = sorted(cluster.nodes.items())
        return {
            "fleet": tuple((name, node.capacity) for name, node in nodes),
            "allocations": tuple(
                (
                    name,
                    tuple(
                        (cid, c.cpu_request, c.mem_limit, c.net_rate, c.is_active)
                        for cid, c in sorted(node.containers.items())
                    ),
                )
                for name, node in nodes
            ),
            "services": tuple(
                (name, tuple(c.container_id for c in service.active_replicas()))
                for name, service in sorted(cluster.services.items())
            ),
        }

    def _diff_domains(self, cluster: "Cluster", *, phase: str, now: float) -> None:
        current = self._probe(cluster)
        for domain, snapshot in current.items():
            if snapshot == self._baseline[domain]:
                continue
            if phase not in self._writers[domain]:
                self._record(
                    now=now,
                    check="aliasing",
                    subject=phase,
                    message=f"phase {phase!r} wrote the {domain!r} domain it does not own",
                    detail=f"allowed writers: {sorted(self._writers[domain])}",
                )
            # Re-baseline either way so one mutation is reported once, by
            # the phase that made it.
            self._baseline[domain] = snapshot

    # ------------------------------------------------------------------
    # Conservation
    # ------------------------------------------------------------------
    def check_conservation(self, *, now: float) -> None:
        """Audit every node's resource sums against physical capacity."""
        cluster = self._require_cluster("check_conservation")
        for name, node in sorted(cluster.nodes.items()):
            self._check_node(name, node, now)

    def _slack(self, capacity: float) -> float:
        return self.tolerance * max(1.0, abs(capacity))

    def _check_node(self, name: str, node: "Node", now: float) -> None:
        allocated = node.allocated()
        capacity = node.capacity
        axes = (
            ("cpu", allocated.cpu, capacity.cpu, "cores"),
            ("memory", allocated.memory, capacity.memory, "MiB"),
            ("network", allocated.network, capacity.network, "Mbit/s"),
        )
        for axis, total, cap, unit in axes:
            if total > cap + self._slack(cap):
                self._record(
                    now=now,
                    check="conservation",
                    subject=f"{name}/{axis}",
                    message=f"allocated {axis} exceeds node capacity",
                    detail=f"sum of container requests {total!r} {unit} > capacity {cap!r} {unit}",
                )
        active = node.active_containers()
        cpu_used = sum(c.cpu_usage for c in active)
        if cpu_used > capacity.cpu + self._slack(capacity.cpu):
            self._record(
                now=now,
                check="conservation",
                subject=f"{name}/cpu-usage",
                message="measured CPU usage exceeds the node's cores",
                detail=f"sum of container usage {cpu_used!r} > capacity {capacity.cpu!r} cores",
            )
        egress = sum(c.net_usage for c in active)
        if egress > capacity.network + self._slack(capacity.network):
            self._record(
                now=now,
                check="conservation",
                subject=f"{name}/egress",
                message="aggregate egress exceeds the NIC line rate",
                detail=f"sum of container throughput {egress!r} > capacity "
                f"{capacity.network!r} Mbit/s",
            )
        for container in active:
            cid = container.container_id
            if not node.nic.is_attached(cid):
                self._record(
                    now=now,
                    check="conservation",
                    subject=f"{name}/{cid}",
                    message="active container has no HTB class on the node NIC",
                )
                continue
            shaped = node.nic.rate_of(cid)
            if abs(shaped - container.net_rate) > self._slack(container.net_rate):
                self._record(
                    now=now,
                    check="conservation",
                    subject=f"{name}/{cid}",
                    message="HTB class rate disagrees with the container's net_rate",
                    detail=f"tc class rate {shaped!r} != allocated {container.net_rate!r} Mbit/s",
                )

    # ------------------------------------------------------------------
    # Request phases
    # ------------------------------------------------------------------
    def check_phases(self, *, now: float) -> None:
        """Every in-flight request's stored phase must be its derived phase."""
        cluster = self._require_cluster("check_phases")
        for name, node in sorted(cluster.nodes.items()):
            for cid, container in sorted(node.containers.items()):
                for request in container.inflight:
                    derived = request.derive_phase()
                    if request.phase is not derived:
                        self._record(
                            now=now,
                            check="phase",
                            subject=f"{name}/{cid}/{request.request_id}",
                            message="stored request phase disagrees with its remaining work",
                            detail=f"stored {request.phase} != derived {derived}",
                        )

    # ------------------------------------------------------------------
    # Vouched nodes
    # ------------------------------------------------------------------
    def check_quiet(self, *, now: float) -> None:
        """Read every vouched node by value: idle readings, nothing in flight
        or booting, and a manager frame equal to the read."""
        cluster = self._require_cluster("check_quiet")
        for name, node in sorted(cluster.nodes.items()):
            if not node.vouched:
                continue
            overheads = node.overheads
            # The four usages and the network headroom the idle write leaves.
            idle = (overheads.container_background_cpu, overheads.container_base_memory, 0.0, 0.0, 0.0)
            for cid, container in sorted(node.containers.items()):
                if container.inflight or container.state is ContainerState.PENDING:
                    self._record(
                        now=now,
                        check="quiet",
                        subject=f"{name}/{cid}",
                        message="a vouched node hosts a container with work in flight or booting",
                        detail=f"state {container.state.value}, {len(container.inflight)} in flight",
                    )
                elif container.is_serving:
                    readings = (
                        container.cpu_usage,
                        container.mem_usage,
                        container.net_usage,
                        container.disk_usage,
                        container._net_cpu_headroom,
                    )
                    if readings != idle:
                        self._record(
                            now=now,
                            check="quiet",
                            subject=f"{name}/{cid}",
                            message="a serving container of a vouched node holds other than the idle readings",
                            detail=f"readings {readings!r} != idle {idle!r}",
                        )
            manager = self._node_managers.get(name)
            latest = None if manager is None else manager.latest()
            if latest is None:
                continue
            active = [c for c in node.containers.values() if c.is_active]
            read = (
                tuple(c.container_id for c in active),
                tuple(v for c in active for v in (c.cpu_usage, c.mem_usage, c.net_usage, c.disk_usage)),
                [v for c in active for v in (c.cpu_request, c.mem_limit, c.net_rate, c.disk_quota)],
            )
            if latest != read:
                self._record(
                    now=now,
                    check="quiet",
                    subject=name,
                    message="the node manager's latest frame of a vouched node disagrees with a read by value",
                    detail=f"frame {latest!r} != read {read!r}",
                )

    # ------------------------------------------------------------------
    # Monitor hook: view/ledger consistency
    # ------------------------------------------------------------------
    def check_view(self, *, now: float, view: "ClusterView") -> None:
        """A freshly built view must mirror live node state exactly.

        The view's per-node ``allocated``/``capacity`` vectors seed the
        policies' :class:`~repro.core.policy.NodeLedger` opening balances;
        any drift here means policies plan against phantom resources.
        Comparison is exact (``==`` on frozen vectors): the view was built
        from the same floats in the same order an instant ago.
        """
        cluster = self._require_cluster("check_view")
        for node_view in view.nodes:
            node = cluster.nodes.get(node_view.name)
            if node is None:
                self._record(
                    now=now,
                    check="ledger",
                    subject=node_view.name,
                    message="view lists a node the cluster does not host",
                )
                continue
            if node_view.capacity != node.capacity:
                self._record(
                    now=now,
                    check="ledger",
                    subject=f"{node_view.name}/capacity",
                    message="view capacity disagrees with the node's capacity",
                    detail=f"view {node_view.capacity} != node {node.capacity}",
                )
            actual = node.allocated()
            if node_view.allocated != actual:
                self._record(
                    now=now,
                    check="ledger",
                    subject=f"{node_view.name}/allocated",
                    message="view allocation disagrees with the node's live allocation",
                    detail=f"view {node_view.allocated} != node {actual}",
                )
        for service in view.services:
            for replica in service.replicas:
                node = cluster.nodes.get(replica.node)
                container = None if node is None else node.containers.get(replica.container_id)
                if container is None or not container.is_active:
                    self._record(
                        now=now,
                        check="ledger",
                        subject=f"{service.name}/{replica.container_id}",
                        message="view replica is not a live container on its claimed node",
                        detail=f"claimed node {replica.node!r}",
                    )

    # ------------------------------------------------------------------
    # Recording + reads
    # ------------------------------------------------------------------
    def _record(
        self, *, now: float, check: str, subject: str, message: str, detail: str = ""
    ) -> None:
        if len(self._violations) >= self.max_violations:
            self._dropped += 1
            return
        self._violations.append(
            SanViolation(
                now=now,
                step=self._step,
                check=check,
                subject=subject,
                message=message,
                detail=detail,
            )
        )

    def violations(self) -> tuple[SanViolation, ...]:
        """Every recorded violation, in discovery order."""
        return tuple(self._violations)

    @property
    def truncated(self) -> bool:
        """True when the :attr:`max_violations` recording cap was hit."""
        return self._dropped > 0

    def __len__(self) -> int:
        return len(self._violations)

    def clear(self) -> None:
        """Drop recorded violations (bracket state is untouched)."""
        self._violations.clear()
        self._dropped = 0
