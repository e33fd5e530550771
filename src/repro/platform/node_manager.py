"""Node manager (NM).

"Each node runs a single NM, in charge of monitoring the combined
microservice resource usage of all microservices stationed on that node"
(Section V-B).  Our NM:

* samples ``docker stats`` for every hosted container each step, keeping
  one frame per step (every active container's usage readings) over the
  MONITOR's query window, and the allocations of the latest frame; a node
  that vouches for its containers gets the shared quiet frame without a
  read,
* answers the MONITOR's query for the whole node in one pass: each
  container's mean usage over the last query period and its allocations,
* executes vertical scaling commands by invoking ``docker update``.

Deliberately *no* decision logic lives here: the paper found that NMs making
their own locally-optimal vertical decisions fight the MONITOR and cause
oscillation, so "the decision-making logic for resource allocation resides
solely with the MONITOR and not the NMs".
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from itertools import chain
from operator import is_, truediv

from repro.cluster.container import ACTIVE_STATES, Container
from repro.dockersim.daemon import DockerDaemon
from repro.dockersim.stats import StatsSample
from repro.errors import ContainerNotFound, DockerSimError
from repro.sim.clock import SimClock

#: Readings per container in a frame: the four usages, in
#: :class:`~repro.dockersim.stats.StatsSample` field order.
USAGES = 4

#: One container's answer to a window query, in
#: :class:`~repro.core.view.ReplicaView` field order: each allocation from
#: the latest frame, followed by the mean of its usage over the window.
Row = tuple[float, float, float, float, float, float, float, float]


class NodeManager:
    """Stats aggregation and vertical-op execution for one node."""

    def __init__(self, daemon: DockerDaemon, window_horizon: float = 30.0):
        if window_horizon <= 0:
            raise DockerSimError(f"horizon must be positive, got {window_horizon}")
        self.daemon = daemon
        self.node = daemon.node
        #: Seconds of frames kept; a query over a longer window reads them all.
        self.horizon = float(window_horizon)
        overheads = self.node.overheads
        #: What the idle-container write leaves on a container of a quiet
        #: node (DESIGN.md, "The idle-container write").
        self._quiet = (overheads.container_background_cpu, overheads.container_base_memory, 0.0, 0.0)
        #: The last all-quiet query: ``(ids, frames, allocations, rows)``.
        self._quiet_rows: tuple[tuple[str, ...], int, list[float], dict[str, Row]] | None = None
        #: One frame per recorded step: ``(timestamp, ids, usages)``, the
        #: usages of every active container (ids in hosting order) in one
        #: flat tuple, or ``None`` when they are all the quiet readings: the
        #: node's one shared quiet row.  One tuple per frame keeps the
        #: garbage collector's work per step independent of the container
        #: count; frames share the ids tuple while membership is unchanged.
        self._frames: deque[tuple[float, tuple[str, ...], tuple[float, ...] | None]] = deque()
        self._recorded = 0
        #: The number of the frame each tracked container's history began in.
        self._first_seen: dict[str, int] = {}
        self._active: list[Container] = []
        self._ids: tuple[str, ...] = ()
        self._quiet_frame: tuple[float, ...] = ()
        #: The allocations of every active container in the latest frame,
        #: four per container in :data:`Row` order.
        self._allocations: list[float] = []
        #: The node's generation at the last read by value if that read gave
        #: the quiet frame, else -1.
        self._quiet_generation = -1

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def on_step(self, clock: SimClock) -> None:
        """Record one ``docker stats`` frame of every active container.

        A container absent from a frame loses its history, so one that
        leaves and later returns starts afresh, as a new container would.

        While the node vouches for its containers (``Node.vouched``) at the
        generation whose read by value gave the quiet frame, nothing that
        read sees has changed, so the quiet frame is recorded again with the
        same ids and allocations (DESIGN.md, "The idle-container write").
        """
        now = clock.now
        node = self.node
        frames = self._frames
        generation = node.generation
        if generation == self._quiet_generation and node.vouched:
            if frames and now < frames[-1][0]:
                # The time-order rule below, for the same containers.
                if self._ids:
                    raise DockerSimError("samples must be recorded in time order")
                frames.clear()
            frames.append((now, self._ids, None))
        else:
            active: list[Container] = []
            usages: list[float] = []
            allocations: list[float] = []
            for c in node.containers.values():
                if c.state in ACTIVE_STATES:
                    active.append(c)
                    usages += c.readings()
                    allocations += (c.cpu_request, c.mem_limit, c.net_rate, c.disk_quota)
            if frames and now < frames[-1][0]:
                # Only a container with history needs its samples in order;
                # with none continuing, every history starts afresh.
                if not self._first_seen.keys().isdisjoint(c.container_id for c in active):
                    raise DockerSimError("samples must be recorded in time order")
                frames.clear()
            if active != self._active:
                self._active = active
                ids = tuple(c.container_id for c in active)
                if ids != self._ids:
                    first_seen, recorded = self._first_seen, self._recorded
                    self._first_seen = {cid: first_seen.get(cid, recorded) for cid in ids}
                    self._ids, self._quiet_frame = ids, self._quiet * len(ids)
            readings = tuple(usages)
            quiet = readings == self._quiet_frame
            frames.append((now, self._ids, None if quiet else readings))
            self._allocations = allocations
            self._quiet_generation = generation if quiet else -1
        self._recorded += 1
        cutoff = now - self.horizon
        while frames[0][0] < cutoff:
            frames.popleft()

    def latest(self) -> tuple[tuple[str, ...], tuple[float, ...], list[float]] | None:
        """The latest frame: the active container ids in hosting order, their
        usages (the quiet row written out) and their allocations, four per
        container in :data:`Row` order; ``None`` before the first frame."""
        if not self._frames:
            return None
        _, ids, usages = self._frames[-1]
        return ids, self._quiet * len(ids) if usages is None else usages, self._allocations

    # ------------------------------------------------------------------
    # Queries (what the MONITOR pulls each period)
    # ------------------------------------------------------------------
    def window_rows(self, window: float) -> dict[str, Row]:
        """Every tracked container's :data:`Row` over the trailing ``window``
        seconds, in one pass over the node's frames.

        A container's usages are averaged over its frames in the window, in
        chronological order, with the builtin ``sum``; a zero window reads
        the latest frame alone.  These are the floats
        :meth:`repro.dockersim.stats.StatsWindow.mean_over` gives over the
        same samples.
        """
        if not window >= 0.0:
            raise DockerSimError(f"query window must be a non-negative number of seconds, got {window!r}")
        frames = self._frames
        if not frames:
            return {}
        since = frames[-1][0] - window
        picked = []
        for frame in reversed(frames):
            if frame[0] < since:
                break
            picked.append(frame)
        picked.reverse()
        ids, quiet = self._ids, self._quiet_frame
        if picked[0][1] is ids:
            usages = [quiet if u is None else u for _, _, u in picked]
        else:
            usages = _aligned(picked, ids, self._quiet)
        m = len(picked)
        recorded, first_seen, allocations = self._recorded, self._first_seen, self._allocations
        if usages.count(quiet) == m and recorded - max(first_seen.values(), default=recorded) >= m:
            # Every container's readings are the node's shared quiet row over
            # the whole window: all rows share one fold, and while the
            # allocations are the very objects of the last such query, so
            # are the rows.
            kept = self._quiet_rows
            if kept is None or kept[0] is not ids or kept[1] != m or not all(map(is_, kept[2], allocations)):
                means = tuple(sum((v,) * m) / m for v in self._quiet) * len(ids)
                kept = self._quiet_rows = (ids, m, allocations, _rows(ids, allocations, means))
            return dict(kept[3])
        # A container's history runs unbroken up to the latest frame, so it
        # is the last ``k`` frames of the window.
        counts = [min(m, recorded - first_seen[cid]) for cid in ids for _ in range(USAGES)]
        columns = [column[m - k :] for column, k in zip(zip(*usages), counts)]
        return _rows(ids, allocations, list(map(truediv, map(sum, columns), counts)))

    def mean_stats(self, container_id: str, window: float) -> StatsSample:
        """Mean usage of one container over the trailing ``window`` seconds,
        taken from :meth:`window_rows`."""
        row = self.window_rows(window).get(container_id)
        if row is None:
            raise ContainerNotFound(f"node manager has no stats for {container_id}")
        return StatsSample(
            timestamp=self._frames[-1][0],
            cpu_usage=row[1],
            cpu_request=row[0],
            mem_usage=row[3],
            mem_limit=row[2],
            net_usage=row[5],
            net_rate=row[4],
            disk_usage=row[7],
            disk_quota=row[6],
        )

    def tracked_containers(self) -> list[str]:
        """Ids with at least one recorded sample, sorted."""
        return sorted(self._first_seen)

    # ------------------------------------------------------------------
    # Commands (what the MONITOR pushes)
    # ------------------------------------------------------------------
    def apply_vertical(
        self,
        container_id: str,
        *,
        cpu_request: float | None = None,
        mem_limit: float | None = None,
        net_rate: float | None = None,
    ) -> None:
        """Execute a vertical resize via ``docker update`` / tc reshape."""
        self.daemon.update(
            container_id,
            cpu_request=cpu_request,
            mem_limit=mem_limit,
            net_rate=net_rate,
        )


def _rows(ids: tuple[str, ...], allocations: list[float], means: Sequence[float]) -> dict[str, Row]:
    """One :data:`Row` per container from its four allocations and means."""
    flat: list[float] = [0.0] * (2 * len(means))
    flat[0::2] = allocations
    flat[1::2] = means
    return dict(zip(ids, zip(*[iter(flat)] * (2 * USAGES))))


def _aligned(
    picked: list[tuple[float, tuple[str, ...], tuple[float, ...] | None]],
    ids: tuple[str, ...],
    quiet: tuple[float, ...],
) -> list[tuple[float, ...]]:
    """The frames' usages laid out in the order of ``ids``.

    Used when membership changed inside the window.  A slot of a container
    that a frame does not hold is filled but never read: the frame lies
    before that container's history.
    """
    absent = (0.0,) * USAGES
    aligned = []
    offsets: dict[tuple[str, ...], dict[str, int]] = {}
    for _, frame_ids, usages in picked:
        if usages is None:
            usages = quiet * len(frame_ids)
        offset = offsets.get(frame_ids)
        if offset is None:
            offset = offsets[frame_ids] = {cid: USAGES * j for j, cid in enumerate(frame_ids)}
        aligned.append(
            tuple(
                chain.from_iterable(
                    usages[offset[cid] : offset[cid] + USAGES] if cid in offset else absent for cid in ids
                )
            )
        )
    return aligned
