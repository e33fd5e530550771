"""Node manager (NM).

"Each node runs a single NM, in charge of monitoring the combined
microservice resource usage of all microservices stationed on that node"
(Section V-B).  Our NM:

* samples ``docker stats`` for every hosted container each step, keeping
  one frame per step (every active container's reading) over a trailing
  horizon,
* answers the MONITOR's query for mean usage over the last query period,
* executes vertical scaling commands by invoking ``docker update``.

Deliberately *no* decision logic lives here: the paper found that NMs making
their own locally-optimal vertical decisions fight the MONITOR and cause
oscillation, so "the decision-making logic for resource allocation resides
solely with the MONITOR and not the NMs".
"""

from __future__ import annotations

from collections import deque

from repro.cluster.container import ACTIVE_STATES
from repro.dockersim.daemon import DockerDaemon
from repro.dockersim.stats import StatsSample
from repro.errors import ContainerNotFound, DockerSimError
from repro.sim.clock import SimClock

#: Readings per container in a frame: the usage and allocation fields of
#: :class:`~repro.dockersim.stats.StatsSample`, in its field order.
FIELDS = 8


class NodeManager:
    """Stats aggregation and vertical-op execution for one node."""

    def __init__(self, daemon: DockerDaemon, window_horizon: float = 30.0):
        if window_horizon <= 0:
            raise DockerSimError(f"horizon must be positive, got {window_horizon}")
        self.daemon = daemon
        self.node = daemon.node
        self._horizon = float(window_horizon)
        #: One frame per recorded step: ``(timestamp, offset of each id,
        #: the readings of every active container in one flat tuple)``.
        #: One tuple per frame keeps the garbage collector's work per step
        #: independent of the container count; frames share the offset
        #: map while membership is unchanged.
        self._frames: deque[tuple[float, dict[str, int], tuple[float, ...]]] = deque()
        #: When each tracked container's current history began.
        self._first_seen: dict[str, float] = {}
        self._ids: list[str] = []
        self._offsets: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def on_step(self, clock: SimClock) -> None:
        """Record one ``docker stats`` frame of every active container.

        A container absent from a frame loses its history, so one that
        leaves and later returns starts afresh, as a new container would.
        """
        now = clock.now
        ids = []
        readings: list[float] = []
        for c in self.node.containers.values():
            if c.state in ACTIVE_STATES:
                ids.append(c.container_id)
                readings += (
                    c.cpu_usage,
                    c.cpu_request,
                    c.mem_usage,
                    c.mem_limit,
                    c.net_usage,
                    c.net_rate,
                    c.disk_usage,
                    c.disk_quota,
                )
        frames = self._frames
        if frames and now < frames[-1][0]:
            # Only a container with history needs its samples in order;
            # with none continuing, every history starts afresh.
            if not self._first_seen.keys().isdisjoint(ids):
                raise DockerSimError("samples must be recorded in time order")
            frames.clear()
        if ids != self._ids:
            first_seen = self._first_seen
            self._first_seen = {cid: first_seen.get(cid, now) for cid in ids}
            self._offsets = {cid: FIELDS * column for column, cid in enumerate(ids)}
            self._ids = ids
        frames.append((now, self._offsets, tuple(readings)))
        cutoff = now - self._horizon
        while frames[0][0] < cutoff:
            frames.popleft()

    # ------------------------------------------------------------------
    # Queries (what the MONITOR pulls each period)
    # ------------------------------------------------------------------
    def mean_stats(self, container_id: str, window: float) -> StatsSample:
        """Mean usage of one container over the trailing ``window`` seconds.

        Usages are averaged over the container's frames in the window, in
        chronological order; allocations come from the latest frame (the
        floats :meth:`repro.dockersim.stats.StatsWindow.mean_over` gives
        over the same samples).
        """
        first_seen = self._first_seen.get(container_id)
        if first_seen is None:
            raise ContainerNotFound(f"node manager has no stats for {container_id}")
        latest_ts = self._frames[-1][0]
        since = max(first_seen, latest_ts - window)
        picked = []
        for ts, offsets, readings in reversed(self._frames):
            if ts < since:
                break
            offset = offsets[container_id]
            picked.append(readings[offset : offset + FIELDS])
        picked.reverse()
        n = len(picked)
        cpu, _, mem, _, net, _, disk, _ = zip(*picked)
        latest = picked[-1]
        return StatsSample(
            timestamp=latest_ts,
            cpu_usage=sum(cpu) / n,
            cpu_request=latest[1],
            mem_usage=sum(mem) / n,
            mem_limit=latest[3],
            net_usage=sum(net) / n,
            net_rate=latest[5],
            disk_usage=sum(disk) / n,
            disk_quota=latest[7],
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
