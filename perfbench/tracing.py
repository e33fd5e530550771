"""Span tracing for the per-layer breakdown, done entirely from outside ``src``.

:func:`instrument` replaces public functions of the simulator's layers
with timing wrappers and puts every original back when the block exits.
Wrappers never change arguments or results, so a traced run reproduces
the untraced ``RunSummary`` exactly.

Every wrapped call is a span.  A span's self time is its duration minus
the time covered by the spans it encloses, so the self times of all
layers plus the self time of the enclosing step (``sim.unattributed``)
add up to the traced step time.  Step- and actor-level spans are kept in
memory as ``(name, step, start, end)`` rows; per-container leaf calls are
only aggregated into per-layer counters (calls, total, self), so a
1,000-node run does not keep millions of span objects.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Iterator

from repro.cluster import node as node_module
from repro.cluster.container import Container
from repro.cluster.node import Node
from repro.dockersim.api import DockerClient
from repro.dockersim.daemon import DockerDaemon
from repro.metrics.collector import MetricsCollector
from repro.netsim.interface import NetworkInterface
from repro.platform.graph import GraphRouter
from repro.platform.load_balancer import LoadBalancer
from repro.platform.monitor import Monitor
from repro.platform.node_manager import NodeManager
from repro.sim.engine import Engine
from repro.sim.events import EventQueue

TIMER = time.perf_counter

#: Layer that owns each engine actor's own (self) time.  Actors not listed
#: here (``faults``) are not wrapped; their time stays unattributed.
ACTOR_LAYERS = {
    "generator": "workloads.generate",
    "lb": "lb.step",
    "cluster": "cluster.node_self",
    "app-router": "graph.step",
    "node-managers": "nm.record",
    "monitor": "monitor.apply",
    "metrics": "metrics.record",
}

#: Every layer that carries self time, in report order.
LAYERS = (
    "workloads.generate",
    "graph.ingress",
    "lb.submit",
    "lb.step",
    "cluster.node_self",
    "cluster.container_scan",
    "cluster.cpu_demand",
    "cluster.fairshare",
    "cluster.advance_cpu",
    "cluster.disk_demand",
    "cluster.advance_disk",
    "cluster.net_demand",
    "netsim.transmit",
    "cluster.advance_net",
    "cluster.settle",
    "graph.step",
    "nm.record",
    "dockersim.stats",
    "monitor.reap",
    "monitor.build_view",
    "nm.mean_stats",
    "core.decide",
    "monitor.apply",
    "metrics.record",
    "sim.events",
    "trace.quiet_scan",
    "sim.unattributed",
)

#: The enclosing span the benchmark opens around each ``engine.step()``.
STEP = "sim.unattributed"


class Layer:
    """Aggregated spans of one layer."""

    __slots__ = ("calls", "total", "child")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.child = 0.0

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    """Span stack plus per-layer aggregates and traffic counters."""

    def __init__(self) -> None:
        self.layers = {name: Layer() for name in LAYERS}
        #: ``(name, step, start, end)`` for every step and actor span.
        self.spans: list[tuple[str, int, float, float]] = []
        self.step_index = 0
        # One mutable frame per open span: the time its children covered.
        self._stack: list[list[float]] = []
        self._in_cluster = 0
        self.counters = {
            "node_steps": 0,
            "quiet_node_steps": 0,
            "inflight_scanned": 0,
            "actions_emitted": 0,
        }

    def reset(self) -> None:
        """Drop everything recorded so far (e.g. during deployment)."""
        if self._stack:
            raise RuntimeError("cannot reset a tracer with open spans")
        # In place: the installed wrappers hold these very objects.
        for layer in self.layers.values():
            layer.calls, layer.total, layer.child = 0, 0.0, 0.0
        self.spans.clear()
        self.step_index = 0
        for key in self.counters:
            self.counters[key] = 0

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _close(self, layer: Layer, frame: list[float], elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        layer.calls += 1
        layer.total += elapsed
        layer.child += frame[0]
        if stack:
            stack[-1][0] += elapsed

    def timed(self, name: str, fn: Callable[..., Any], *, keep: str = "") -> Callable[..., Any]:
        """``fn`` wrapped in a span of layer ``name``.

        A non-empty ``keep`` also stores each span under that label (the
        step- and actor-level spans); otherwise spans are only aggregated.
        """
        layer = self.layers[name]
        stack = self._stack
        close = self._close
        spans = self.spans

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            start = TIMER()
            try:
                return fn(*args, **kwargs)
            finally:
                end = TIMER()
                close(layer, frame, end - start)
                if keep:
                    spans.append((keep, self.step_index, start, end))

        return wrapper

    @contextlib.contextmanager
    def step(self) -> Iterator[None]:
        """The enclosing span of one ``engine.step()``."""
        layer = self.layers[STEP]
        frame = [0.0]
        self._stack.append(frame)
        start = TIMER()
        try:
            yield
        finally:
            end = TIMER()
            self._close(layer, frame, end - start)
            self.spans.append(("step", self.step_index, start, end))
            self.step_index += 1

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def step_seconds(self) -> float:
        """Total traced step time."""
        return self.layers[STEP].total

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer; these sum to :meth:`step_seconds`."""
        return {name: layer.self_time for name, layer in self.layers.items()}


def _patch(patches: list, owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
    original = owner.__dict__[attr]
    patches.append((owner, attr, original))
    setattr(owner, attr, wrapper)


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[list]:
    """Wrap every traced layer; restore all originals on exit.

    Install before ``Simulation.build`` so bound methods captured during
    wiring (the generator's sink, the engine's actors) are the wrappers.
    Yields the patch list ``(owner, attribute, original)``.
    """
    patches: list = []
    try:
        _install(tracer, patches)
        yield patches
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _install(tracer: Tracer, patches: list) -> None:
    timed = tracer.timed
    counters = tracer.counters

    def add_actor(self: Engine, name: str, actor: Any) -> None:
        layer = ACTOR_LAYERS.get(name)
        if layer is not None:
            actor.on_step = timed(layer, actor.on_step, keep=f"actor:{name}")
        if name == "cluster":
            actor.on_step = _count_quiet_nodes(tracer, actor)
        original_add_actor(self, name, actor)

    original_add_actor = Engine.__dict__["add_actor"]
    _patch(patches, Engine, "add_actor", add_actor)

    # -- cluster: the node step and its leaf phases ------------------------
    node_step = timed("cluster.node_self", Node.__dict__["step"])

    def traced_node_step(self: Node, now: float, dt: float) -> None:
        tracer._in_cluster += 1
        try:
            node_step(self, now, dt)
        finally:
            tracer._in_cluster -= 1

    _patch(patches, Node, "step", traced_node_step)

    def scan(fn: Callable[..., Any]) -> Callable[..., Any]:
        # Container scans inside the node step are their own layer; scans
        # made by other layers (monitor view, docker ps) stay in the
        # caller's self time.
        traced = timed("cluster.container_scan", fn)

        def wrapper(self: Node) -> Any:
            if tracer._in_cluster:
                return traced(self)
            return fn(self)

        return wrapper

    _patch(patches, Node, "active_containers", scan(Node.__dict__["active_containers"]))
    _patch(patches, Node, "serving_containers", scan(Node.__dict__["serving_containers"]))
    _patch(
        patches,
        node_module,
        "weighted_fair_share",
        timed("cluster.fairshare", node_module.weighted_fair_share),
    )

    advance = Container.__dict__["advance"]
    advance_by_grant = {
        "cpu": timed("cluster.advance_cpu", advance),
        "disk": timed("cluster.advance_disk", advance),
        "net": timed("cluster.advance_net", advance),
    }

    # The grant dispatch and the queue-depth count run outside the advance
    # spans, so their (small) cost is charged to ``cluster.node_self``.
    def traced_advance(self: Container, grants: Any, dt: float) -> None:
        counters["inflight_scanned"] += len(self.inflight)
        if grants.cpu is not None:
            kind = "cpu"
        elif grants.disk is not None:
            kind = "disk"
        else:
            kind = "net"
        advance_by_grant[kind](self, grants, dt)

    _patch(patches, Container, "advance", traced_advance)
    for attr, layer in (
        ("cpu_demand", "cluster.cpu_demand"),
        ("disk_demand", "cluster.disk_demand"),
        ("net_demand", "cluster.net_demand"),
        ("settle_requests", "cluster.settle"),
    ):
        _patch(patches, Container, attr, timed(layer, Container.__dict__[attr]))
    _patch(patches, NetworkInterface, "transmit", timed("netsim.transmit", NetworkInterface.__dict__["transmit"]))

    # -- balancers and the application graph ------------------------------
    _patch(patches, LoadBalancer, "submit", timed("lb.submit", LoadBalancer.__dict__["submit"]))
    _patch(patches, LoadBalancer, "on_step", timed("lb.step", LoadBalancer.__dict__["on_step"]))
    _patch(patches, GraphRouter, "ingress", timed("graph.ingress", GraphRouter.__dict__["ingress"]))

    # -- node managers and docker stats -----------------------------------
    _patch(patches, NodeManager, "on_step", timed("nm.record", NodeManager.__dict__["on_step"]))
    _patch(patches, DockerDaemon, "stats", timed("dockersim.stats", DockerDaemon.__dict__["stats"]))
    _patch(patches, NodeManager, "mean_stats", timed("nm.mean_stats", NodeManager.__dict__["mean_stats"]))

    # -- monitor ----------------------------------------------------------
    _patch(patches, DockerClient, "reap", timed("monitor.reap", DockerClient.__dict__["reap"]))
    _patch(patches, Monitor, "build_view", timed("monitor.build_view", Monitor.__dict__["build_view"]))
    tick = timed("monitor.apply", Monitor.__dict__["tick"])

    def traced_tick(self: Monitor, now: float) -> Any:
        actions = tick(self, now)
        counters["actions_emitted"] += len(actions)
        return actions

    _patch(patches, Monitor, "tick", traced_tick)

    # -- metrics and events -----------------------------------------------
    _patch(
        patches,
        MetricsCollector,
        "record_requests",
        timed("metrics.record", MetricsCollector.__dict__["record_requests"]),
    )
    _patch(patches, EventQueue, "fire_due", timed("sim.events", EventQueue.__dict__["fire_due"]))


def _count_quiet_nodes(tracer: Tracer, cluster: Any) -> Callable[..., Any]:
    """The cluster actor's step, preceded by a scan for quiet nodes.

    The scan runs just before the cluster actor steps every node, so it sees
    the in-flight sets the node steps see.  It is its own layer
    (``trace.quiet_scan``), so the tracer's bookkeeping is not charged to
    the cluster layers it measures.
    """
    counters = tracer.counters

    def scan() -> None:
        nodes = cluster.nodes.values()
        counters["node_steps"] += len(nodes)
        counters["quiet_node_steps"] += sum(
            1 for node in nodes if not any(c.inflight for c in node.containers.values())
        )

    timed_scan = tracer.timed("trace.quiet_scan", scan)
    cluster_step = cluster.on_step

    def on_step(clock: Any) -> None:
        timed_scan()
        cluster_step(clock)

    return on_step


def trace_policy(tracer: Tracer, policy: Any) -> Callable[[], None]:
    """Wrap one policy instance's ``decide``; returns the undo function.

    The policy object is created inside ``Simulation.build``, so its
    ``decide`` is wrapped on the instance after the build.
    """
    policy.decide = tracer.timed("core.decide", policy.decide)

    def undo() -> None:
        del policy.decide

    return undo


def all_restored(patches: list) -> bool:
    """True when every patched attribute holds its original again."""
    return all(owner.__dict__[attr] is original for owner, attr, original in patches)
