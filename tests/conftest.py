"""Shared fixtures and builders for the test suite.

The view builders (:func:`make_replica`, :func:`make_service`,
:func:`make_node`, :func:`make_view`) let policy tests construct cluster
snapshots declaratively instead of spinning up a whole simulation.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.cluster.container import Container
from repro.cluster.node import Node
from repro.cluster.resources import ResourceVector
from repro.config import ClusterConfig, OverheadModel, SimulationConfig
from repro.core.view import ClusterView, NodeView, ReplicaView, ServiceView

_ids = itertools.count(1)


# ----------------------------------------------------------------------
# The --simsan lane: run the whole suite under the recording sanitizer
# ----------------------------------------------------------------------
def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--simsan",
        action="store_true",
        default=False,
        help="inject a recording SimSanitizer into every Simulation.build "
        "call and fail any test whose runs violate a simulation invariant",
    )


@pytest.fixture(autouse=True)
def _simsan_lane(request: pytest.FixtureRequest, monkeypatch: pytest.MonkeyPatch):
    """Under ``--simsan``, audit every simulation the test builds.

    Builds whose ``Observe`` already carries a sanitizer are left alone;
    every other build (profiled and telemetry runs included: observers
    compose) gets a fresh :class:`~repro.sanitizer.SimSanitizer`, and the
    test fails if any of its runs recorded a violation.
    """
    if not request.config.getoption("--simsan"):
        yield
        return

    from repro.experiments.runner import Simulation
    from repro.instrument import Observe
    from repro.sanitizer import SimSanitizer, render_san_report

    recorders: list[SimSanitizer] = []
    original = Simulation.build.__func__

    def build(cls, **kwargs):
        observe = kwargs.get("observe", Observe())
        if observe.sanitizer is None:
            recorder = SimSanitizer()
            kwargs["observe"] = dataclasses.replace(observe, sanitizer=recorder)
            recorders.append(recorder)
        return original(cls, **kwargs)

    monkeypatch.setattr(Simulation, "build", classmethod(build))
    yield
    violations = tuple(v for recorder in recorders for v in recorder.violations())
    if violations:
        pytest.fail("--simsan: " + render_san_report(violations), pytrace=False)


@pytest.fixture
def overheads() -> OverheadModel:
    """An overhead model with every overhead switched off — tests of
    scheduler arithmetic should not fight contention constants."""
    return OverheadModel(
        colocation_contention=0.0,
        colocation_cap=1.0,
        distribution_log_coeff=0.0,
        container_base_memory=100.0,
        container_background_cpu=0.0,
        container_boot_delay=0.0,
        swap_slowdown=0.5,
        oom_factor=2.0,
        txq_penalty_max=0.0,
        txq_penalty_half_rate=35.0,
        txq_oversub_penalty=0.0,
        net_cpu_per_mbit=0.0,
    )


@pytest.fixture
def paper_overheads() -> OverheadModel:
    """The calibrated defaults (for tests of the overheads themselves)."""
    return OverheadModel()


@pytest.fixture
def node(overheads) -> Node:
    """A paper-shaped machine: 4 cores, 8 GiB, 1 Gbit/s."""
    return Node("n0", ResourceVector(4.0, 8192.0, 1000.0), overheads)


@pytest.fixture
def small_config() -> SimulationConfig:
    """A 3-node cluster config for integration tests."""
    return SimulationConfig(cluster=ClusterConfig(worker_nodes=3), seed=1)


def make_container(
    service: str = "svc",
    *,
    cpu: float = 0.5,
    mem: float = 512.0,
    net: float = 50.0,
    boot: float = 0.0,
    concurrency: int = 16,
    overheads: OverheadModel | None = None,
) -> Container:
    """A container with sane defaults for unit tests."""
    return Container(
        service=service,
        replica_index=next(_ids),
        cpu_request=cpu,
        mem_limit=mem,
        net_rate=net,
        boot_delay=boot,
        max_concurrency=concurrency,
        overheads=overheads,
    )


# ----------------------------------------------------------------------
# View builders for policy tests
# ----------------------------------------------------------------------
def make_replica(
    container_id: str,
    *,
    service: str = "svc",
    node: str = "n0",
    cpu_request: float = 0.5,
    cpu_usage: float = 0.25,
    mem_limit: float = 512.0,
    mem_usage: float = 200.0,
    net_rate: float = 50.0,
    net_usage: float = 10.0,
    disk_quota: float = 50.0,
    disk_usage: float = 0.0,
    booting: bool = False,
) -> ReplicaView:
    """One replica snapshot."""
    return ReplicaView(
        container_id=container_id,
        service=service,
        node=node,
        booting=booting,
        cpu_request=cpu_request,
        cpu_usage=cpu_usage,
        mem_limit=mem_limit,
        mem_usage=mem_usage,
        net_rate=net_rate,
        net_usage=net_usage,
        disk_quota=disk_quota,
        disk_usage=disk_usage,
    )


def make_service(
    name: str = "svc",
    replicas: tuple[ReplicaView, ...] = (),
    *,
    min_replicas: int = 1,
    max_replicas: int = 16,
    target: float = 0.5,
    base_cpu: float = 0.5,
    base_mem: float = 512.0,
    base_net: float = 50.0,
) -> ServiceView:
    """One service snapshot."""
    return ServiceView(
        name=name,
        min_replicas=min_replicas,
        max_replicas=max_replicas,
        target_utilization=target,
        base_cpu_request=base_cpu,
        base_mem_limit=base_mem,
        base_net_rate=base_net,
        replicas=replicas,
    )


def make_node_view(
    name: str = "n0",
    *,
    capacity: ResourceVector | None = None,
    allocated: ResourceVector | None = None,
    services: tuple[str, ...] = (),
) -> NodeView:
    """One node snapshot (defaults: paper hardware, nothing allocated)."""
    return NodeView(
        name=name,
        capacity=capacity or ResourceVector(4.0, 8192.0, 1000.0),
        allocated=allocated or ResourceVector.zero(),
        services=services,
    )


def make_view(
    services: tuple[ServiceView, ...] = (),
    nodes: tuple[NodeView, ...] = (),
    now: float = 100.0,
) -> ClusterView:
    """A full cluster snapshot; nodes default to hosting the replicas
    referenced by the services."""
    if not nodes:
        node_names = sorted(
            {r.node for s in services for r in s.replicas} or {"n0"}
        )
        hosted: dict[str, set[str]] = {n: set() for n in node_names}
        allocated: dict[str, ResourceVector] = {n: ResourceVector.zero() for n in node_names}
        for s in services:
            for r in s.replicas:
                hosted[r.node].add(s.name)
                allocated[r.node] = allocated[r.node] + ResourceVector(
                    r.cpu_request, r.mem_limit, r.net_rate
                )
        nodes = tuple(
            make_node_view(n, allocated=allocated[n], services=tuple(sorted(hosted[n])))
            for n in node_names
        )
    return ClusterView(now=now, services=services, nodes=nodes)
