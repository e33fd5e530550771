"""The benchmark's three workloads, built only through public entry points.

Every workload is open loop in simulated time (Poisson arrivals drawn from
the repo's load patterns) and closed loop in wall time (the runner calls
``engine.step()`` back to back).  Each one simulates a fixed horizon, so
every repeat of one workload and seed produces the same ``RunSummary``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable
from unittest import mock

from repro.cluster.microservice import MicroserviceSpec
from repro.cluster.node import Node
from repro.cluster.placement import PlacementStrategy
from repro.cluster.resources import ResourceVector
from repro.config import ClusterConfig, SimulationConfig
from repro.experiments.runner import Simulation
from repro.workloads import MIXED, HighBurstLoad, ServiceLoad
from repro.workloads.registry import resolve_app, resolve_workload

#: The autoscaling policy each workload runs under.
POLICIES = {
    "paper-mixed": "hybridmem",
    "three-tier": "hybridmem",
    "fleet-1000": "hybridmem",
}


@dataclass(frozen=True)
class Scenario:
    """One workload: how to build it and how far to simulate it."""

    name: str
    #: ``build(seed)`` -> a fresh, fully deployed :class:`Simulation`.
    build: Callable[[int], Simulation]
    #: Simulated seconds per repeat, warm-up included.  Fixed, so repeats
    #: are identical.
    horizon_s: float
    #: Simulated seconds of the untimed default-seed run whose digest is
    #: pinned: a prefix of the horizon, so the check costs little of a run.
    pin_horizon_s: float
    #: Extra builds after each repeat, so ``setup_s`` is a median of
    #: samples spread over the whole run.
    extra_builds: int


class RoundRobinPlacement(PlacementStrategy):
    """O(1)-amortized placement for the 1,000-node fleet.

    The shipped strategies rank every feasible node per decision, which is
    O(nodes x containers) per replica and swamps a 10,000-replica
    deployment.  This walks the node list with a cursor and takes the first
    node that fits, so the spread is deterministic and cheap.
    """

    def __init__(self) -> None:
        self._cursor = 0

    def choose(
        self,
        nodes: list[Node],
        request: ResourceVector,
        *,
        exclude_service: str | None = None,
    ) -> Node | None:
        count = len(nodes)
        for probe in range(count):
            node = nodes[(self._cursor + probe) % count]
            if node.can_fit(request):
                self._cursor = (self._cursor + probe + 1) % count
                return node
        return None

    def rank(self, candidates: list[Node], request: ResourceVector) -> Node:
        return candidates[0]


def _paper_shape(factory: Callable[..., object], seed: int):
    """The factory's high-burst spec at paper shape (15 services, 19 workers).

    The experiment factories size their fleets from ``REPRO_FULL`` when
    called, so the variable is set for the call only.
    """
    with mock.patch.dict(os.environ, {"REPRO_FULL": "1"}):
        return factory("high", seed=seed)


def _from_factory(spec, policy: str) -> Simulation:
    return Simulation.build(
        config=spec.config,
        specs=list(spec.specs),
        loads=list(spec.loads),
        policy=policy,
        workload_label=spec.label,
        app=spec.app,
    )


def build_paper_mixed(seed: int) -> Simulation:
    factory, _ = resolve_workload("mixed")
    return _from_factory(_paper_shape(factory, seed), POLICIES["paper-mixed"])


def build_three_tier(seed: int) -> Simulation:
    return _from_factory(_paper_shape(resolve_app("three-tier"), seed), POLICIES["three-tier"])


#: fleet-1000 shape: workers, quiet fill services x replicas, bursty services.
FLEET_NODES = 1000
FLEET_FILL = (20, 500)
FLEET_HOT = 40
#: Burst period of the hot services (the paper factories' 150 s).
FLEET_PERIOD = 150.0


def build_fleet_1000(seed: int) -> Simulation:
    """1,000 workers, ~10k quiet fill replicas, 40 bursty ``mixed`` services."""
    config = SimulationConfig(cluster=ClusterConfig(worker_nodes=FLEET_NODES), seed=seed)
    specs = []
    loads = []
    for i in range(FLEET_HOT):
        name = f"mixed-{i:02d}"
        specs.append(
            MicroserviceSpec(
                name=name,
                cpu_request=0.5,
                mem_limit=512.0,
                net_rate=50.0,
                min_replicas=1,
                max_replicas=16,
                target_utilization=0.5,
                profile="mixed",
            )
        )
        # The Fig 7 high-burst shape, phases staggered over the period.
        loads.append(
            ServiceLoad(
                service=name,
                profile=MIXED,
                pattern=HighBurstLoad(
                    base=4.5,
                    peak=18.0,
                    period=FLEET_PERIOD,
                    duty=0.3,
                    phase=FLEET_PERIOD * i / FLEET_HOT,
                    ramp=6.0,
                ),
            )
        )
    services, replicas = FLEET_FILL
    for i in range(services):
        specs.append(
            MicroserviceSpec(
                name=f"fill-{i:02d}",
                cpu_request=0.05,
                mem_limit=128.0,
                net_rate=1.0,
                min_replicas=replicas,
                max_replicas=replicas,
            )
        )
    return Simulation.build(
        config=config,
        specs=specs,
        loads=loads,
        policy=POLICIES["fleet-1000"],
        workload_label="fleet-1000",
        placement=RoundRobinPlacement(),
    )


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(name="paper-mixed", build=build_paper_mixed, horizon_s=300.0, pin_horizon_s=150.0, extra_builds=10),
        Scenario(name="three-tier", build=build_three_tier, horizon_s=1350.0, pin_horizon_s=450.0, extra_builds=10),
        Scenario(name="fleet-1000", build=build_fleet_1000, horizon_s=20.0, pin_horizon_s=10.0, extra_builds=1),
    )
}
