"""The layers the benchmark's tracer wraps by name must exist and be called.

``perfbench/tracing.py`` replaces simulator functions with timing wrappers,
looking each one up by name, and puts the originals back on exit.  Entering
its ``instrument`` block here makes a deleted or renamed layer fail the
test suite, not only the benchmark; stepping a busy simulation inside it
makes a layer that still exists but is no longer called (its time would
move silently into the caller's) fail it too.
"""

import importlib.util
from pathlib import Path

from repro.cluster.microservice import MicroserviceSpec
from repro.cluster.node import Node
from repro.config import ClusterConfig, SimulationConfig
from repro.dockersim.api import DockerClient
from repro.dockersim.daemon import DockerDaemon
from repro.experiments.runner import Simulation
from repro.platform.monitor import Monitor
from repro.platform.node_manager import NodeManager
from repro.workloads import CPU_BOUND, ConstantLoad, ServiceLoad

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_layer_exists_and_is_restored():
    tracing = _load_tracing()
    with tracing.instrument(tracing.Tracer()) as patches:
        wrapped = {(owner, attr) for owner, attr, _ in patches}
    assert tracing.all_restored(patches)
    for target in (
        (NodeManager, "mean_stats"),
        (NodeManager, "on_step"),
        (DockerClient, "reap"),
        (DockerDaemon, "stats"),
        (Monitor, "build_view"),
        (Monitor, "tick"),
        (Node, "active_containers"),
    ):
        assert target in wrapped


#: The per-request layers of a busy step.  ``cluster.container_scan`` and
#: ``nm.mean_stats`` are left out: no caller reaches them any more.
REQUEST_PATH = (
    "lb.submit",
    "cluster.cpu_demand",
    "cluster.fairshare",
    "cluster.advance_cpu",
    "cluster.net_demand",
    "netsim.transmit",
    "cluster.advance_net",
    "cluster.settle",
)


def test_request_path_layers_are_called_in_a_busy_run():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer) as patches:
        simulation = Simulation.build(
            config=SimulationConfig(cluster=ClusterConfig(worker_nodes=2), seed=0),
            specs=[MicroserviceSpec(name="svc", min_replicas=2)],
            loads=[ServiceLoad("svc", CPU_BOUND, ConstantLoad(20.0))],
            policy="hybrid",
        )
        for _ in range(20):
            with tracer.step():
                simulation.engine.step()
    assert tracing.all_restored(patches)
    calls = {name: tracer.layers[name].calls for name in REQUEST_PATH}
    assert all(count > 0 for count in calls.values()), calls
