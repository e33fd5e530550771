"""The layers the benchmark's tracer wraps by name must exist.

``perfbench/tracing.py`` replaces simulator functions with timing wrappers,
looking each one up by name, and puts the originals back on exit.  Entering
its ``instrument`` block here makes a deleted or renamed layer fail the
test suite, not only the benchmark.
"""

import importlib.util
from pathlib import Path

from repro.cluster.node import Node
from repro.dockersim.api import DockerClient
from repro.dockersim.daemon import DockerDaemon
from repro.platform.monitor import Monitor
from repro.platform.node_manager import NodeManager

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
