"""Experiment harness: canonical configs for every paper figure, the runner
that wires platform + workload + policy into one simulation, and the
Section III microbenchmarks."""

from repro.experiments.configs import (
    ExperimentSpec,
    bitbrains,
    cpu_bound,
    disk_bound,
    make_policy,
    memory_bound,
    mixed,
    network_bound,
)
from repro.experiments.runner import Simulation
from repro.experiments.spec import (
    SWEEP_SCHEMA,
    RunSpec,
    SweepSpec,
    derive_shard_seed,
)
from repro.experiments.suite import (
    ReproductionResult,
    render_reproduction,
    reproduce_evaluation,
)

__all__ = [
    "ExperimentSpec",
    "Simulation",
    "RunSpec",
    "SweepSpec",
    "derive_shard_seed",
    "SWEEP_SCHEMA",
    "make_policy",
    "cpu_bound",
    "memory_bound",
    "mixed",
    "network_bound",
    "disk_bound",
    "bitbrains",
    "ReproductionResult",
    "reproduce_evaluation",
    "render_reproduction",
]
