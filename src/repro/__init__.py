"""HyScale reproduction: hybrid and network autoscaling of dockerized
microservices, on a deterministic cluster simulator.

Reproduces Wong, Kwan, Jacobsen & Muthusamy, *HyScale: Hybrid and Network
Scaling of Dockerized Microservices in Cloud Data Centres*, ICDCS 2019.

Quickstart::

    from repro import Simulation, SimulationConfig, HyScaleCpuMem
    from repro.cluster import MicroserviceSpec
    from repro.workloads import CPU_BOUND, LowBurstLoad, ServiceLoad

    spec = MicroserviceSpec(name="api", profile="cpu_bound")
    load = ServiceLoad("api", CPU_BOUND, LowBurstLoad(base=8.0))
    sim = Simulation.build(
        config=SimulationConfig(),
        specs=[spec],
        loads=[load],
        policy=HyScaleCpuMem(),
    )
    summary = sim.run(duration=120.0)
    print(summary.as_row())

See ``examples/`` for full scenarios and ``benchmarks/`` for the scripts
that regenerate every figure in the paper.
"""

from repro.cluster.grants import ResourceGrants
from repro.config import ClusterConfig, OverheadModel, PAPER_CONFIG, SimulationConfig
from repro.core import (
    AddReplica,
    AutoscalingPolicy,
    ClusterView,
    HyScaleCpu,
    HyScaleCpuMem,
    KubernetesHpa,
    NetworkHpa,
    RemoveReplica,
    ScalingAction,
    VerticalScale,
    resolve_policy,
)
from repro.errors import ReproError
from repro.experiments.runner import Simulation
from repro.instrument import Observe
from repro.experiments.spec import RunSpec, SweepSpec
from repro.metrics import (
    MetricsCollector,
    RunSummary,
    ScalingEvent,
    ScalingEventLog,
    Sla,
    TimelinePoint,
    evaluate_sla,
)
from repro.obs import DecisionTracer, PhaseProfiler, Tracer
from repro.parallel import ShardCache, ShardError, SweepExecutor, SweepResult
from repro.sanitizer import Sanitizer, SanViolation, SimSanitizer
from repro.telemetry import MetricRegistry, RunTelemetry, SloTracker

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "SimulationConfig",
    "ClusterConfig",
    "OverheadModel",
    "PAPER_CONFIG",
    # the paper's algorithms
    "AutoscalingPolicy",
    "KubernetesHpa",
    "NetworkHpa",
    "HyScaleCpu",
    "HyScaleCpuMem",
    "resolve_policy",
    # what policies consume and emit
    "ClusterView",
    "ScalingAction",
    "VerticalScale",
    "AddReplica",
    "RemoveReplica",
    # running experiments
    "Simulation",
    "RunSpec",
    "SweepSpec",
    # the scheduling grant bundle
    "ResourceGrants",
    # parallel sweeps
    "SweepExecutor",
    "SweepResult",
    "ShardCache",
    "ShardError",
    # metrics
    "MetricsCollector",
    "RunSummary",
    "Sla",
    "evaluate_sla",
    "TimelinePoint",
    "ScalingEvent",
    "ScalingEventLog",
    # observability: one Observe bundle per run
    "Observe",
    "Tracer",
    "DecisionTracer",
    "PhaseProfiler",
    # streaming telemetry
    "MetricRegistry",
    "RunTelemetry",
    "SloTracker",
    # the simulation sanitizer
    "Sanitizer",
    "SimSanitizer",
    "SanViolation",
    # errors
    "ReproError",
]
