"""Workload substrate: requests, load patterns, microservice profiles,
open-loop generation, application graphs, and the synthetic Bitbrains
trace — plus the workload/profile/app name registry."""

from repro.workloads.bitbrains import BitbrainsTrace, generate_bitbrains_trace
from repro.workloads.generator import ClientLoadGenerator, ServiceLoad
from repro.workloads.graph import (
    AppRequest,
    ApplicationSpec,
    CallEdge,
    ServiceGraph,
    three_tier_app,
    three_tier_graph,
)
from repro.workloads.patterns import (
    CompositeLoad,
    ConstantLoad,
    DiurnalLoad,
    FlashCrowdLoad,
    HighBurstLoad,
    LoadPattern,
    LowBurstLoad,
    TraceLoad,
)
from repro.workloads.profiles import (
    CPU_BOUND,
    DISK_BOUND,
    MEMORY_BOUND,
    MIXED,
    NETWORK_BOUND,
    MicroserviceProfile,
)
from repro.workloads.registry import (
    register_app,
    register_profile,
    register_workload,
    registered_apps,
    registered_profiles,
    registered_workloads,
    resolve_app,
    resolve_profile,
    resolve_workload,
)
from repro.workloads.requests import FailureReason, Request, RequestState

__all__ = [
    "AppRequest",
    "ApplicationSpec",
    "CallEdge",
    "ServiceGraph",
    "three_tier_app",
    "three_tier_graph",
    "register_app",
    "register_profile",
    "register_workload",
    "registered_apps",
    "registered_profiles",
    "registered_workloads",
    "resolve_app",
    "resolve_profile",
    "resolve_workload",
    "Request",
    "RequestState",
    "FailureReason",
    "LoadPattern",
    "ConstantLoad",
    "LowBurstLoad",
    "HighBurstLoad",
    "TraceLoad",
    "DiurnalLoad",
    "FlashCrowdLoad",
    "CompositeLoad",
    "MicroserviceProfile",
    "CPU_BOUND",
    "MEMORY_BOUND",
    "NETWORK_BOUND",
    "MIXED",
    "DISK_BOUND",
    "ClientLoadGenerator",
    "ServiceLoad",
    "BitbrainsTrace",
    "generate_bitbrains_trace",
]
