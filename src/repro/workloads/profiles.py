"""Microservice resource-consumption profiles.

The paper's evaluation drives "a custom Java microservice with configurable
workload": each instantiation is told how much of each resource to consume
per incoming request (Section VI).  A :class:`MicroserviceProfile` is that
configuration — mean per-request demands plus a lognormal jitter so request
sizes vary realistically but reproducibly.

The four canonical profiles mirror the paper's experiment matrix:
CPU-bound, memory-bound, network-bound, and mixed CPU+memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.requests import Request


@dataclass(frozen=True)
class MicroserviceProfile:
    """Per-request resource demands for one class of microservice."""

    name: str
    #: Mean compute per request, core-seconds.
    cpu_per_request: float
    #: Mean transient memory per in-flight request, MiB.
    mem_per_request: float
    #: Mean response payload, Mbit.
    net_per_request: float
    #: Mean disk I/O per request, MB (0 for the paper's three-axis profiles;
    #: used by the disk extension).
    disk_per_request: float = 0.0
    #: Lognormal sigma applied to each demand draw (0 disables jitter).
    jitter_sigma: float = 0.25
    #: Client-side timeout for requests of this class, seconds.
    timeout: float = 30.0

    def __post_init__(self) -> None:
        # Written so that NaN fails too.
        if not (
            0 <= self.cpu_per_request < math.inf
            and 0 <= self.mem_per_request < math.inf
            and 0 <= self.net_per_request < math.inf
            and 0 <= self.disk_per_request < math.inf
        ):
            raise WorkloadError(f"profile {self.name!r}: demands must be finite and non-negative")
        if not 0 <= self.jitter_sigma < math.inf:
            raise WorkloadError(f"profile {self.name!r}: jitter_sigma must be >= 0 and finite")
        if not 0 < self.timeout < math.inf:
            raise WorkloadError(f"profile {self.name!r}: timeout must be positive and finite")

    def make_request(
        self,
        service: str,
        now: float,
        rng: np.random.Generator,
        request_id: int | None = None,
    ) -> Request:
        """Stamp one request with jittered demands.

        ``request_id`` lets the load generator allocate ids from its own
        per-run sequence (ids feed balancer sharding, so a process-global
        sequence would make back-to-back runs diverge); when omitted, the
        module-level fallback sequence is used.
        """
        request = Request(
            service=service,
            arrival_time=now,
            cpu_work=self._draw(self.cpu_per_request, rng),
            mem_footprint=self._draw(self.mem_per_request, rng),
            net_mbits=self._draw(self.net_per_request, rng),
            disk_mb=self._draw(self.disk_per_request, rng),
            timeout=self.timeout,
        )
        if request_id is not None:
            request.request_id = request_id
        return request

    def _draw(self, mean: float, rng: np.random.Generator) -> float:
        """Lognormal draw with the configured sigma and unit mean scaling."""
        if mean == 0:
            return 0.0
        if self.jitter_sigma == 0:
            return mean
        # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2); choose mu so the
        # draw's mean equals ``mean`` exactly.
        mu = -0.5 * self.jitter_sigma**2
        return mean * float(rng.lognormal(mu, self.jitter_sigma))


#: CPU-bound: each request burns 250 ms of core time and little else.
CPU_BOUND = MicroserviceProfile(
    name="cpu_bound",
    cpu_per_request=0.25,
    mem_per_request=4.0,
    net_per_request=0.1,
)

#: Memory-bound: requests hold a large working set while in flight, and the
#: compute actually *touches* that memory — so when the limit forces swap,
#: every request's compute crawls (the Section III-B "drastic degradation").
MEMORY_BOUND = MicroserviceProfile(
    name="memory_bound",
    cpu_per_request=0.12,
    mem_per_request=60.0,
    net_per_request=0.1,
)

#: Network-bound: a 12 Mbit response per request, with the "moderate use of
#: CPU caused by networking system calls" the paper notes in Section VI-A
#: (most of the CPU cost comes from transmission, via
#: ``OverheadModel.net_cpu_per_mbit``, not from the compute phase).
NETWORK_BOUND = MicroserviceProfile(
    name="network_bound",
    cpu_per_request=0.02,
    mem_per_request=4.0,
    net_per_request=12.0,
)

#: Mixed CPU and memory — the workload where HyScale_CPU+Mem shines and
#: CPU-only scalers swap themselves into trouble (Figure 7).
MIXED = MicroserviceProfile(
    name="mixed",
    cpu_per_request=0.15,
    mem_per_request=90.0,
    net_per_request=0.4,
)

#: Disk-bound (extension): each request reads/writes a few MB; compute is
#: trivial, so only spindle bandwidth and seek thrash gate throughput —
#: invisible to every CPU-driven scaler.
DISK_BOUND = MicroserviceProfile(
    name="disk_bound",
    cpu_per_request=0.008,
    mem_per_request=6.0,
    net_per_request=0.2,
    disk_per_request=6.0,
)
