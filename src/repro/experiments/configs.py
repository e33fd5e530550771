"""Canonical experiment configurations for every figure in Section VI.

Each factory returns an :class:`ExperimentSpec` describing one cell of the
paper's evaluation matrix: the microservice fleet, the per-service load
pattern (low-burst or high-burst), and the cluster/monitor settings.  The
four algorithms are built by :func:`make_policy`, so one spec can be run
under each algorithm for a like-for-like comparison — the paper's method.

Scale: the paper runs 15 microservices on 19 worker nodes for an hour.
Full scale reproduces that (set ``REPRO_FULL=1``); the default is a
proportionally shrunk configuration (6 services, 10 nodes, 240 s) so the
complete benchmark suite executes in minutes.  Shrinking preserves the
*ratios* that drive the dynamics (offered load vs. capacity per service),
which is what the orderings depend on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.cluster.microservice import MicroserviceSpec
from repro.config import ClusterConfig, SimulationConfig
from repro.core.policy import AutoscalingPolicy
from repro.core.registry import (
    ALGORITHMS,
    EXTENSION_ALGORITHMS,
    make_policy,
    resolve_policy,
)
from repro.errors import ExperimentError
from repro.experiments.spec import RunSpec, SweepSpec, _shard_seed
from repro.metrics.summary import RunSummary
from repro.workloads.bitbrains import bitbrains_service_loads, generate_bitbrains_trace
from repro.workloads.generator import ServiceLoad
from repro.workloads.graph import ApplicationSpec, three_tier_app
from repro.workloads.registry import register_app, register_workload
from repro.workloads.patterns import HighBurstLoad, LoadPattern, LowBurstLoad
from repro.workloads.profiles import (
    CPU_BOUND,
    DISK_BOUND,
    MEMORY_BOUND,
    MIXED,
    NETWORK_BOUND,
    MicroserviceProfile,
)

#: Client-load burst regimes from Section VI.
BURSTS = ("low", "high")

__all__ = [
    "ALGORITHMS",
    "EXTENSION_ALGORITHMS",
    "BURSTS",
    "ExperimentSpec",
    "Scale",
    "full_scale",
    "make_policy",
    "resolve_policy",
    "cpu_bound",
    "memory_bound",
    "mixed",
    "network_bound",
    "disk_bound",
    "bitbrains",
    "three_tier",
]


def full_scale() -> bool:
    """True when ``REPRO_FULL=1``: paper-scale fleets and durations."""
    return os.environ.get("REPRO_FULL", "") == "1"


@dataclass(frozen=True)
class Scale:
    """Experiment sizing knobs (shrunk by default, paper-scale under
    ``REPRO_FULL=1``).

    ``rate_scale`` keeps the offered-load-to-cluster-capacity ratio
    identical across scales: the default config runs 6 services on 10 nodes
    (0.6 services/node), the paper 15 on 19 (0.79 services/node), so
    paper-scale per-service rates are trimmed by the ratio of those
    densities — the orderings depend on relative pressure, not head count.
    """

    n_services: int
    worker_nodes: int
    duration: float
    bitbrains_vms: int
    rate_scale: float = 1.0

    @classmethod
    def current(cls) -> "Scale":
        if full_scale():
            return cls(
                n_services=15,
                worker_nodes=19,
                duration=3600.0,
                bitbrains_vms=500,
                rate_scale=(19 / 15) / (10 / 6),
            )
        return cls(n_services=6, worker_nodes=10, duration=240.0, bitbrains_vms=100)


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable cell of the evaluation matrix."""

    label: str
    config: SimulationConfig
    specs: tuple[MicroserviceSpec, ...]
    loads: tuple[ServiceLoad, ...]
    duration: float
    #: Application graph for multi-tier cells; ``specs`` must be empty
    #: then (the fleet is derived from the graph's tiers).
    app: ApplicationSpec | None = None

    def to_run_spec(
        self,
        policy: str,
        *,
        seed: int | None = None,
        duration: float | None = None,
    ) -> RunSpec:
        """This cell as a canonical :class:`~repro.experiments.spec.RunSpec`.

        ``seed`` defaults to the cell's own config seed (the "shared"
        derivation); ``duration`` defaults to the cell's full duration.
        """
        return RunSpec(
            label=self.label,
            policy=policy,
            seed=self.config.seed if seed is None else seed,
            duration=self.duration if duration is None else duration,
            config=self.config,
            fleet=self.specs,
            loads=self.loads,
            app=self.app,
        )

    def to_sweep(
        self,
        algorithms: tuple[str, ...] = ALGORITHMS,
        *,
        seed_mode: str = "per_shard",
    ) -> SweepSpec:
        """This cell fanned out over ``algorithms`` as a sweep.

        ``seed_mode`` follows the spec codec's documented derivations:
        ``"per_shard"`` draws an independent seed per algorithm from this
        cell's base seed via :func:`~repro.experiments.spec.derive_shard_seed`;
        ``"shared"`` replays the identical arrival sequence under every
        algorithm (the paper's like-for-like method, and the historic
        ``run_all`` behaviour).
        """
        shards = tuple(
            self.to_run_spec(
                name, seed=_shard_seed(self.config.seed, f"{self.label}/{name}", seed_mode)
            )
            for name in algorithms
        )
        return SweepSpec(shards=shards, seed_mode=seed_mode)

    def run(self, policy: AutoscalingPolicy | str) -> RunSummary:
        """Run this experiment under one algorithm (object or registered name)."""
        from repro.experiments.runner import Simulation

        return Simulation.build(
            config=self.config,
            specs=list(self.specs),
            loads=list(self.loads),
            policy=policy,
            workload_label=self.label,
            app=self.app,
        ).run(self.duration)

    def run_all(
        self,
        algorithms: tuple[str, ...] = ALGORITHMS,
        *,
        seed_mode: str = "per_shard",
        parallel: int = 1,
        cache_dir: str | None = None,
    ) -> dict[str, RunSummary]:
        """Run the same workload under every algorithm, keyed by name.

        Each algorithm now gets its own derived seed by default (the old
        behaviour silently replayed one seed everywhere; pass
        ``seed_mode="shared"`` for that bit-compatible like-for-like
        replay).  ``parallel``/``cache_dir`` are forwarded to
        :meth:`~repro.experiments.spec.SweepSpec.run`.
        """
        result = self.to_sweep(algorithms, seed_mode=seed_mode).run(
            parallel=parallel, cache_dir=cache_dir
        )
        return dict(zip(algorithms, result.summaries))


# ----------------------------------------------------------------------
# Workload construction helpers
# ----------------------------------------------------------------------
def _base_config(scale: Scale, seed: int) -> SimulationConfig:
    return SimulationConfig(
        cluster=ClusterConfig(worker_nodes=scale.worker_nodes),
        seed=seed,
    )


def _pattern(burst: str, base: float, peak: float, index: int, n: int, period: float = 150.0) -> LoadPattern:
    """Per-service pattern with staggered phases so services peak at
    different times (15 independent tenants do not spike in lockstep)."""
    if burst not in BURSTS:
        raise ExperimentError(f"burst must be one of {BURSTS}, got {burst!r}")
    phase = period * index / max(1, n)
    if burst == "low":
        return LowBurstLoad(base=base, amplitude=0.3, period=period, phase=phase)
    return HighBurstLoad(base=base * 0.5, peak=peak, period=period, duty=0.3, phase=phase, ramp=6.0)


def _fleet(
    label: str,
    profile: MicroserviceProfile,
    burst: str,
    *,
    base_rate: float,
    peak_rate: float,
    seed: int,
    mem_limit: float = 512.0,
    net_rate: float = 50.0,
    timeout: float | None = None,
    scale_rates: bool = True,
) -> ExperimentSpec:
    """Build one evaluation fleet.

    ``scale_rates`` applies :attr:`Scale.rate_scale` so cluster-relative
    CPU pressure is identical across scales.  Memory-driven workloads set
    it False: their differentiating mechanism (per-replica working set vs.
    the fixed memory limit) depends on *absolute* per-service rates, which
    must therefore be preserved at paper scale.
    """
    scale = Scale.current()
    config = _base_config(scale, seed)
    if timeout is not None:
        profile = replace(profile, timeout=timeout)
    rate_factor = scale.rate_scale if scale_rates else 1.0
    specs = []
    loads = []
    for i in range(scale.n_services):
        name = f"{profile.name}-{i:02d}"
        specs.append(
            MicroserviceSpec(
                name=name,
                cpu_request=0.5,
                mem_limit=mem_limit,
                net_rate=net_rate,
                min_replicas=1,
                max_replicas=16,
                target_utilization=0.5,
                profile=profile.name,
            )
        )
        loads.append(
            ServiceLoad(
                service=name,
                profile=profile,
                pattern=_pattern(
                    burst,
                    base_rate * rate_factor,
                    peak_rate * rate_factor,
                    i,
                    scale.n_services,
                ),
            )
        )
    return ExperimentSpec(
        label=f"{label}/{burst}-burst",
        config=config,
        specs=tuple(specs),
        loads=tuple(loads),
        duration=scale.duration,
    )


# ----------------------------------------------------------------------
# The paper's experiment matrix (Figures 6-8, 10)
# ----------------------------------------------------------------------
def cpu_bound(burst: str = "low", seed: int = 0) -> ExperimentSpec:
    """Figure 6: CPU-bound microservices under low/high burst."""
    return _fleet("cpu", CPU_BOUND, burst, base_rate=11.0, peak_rate=18.0, seed=seed)


def memory_bound(burst: str = "low", seed: int = 0) -> ExperimentSpec:
    """Section VI: memory-bound loads — the workload on which "the
    Kubernetes and HYSCALE_CPU algorithms are unable to handle ... and
    crash" (their results are omitted from the paper's figures; our
    ablation bench shows why)."""
    return _fleet("memory", MEMORY_BOUND, burst, base_rate=4.0, peak_rate=12.0, seed=seed, scale_rates=False)


def mixed(burst: str = "low", seed: int = 0) -> ExperimentSpec:
    """Figure 7: mixed CPU+memory microservices under low/high burst."""
    return _fleet("mixed", MIXED, burst, base_rate=9.0, peak_rate=18.0, seed=seed, scale_rates=False)


def network_bound(burst: str = "low", seed: int = 0) -> ExperimentSpec:
    """Figure 8: network-bound microservices under low/high burst.

    Replica bandwidth allocations (80 Mbit/s) comfortably cover the stable
    load; the high-burst spikes need more, which only scaling can provide.
    """
    return _fleet(
        "network", NETWORK_BOUND, burst, base_rate=5.0, peak_rate=22.0, seed=seed, net_rate=100.0
    )


def disk_bound(burst: str = "low", seed: int = 0) -> ExperimentSpec:
    """Extension: disk-bound microservices (the resource type the paper
    declares supported but leaves unimplemented).

    Per-replica spindles saturate around 150 MB/s and thrash under
    interleaved streams, so the dedicated disk scaler should win the same
    way the network scaler wins Figure 8.
    """
    return _fleet("disk", DISK_BOUND, burst, base_rate=12.0, peak_rate=36.0, seed=seed)


def bitbrains(seed: int = 0) -> ExperimentSpec:
    """Figure 10: replay of the (synthetic) Bitbrains Rnd trace."""
    scale = Scale.current()
    config = _base_config(scale, seed)
    trace = generate_bitbrains_trace(
        n_vms=scale.bitbrains_vms,
        duration=scale.duration,
        interval=max(10.0, scale.duration / 120.0),
        seed=seed,
    )
    # Trace rates follow the cluster density (rate_scale): the Bitbrains
    # replay aggregates many VMs per service, so its memory pressure tracks
    # *relative* load — validated against Figure 10 at both scales.
    loads = bitbrains_service_loads(
        trace, n_services=scale.n_services, base_rate=10.0 * scale.rate_scale, profile=MIXED
    )
    specs = tuple(
        MicroserviceSpec(
            name=load.service,
            cpu_request=0.5,
            mem_limit=512.0,
            net_rate=50.0,
            min_replicas=1,
            max_replicas=16,
            target_utilization=0.5,
            profile="mixed",
        )
        for load in loads
    )
    return ExperimentSpec(
        label="bitbrains/rnd",
        config=config,
        specs=specs,
        loads=tuple(loads),
        duration=scale.duration,
    )


def three_tier(
    burst: str = "low",
    seed: int = 0,
    *,
    db_max_replicas: int = 16,
) -> ExperimentSpec:
    """Extension: a frontend -> api -> db application graph.

    One ingress tier (``frontend``) takes the client load; every user
    request fans out one ``api`` call which fans out two ``db`` calls, so
    the monitor has to scale tiers it never sees arrivals for.  Capping
    ``db_max_replicas`` turns the db tier into a bottleneck whose
    back-pressure is visible in the frontend's end-to-end percentiles.
    """
    scale = Scale.current()
    config = _base_config(scale, seed)
    app = three_tier_app(db_max_replicas=db_max_replicas)
    loads = (
        ServiceLoad(
            service="frontend",
            profile=CPU_BOUND,
            pattern=_pattern(burst, 6.0 * scale.rate_scale, 14.0 * scale.rate_scale, 0, 1),
        ),
    )
    return ExperimentSpec(
        label=f"three-tier/{burst}-burst",
        config=config,
        specs=(),
        loads=loads,
        duration=scale.duration,
        app=app,
    )


# ----------------------------------------------------------------------
# Registration: the one workload namespace
# ----------------------------------------------------------------------
# The canonical spelling of the evaluation matrix is the workload and app
# tables in :mod:`repro.workloads.registry` (one ``NameRegistry`` each, like
# the policy table).  These calls are the single source of truth.
register_workload("cpu", cpu_bound)
register_workload("memory", memory_bound)
register_workload("mixed", mixed)
register_workload("network", network_bound)
register_workload("disk", disk_bound)
register_workload("bitbrains", bitbrains, takes_burst=False)
register_app("three-tier", three_tier)
