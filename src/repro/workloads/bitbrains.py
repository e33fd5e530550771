"""Synthetic Bitbrains GWA-T-12 ``Rnd`` workload trace.

The paper replays the Bitbrains ``Rnd`` dataset — resource usage of 500 VMs
from a managed-hosting provider — "re-purposed ... to be applicable to our
microservices use case and scaled ... to run on our cluster" (Section VI-B).
The original trace is distributed by TU Delft and is not bundled here, so we
generate a statistical stand-in calibrated to the published description:

* per-VM CPU utilization is *bursty/spiky* — a diurnal swell plus a Poisson
  spike train over a lognormal base (Figure 9's jagged CPU line);
* per-VM memory is *smoother* — a bounded random walk with mild correlation
  to CPU bursts (Figure 9's flatter memory line);
* the aggregate "exhibits the same behaviour as the low-burst mix and
  high-burst mix workloads" (mixed CPU+memory, alternating calm and spikes).

Generation is fully determined by the seed, so experiments replaying the
trace are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.sim.rng import RngStreams
from repro.workloads.generator import ServiceLoad
from repro.workloads.patterns import TraceLoad
from repro.workloads.profiles import MicroserviceProfile, MIXED


@dataclass(frozen=True)
class VmTrace:
    """One VM's usage series at a fixed sampling interval."""

    vm_id: int
    interval: float  # seconds between samples
    cpu_pct: np.ndarray  # CPU utilization, 0..100
    mem_frac: np.ndarray  # memory used / memory capacity, 0..1

    def __post_init__(self) -> None:
        if len(self.cpu_pct) != len(self.mem_frac) or len(self.cpu_pct) == 0:
            raise WorkloadError("cpu and mem series must be equal-length and non-empty")
        if self.interval <= 0:
            raise WorkloadError("interval must be positive")


@dataclass(frozen=True)
class BitbrainsTrace:
    """The full synthetic ``Rnd`` dataset: many VMs on one time base."""

    vms: tuple[VmTrace, ...]
    interval: float

    def __post_init__(self) -> None:
        if not self.vms:
            raise WorkloadError("trace must contain at least one VM")
        lengths = {len(vm.cpu_pct) for vm in self.vms}
        if len(lengths) != 1:
            raise WorkloadError("all VM series must have the same length")

    @property
    def n_vms(self) -> int:
        """Number of VMs in the trace (500 in the original)."""
        return len(self.vms)

    @property
    def n_samples(self) -> int:
        """Number of samples per VM."""
        return len(self.vms[0].cpu_pct)

    @property
    def duration(self) -> float:
        """Trace span in seconds."""
        return self.n_samples * self.interval

    def times(self) -> np.ndarray:
        """Sample timestamps (seconds, starting at 0)."""
        return np.arange(self.n_samples) * self.interval

    def aggregate_cpu(self) -> np.ndarray:
        """Mean CPU % across VMs at each sample — Figure 9's CPU line."""
        return np.mean([vm.cpu_pct for vm in self.vms], axis=0)

    def aggregate_mem(self) -> np.ndarray:
        """Mean memory fraction across VMs at each sample — Figure 9's memory line."""
        return np.mean([vm.mem_frac for vm in self.vms], axis=0)


#: Stream name the trace generator draws when deriving from a root seed.
TRACE_STREAM = "workloads/bitbrains"


def generate_bitbrains_trace(
    n_vms: int = 500,
    duration: float = 3600.0,
    interval: float = 30.0,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> BitbrainsTrace:
    """Generate the synthetic ``Rnd`` trace.

    Parameters
    ----------
    n_vms:
        Number of VM series (the original dataset has 500).
    duration:
        Trace span in seconds (the original spans a month; experiments
        replay an hour).
    interval:
        Sampling interval in seconds (the original samples every 300 s; we
        default finer so hour-scale replays have enough points).
    seed:
        Root seed.  The generator participates in the single-root-seed
        guarantee by drawing the named :data:`TRACE_STREAM` stream of
        ``RngStreams(seed)``, so the trace is a pure function of the
        arguments and independent of every other consumer of the seed.
    rng:
        Explicitly injected generator; overrides ``seed`` when given (e.g.
        to synthesise a trace from a live run's own stream factory).
    """
    if n_vms < 1:
        raise WorkloadError("n_vms must be >= 1")
    if not 0 < interval <= duration < math.inf:  # written so that NaN fails too
        raise WorkloadError(f"need 0 < interval <= duration < inf, got {interval=}, {duration=}")
    if rng is None:
        rng = RngStreams(seed).stream(TRACE_STREAM)
    n_samples = int(round(duration / interval))
    t = np.arange(n_samples) * interval

    # Cluster-wide burst events: tenants in a shared data centre spike
    # *together* (batch windows, market opens) — this correlation is what
    # keeps the 500-VM aggregate jagged in Figure 9 instead of averaging
    # flat.  Each VM joins each event with some probability.
    n_events = max(1, int(rng.poisson(n_samples / 12)))
    global_events = [
        (
            int(rng.integers(0, n_samples)),  # start sample
            int(rng.integers(2, max(3, n_samples // 10))),  # width
            float(rng.uniform(2.0, 5.0)),  # magnitude multiplier
        )
        for _ in range(n_events)
    ]

    vms = []
    for vm_id in range(n_vms):
        # Base level: most VMs idle low, a few run hot (lognormal).
        base = float(np.clip(rng.lognormal(mean=2.4, sigma=0.7), 1.0, 60.0))
        # Diurnal swell with random phase and period jitter.
        period = duration * float(rng.uniform(0.5, 1.5))
        phase = float(rng.uniform(0, 2 * np.pi))
        swell = 0.35 * base * np.sin(2 * np.pi * t / period + phase)
        # Spike train: bursts arrive Poisson, last a few samples, and can
        # multiply the base several-fold — the "spiking pattern".
        spikes = np.zeros(n_samples)
        burst_rate = rng.uniform(0.01, 0.06)  # private bursts per sample
        n_bursts = rng.poisson(burst_rate * n_samples)
        for _ in range(n_bursts):
            start = int(rng.integers(0, n_samples))
            width = int(rng.integers(1, max(2, n_samples // 20)))
            height = base * float(rng.uniform(1.5, 5.0))
            spikes[start : start + width] += height
        for start, width, magnitude in global_events:
            if rng.random() < 0.35:  # this VM joins the shared event
                spikes[start : start + width] += base * magnitude
        noise = rng.normal(0, 0.1 * base, n_samples)
        cpu = np.clip(base + swell + spikes + noise, 0.0, 100.0)

        # Memory: bounded random walk, gently tugged upward during bursts.
        mem_base = float(rng.uniform(0.25, 0.65))
        steps = rng.normal(0, 0.004, n_samples)
        walk = np.cumsum(steps)
        coupling = 0.0015 * (cpu - base)  # slight CPU->memory correlation
        mem = np.clip(mem_base + walk + coupling, 0.05, 0.95)

        vms.append(VmTrace(vm_id=vm_id, interval=interval, cpu_pct=cpu, mem_frac=mem))

    return BitbrainsTrace(vms=tuple(vms), interval=interval)


def bitbrains_service_loads(
    trace: BitbrainsTrace,
    n_services: int = 15,
    base_rate: float = 4.0,
    profile: MicroserviceProfile = MIXED,
) -> list[ServiceLoad]:
    """Re-purpose the VM trace as request load on ``n_services`` microservices.

    Mirrors the paper's re-purposing: VMs are partitioned evenly into
    service groups; each group's mean CPU series drives that service's
    request rate (`base_rate` requests/s at 25 % group CPU), and the group's
    mean memory level scales the per-request memory footprint around the
    profile's mean.  Services are named ``bb-00 .. bb-NN``.
    """
    if n_services < 1 or n_services > trace.n_vms:
        raise WorkloadError("need 1 <= n_services <= n_vms")
    if base_rate <= 0:
        raise WorkloadError("base_rate must be positive")

    groups: list[list[VmTrace]] = [[] for _ in range(n_services)]
    for i, vm in enumerate(trace.vms):
        groups[i % n_services].append(vm)

    global_mem = float(np.mean([vm.mem_frac.mean() for vm in trace.vms]))
    times = list(trace.times())

    loads = []
    for idx, group in enumerate(groups):
        cpu = np.mean([vm.cpu_pct for vm in group], axis=0)
        mem_level = float(np.mean([vm.mem_frac.mean() for vm in group]))
        rates = [max(0.0, base_rate * c / 25.0) for c in cpu]
        pattern = TraceLoad(times, rates, loop=True)
        # Scale the memory footprint by the group's relative memory appetite,
        # bounded to keep the workload within the mixed regime.
        mem_scale = min(2.0, max(0.5, mem_level / global_mem)) if global_mem > 0 else 1.0
        service_profile = MicroserviceProfile(
            name=f"{profile.name}_bb{idx:02d}",
            cpu_per_request=profile.cpu_per_request,
            mem_per_request=profile.mem_per_request * mem_scale,
            net_per_request=profile.net_per_request,
            jitter_sigma=profile.jitter_sigma,
            timeout=profile.timeout,
        )
        loads.append(ServiceLoad(service=f"bb-{idx:02d}", profile=service_profile, pattern=pattern))
    return loads
