"""The canonical run description: one spelling for "one experiment".

Before this layer existed the same knobs were spelled three ways — the
keyword arguments of a one-shot runner function, :class:`ExperimentSpec`
fields, and ``hyscale-repro run`` flags.  :class:`RunSpec` collapses them into a
single frozen value object that (a) runs directly, (b) serialises to a
canonical ``repro.sweep/1`` JSON document, and (c) is therefore picklable,
content-addressable, and safe to ship to a worker process unchanged.

:class:`SweepSpec` is the grid form: an explicit, ordered shard list over
``(workload, burst, algorithm, seed)``.  Its order *is* the merge order of
:class:`~repro.parallel.SweepExecutor`, which is how a parallel sweep stays
byte-identical to a serial one.

Seed derivation (the spec codec's contract)
-------------------------------------------
A sweep derives each shard's seed from the grid's base seed in one of two
documented modes, recorded in the codec as ``seed_mode``:

* ``"per_shard"`` (default) — every shard draws an independent seed from
  the base seed through a named :class:`~repro.sim.rng.RngStreams` stream::

      RngStreams(base_seed).stream(f"sweep/{label}/{policy}").integers(0, 2**63 - 1)

  so no two shards share an entropy universe by accident.
* ``"shared"`` — every shard runs under the base seed verbatim.  This is
  the paper's like-for-like method: the same arrival sequence replayed
  under each algorithm.  A shared shard builds the very simulation
  :meth:`ExperimentSpec.run <repro.experiments.configs.ExperimentSpec.run>`
  builds for the same name.

:meth:`ExperimentSpec.to_sweep <repro.experiments.configs.ExperimentSpec.to_sweep>`
is the one place shard seeds are derived; :meth:`SweepSpec.from_grid`,
``reproduce_evaluation`` and the multi-seed helpers in
:mod:`repro.analysis.stats` all take their shards from it.

Only registered policy *names* are allowed in a spec (not policy objects):
a name is serialisable, a closure is not.  Use
:func:`repro.core.registry.register_policy` first if you need a custom
policy inside a sweep.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.cluster.microservice import MicroserviceSpec
from repro.config import ClusterConfig, OverheadModel, SimulationConfig
from repro.errors import ExperimentError
from repro.instrument import Observe
from repro.metrics.summary import RunSummary
from repro.platform.load_balancer import RoutingPolicy
from repro.platform.routing import resolve_routing
from repro.sim.rng import RngStreams
from repro.workloads.generator import ServiceLoad
from repro.workloads.graph import ApplicationSpec
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
from repro.workloads.profiles import MicroserviceProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.cluster.placement import PlacementStrategy
    from repro.experiments.runner import Simulation
    from repro.parallel.result import SweepResult

#: Schema tag embedded in every spec document; bump when the shape changes.
SWEEP_SCHEMA = "repro.sweep/1"

#: The two documented shard-seed derivations (see the module docstring).
SEED_MODES = ("per_shard", "shared")


# ----------------------------------------------------------------------
# Load-pattern codec
# ----------------------------------------------------------------------
#: Pattern class -> (type tag, constructor-field names).  ``ConstantLoad``
#: and ``CompositeLoad`` are handled explicitly (private field / recursion).
_PATTERN_FIELDS: dict[type, tuple[str, tuple[str, ...]]] = {  # lint: disable=PAR001(static codec table mapping pattern class to field names, defined once at import and never written; workers rebuild the identical table on import)
    LowBurstLoad: ("low_burst", ("base", "amplitude", "period", "phase")),
    HighBurstLoad: ("high_burst", ("base", "peak", "period", "duty", "phase", "ramp")),
    DiurnalLoad: ("diurnal", ("trough", "peak", "day_length", "peak_at", "phase")),
    FlashCrowdLoad: ("flash_crowd", ("base", "peak", "onset", "rise_tau", "decay_tau")),
    TraceLoad: ("trace", ("times", "rates", "loop")),
}

_PATTERN_TAGS: dict[str, type] = {tag: cls for cls, (tag, _) in _PATTERN_FIELDS.items()}  # lint: disable=PAR001(derived from _PATTERN_FIELDS at import time and never written afterwards; identical in every worker process)


def pattern_to_dict(pattern: LoadPattern) -> dict:
    """Encode any built-in :class:`LoadPattern` as a type-tagged dict."""
    if isinstance(pattern, ConstantLoad):
        return {"type": "constant", "rate": pattern.rate(0.0)}
    if isinstance(pattern, CompositeLoad):
        return {"type": "composite", "parts": [pattern_to_dict(p) for p in pattern.parts]}
    entry = _PATTERN_FIELDS.get(type(pattern))
    if entry is None:
        raise ExperimentError(
            f"pattern {type(pattern).__name__} has no repro.sweep/1 codec; "
            "only the built-in patterns can appear in a RunSpec"
        )
    tag, fields = entry
    return {"type": tag, **{name: getattr(pattern, name) for name in fields}}


def pattern_from_dict(data: Mapping[str, Any]) -> LoadPattern:
    """Decode a type-tagged pattern dict back into a :class:`LoadPattern`."""
    tag = data.get("type")
    if tag == "constant":
        return ConstantLoad(rate=data["rate"])
    if tag == "composite":
        return CompositeLoad([pattern_from_dict(part) for part in data["parts"]])
    cls = _PATTERN_TAGS.get(str(tag))
    if cls is None:
        raise ExperimentError(f"unknown pattern type tag {tag!r} in spec document")
    kwargs = {key: value for key, value in data.items() if key != "type"}
    return cls(**kwargs)


# ----------------------------------------------------------------------
# Fleet / load / config codecs
# ----------------------------------------------------------------------
def _load_to_dict(load: ServiceLoad) -> dict:
    return {
        "service": load.service,
        "profile": asdict(load.profile),
        "pattern": pattern_to_dict(load.pattern),
    }


def _load_from_dict(data: Mapping[str, Any]) -> ServiceLoad:
    return ServiceLoad(
        service=data["service"],
        profile=MicroserviceProfile(**data["profile"]),
        pattern=pattern_from_dict(data["pattern"]),
    )


def _config_to_dict(config: SimulationConfig) -> dict:
    return asdict(config)


def _config_from_dict(data: Mapping[str, Any]) -> SimulationConfig:
    payload = dict(data)
    cluster = ClusterConfig(**payload.pop("cluster"))
    overheads = OverheadModel(**payload.pop("overheads"))
    return SimulationConfig(cluster=cluster, overheads=overheads, **payload)


def derive_shard_seed(base_seed: int, shard_name: str) -> int:
    """The documented ``seed_mode="per_shard"`` derivation.

    Draws one 63-bit integer from the named stream ``sweep/{shard_name}``
    of ``RngStreams(base_seed)`` — the same discipline every other entropy
    consumer in the simulator follows, so shard seeds are reproducible and
    statistically independent of the simulation's own streams.
    """
    return int(RngStreams(base_seed).stream(f"sweep/{shard_name}").integers(0, 2**63 - 1))


def _canonical(payload: Mapping[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# RunSpec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One fully described experiment run: the unit a sweep shards into.

    Everything that determines the run's *result* lives here — config,
    fleet, loads, policy name, seed, duration, routing — which is why the
    canonical JSON of a ``RunSpec`` can serve as a cache key.  Observation
    (an :class:`~repro.instrument.Observe` bundle) deliberately does not:
    it never changes a result, so it is passed at :meth:`build`/:meth:`run`
    time.
    """

    label: str
    policy: str
    seed: int
    duration: float
    config: SimulationConfig = field(default_factory=SimulationConfig)
    fleet: tuple[MicroserviceSpec, ...] = ()
    loads: tuple[ServiceLoad, ...] = ()
    routing: RoutingPolicy = RoutingPolicy.WEIGHTED_CPU
    timeline_every: float = 5.0
    #: Application graph for multi-tier runs.  Mutually exclusive with
    #: ``fleet`` (the fleet is derived from the graph's tiers); omitted
    #: from the codec when ``None`` so pre-graph spec documents keep
    #: their canonical bytes.
    app: ApplicationSpec | None = None

    def __post_init__(self) -> None:
        if not self.label:
            raise ExperimentError("RunSpec.label must be non-empty")
        if not isinstance(self.policy, str) or not self.policy:
            raise ExperimentError(
                "RunSpec.policy must be a registered algorithm name; "
                "register custom policies via repro.core.registry.register_policy"
            )
        if self.duration <= 0:
            raise ExperimentError("RunSpec.duration must be positive")
        object.__setattr__(self, "fleet", tuple(self.fleet))
        object.__setattr__(self, "loads", tuple(self.loads))
        # Routing may arrive as a registered name (the CLI spelling);
        # normalise to the enum so the codec always writes `.value`.
        object.__setattr__(self, "routing", resolve_routing(self.routing))
        if self.app is not None:
            if self.fleet:
                raise ExperimentError(
                    "RunSpec.app and RunSpec.fleet are mutually exclusive; "
                    "the fleet is derived from the graph's tiers"
                )
            ingress = set(self.app.ingress)
            stray = {load.service for load in self.loads} - ingress
            if stray:
                raise ExperimentError(
                    f"app loads must target ingress tiers {sorted(ingress)}; "
                    f"got {sorted(stray)}"
                )

    @property
    def key(self) -> str:
        """Stable human-readable shard identity: ``label/policy/s<seed>``."""
        return f"{self.label}/{self.policy}/s{self.seed}"

    def effective_config(self) -> SimulationConfig:
        """The simulation config with this spec's seed made authoritative."""
        if self.config.seed == self.seed:
            return self.config
        return self.config.with_overrides(seed=self.seed)

    # -- execution -----------------------------------------------------
    def build(
        self,
        *,
        observe: Observe = Observe(),
        placement: "PlacementStrategy | None" = None,
    ) -> "Simulation":
        """Assemble the :class:`~repro.experiments.runner.Simulation`.

        ``observe`` (tracer, profiler, telemetry, SLO, sanitizer, sampling)
        never participates in the spec's identity (see the class
        docstring): observation changes what a run *records*, never what
        it *does*, so it stays out of the canonical JSON.
        """
        from repro.experiments.runner import Simulation

        return Simulation.build(
            config=self.effective_config(),
            specs=list(self.fleet),
            loads=list(self.loads),
            policy=self.policy,
            workload_label=self.label,
            routing=self.routing,
            app=self.app,
            placement=placement,
            timeline_every=self.timeline_every,
            observe=observe,
        )

    def run(
        self,
        *,
        observe: Observe = Observe(),
        placement: "PlacementStrategy | None" = None,
    ) -> RunSummary:
        """Build and run this spec for its full duration."""
        return self.build(observe=observe, placement=placement).run(self.duration)

    # -- codec ---------------------------------------------------------
    def to_dict(self) -> dict:
        """This spec as a ``repro.sweep/1`` document (plain JSON types)."""
        payload = {
            "schema": SWEEP_SCHEMA,
            "kind": "run_spec",
            "label": self.label,
            "policy": self.policy,
            "seed": self.seed,
            "duration": self.duration,
            "routing": self.routing.value,
            "timeline_every": self.timeline_every,
            "config": _config_to_dict(self.config),
            "fleet": [asdict(spec) for spec in self.fleet],
            "loads": [_load_to_dict(load) for load in self.loads],
        }
        if self.app is not None:
            # Appended conditionally so pre-graph documents (and fresh
            # single-service specs) keep their canonical bytes.
            payload["app"] = self.app.to_dict()
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Decode a ``repro.sweep/1`` run document."""
        schema = data.get("schema")
        if schema != SWEEP_SCHEMA:
            raise ExperimentError(f"unsupported spec schema {schema!r} (want {SWEEP_SCHEMA!r})")
        if data.get("kind") != "run_spec":
            raise ExperimentError(f"expected a run_spec document, got {data.get('kind')!r}")
        return cls(
            label=data["label"],
            policy=data["policy"],
            seed=data["seed"],
            duration=data["duration"],
            config=_config_from_dict(data["config"]),
            fleet=tuple(MicroserviceSpec(**spec) for spec in data["fleet"]),
            loads=tuple(_load_from_dict(load) for load in data["loads"]),
            routing=RoutingPolicy(data.get("routing", RoutingPolicy.WEIGHTED_CPU.value)),
            timeline_every=data.get("timeline_every", 5.0),
            app=(
                ApplicationSpec.from_dict(data["app"]) if data.get("app") is not None else None
            ),
        )

    def canonical_json(self) -> str:
        """Byte-stable encoding (sorted keys, no whitespace): the cache key
        input and the equality witness used by tests."""
        return _canonical(self.to_dict())


# ----------------------------------------------------------------------
# SweepSpec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepSpec:
    """An ordered list of :class:`RunSpec` shards — one whole sweep.

    Shard order is contractual: serial execution, parallel merge, result
    JSON, and telemetry concatenation all follow it, which is what makes
    ``parallel=N`` byte-identical to ``parallel=1``.
    """

    shards: tuple[RunSpec, ...]
    #: How shard seeds were derived from the grid's base seed(s); purely
    #: descriptive once the shards exist, but recorded so a spec document
    #: is self-explaining.  One of :data:`SEED_MODES`.
    seed_mode: str = "per_shard"

    def __post_init__(self) -> None:
        object.__setattr__(self, "shards", tuple(self.shards))
        if not self.shards:
            raise ExperimentError("SweepSpec needs at least one shard")
        if self.seed_mode not in SEED_MODES:
            raise ExperimentError(f"seed_mode must be one of {SEED_MODES}, got {self.seed_mode!r}")
        keys = [shard.key for shard in self.shards]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ExperimentError(f"duplicate shard keys in sweep: {dupes}")

    def __len__(self) -> int:
        return len(self.shards)

    @property
    def keys(self) -> tuple[str, ...]:
        """Every shard's :attr:`RunSpec.key`, in execution order."""
        return tuple(shard.key for shard in self.shards)

    @classmethod
    def from_grid(
        cls,
        workloads: tuple[str, ...],
        bursts: tuple[str, ...] = ("low", "high"),
        algorithms: tuple[str, ...] = ("kubernetes", "hybrid", "hybridmem"),
        seeds: tuple[int, ...] = (0,),
        *,
        seed_mode: str = "per_shard",
        duration: float | None = None,
    ) -> "SweepSpec":
        """The cartesian grid the paper's evaluation is made of.

        Builds each ``(workload, burst)`` cell **once** per base seed via
        the canonical factories in :mod:`repro.experiments.configs` — so
        every algorithm on that cell sees the identical fleet and load
        curves — and takes its shards from the cell's
        :meth:`~repro.experiments.configs.ExperimentSpec.to_sweep`.  Shard
        order is the grid order: workload, then burst, then base seed,
        then algorithm.

        ``duration`` overrides every shard's duration (handy for smoke
        sweeps); seeds follow ``seed_mode`` as documented in the module
        docstring.  A registered factory must build its cell with
        ``config.seed`` equal to the seed it was called with, since the
        shards derive their seeds from the cell's config.
        """
        from repro.workloads.registry import registered_workloads, resolve_workload

        unknown = set(workloads) - set(registered_workloads())
        if unknown:
            raise ExperimentError(
                f"unknown workloads: {sorted(unknown)}; known: {sorted(registered_workloads())}"
            )
        shards: list[RunSpec] = []
        for workload in workloads:
            factory, takes_burst = resolve_workload(workload)
            for burst in bursts if takes_burst else (None,):
                for base_seed in seeds:
                    experiment = (
                        factory(burst, seed=base_seed) if takes_burst else factory(seed=base_seed)
                    )
                    if experiment.config.seed != base_seed:
                        raise ExperimentError(
                            f"workload {workload!r} built a cell with config.seed "
                            f"{experiment.config.seed} when called with seed {base_seed}"
                        )
                    cell = experiment.to_sweep(algorithms, seed_mode=seed_mode).shards
                    if duration is not None:
                        cell = tuple(replace(shard, duration=duration) for shard in cell)
                    shards.extend(cell)
        return cls(shards=tuple(shards), seed_mode=seed_mode)

    # -- execution -----------------------------------------------------
    def run(
        self,
        parallel: int = 1,
        *,
        cache_dir: str | Path | None = None,
        telemetry: bool = False,
        progress: Callable[[RunSpec, str], None] | None = None,
        code_version: str | None = None,
    ) -> "SweepResult":
        """Execute every shard and merge the results in spec order.

        ``parallel`` is the worker-process count (1 = in-process serial,
        guaranteed byte-identical merge either way); ``cache_dir`` enables
        the content-addressed shard cache; ``telemetry=True`` collects a
        per-shard metric snapshot merged into the sweep-level snapshot.
        See :class:`repro.parallel.SweepExecutor` for the mechanics.
        """
        from repro.parallel.cache import ShardCache
        from repro.parallel.executor import SweepExecutor

        cache = None
        if cache_dir is not None:
            cache = (
                ShardCache(cache_dir)
                if code_version is None
                else ShardCache(cache_dir, code_version=code_version)
            )
        executor = SweepExecutor(
            jobs=parallel, cache=cache, collect_telemetry=telemetry, progress=progress
        )
        return executor.run(self)

    # -- codec ---------------------------------------------------------
    def to_dict(self) -> dict:
        """This sweep as a ``repro.sweep/1`` document."""
        return {
            "schema": SWEEP_SCHEMA,
            "kind": "sweep_spec",
            "seed_mode": self.seed_mode,
            "shards": [shard.to_dict() for shard in self.shards],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Decode a ``repro.sweep/1`` sweep document."""
        schema = data.get("schema")
        if schema != SWEEP_SCHEMA:
            raise ExperimentError(f"unsupported spec schema {schema!r} (want {SWEEP_SCHEMA!r})")
        if data.get("kind") != "sweep_spec":
            raise ExperimentError(f"expected a sweep_spec document, got {data.get('kind')!r}")
        return cls(
            shards=tuple(RunSpec.from_dict(shard) for shard in data["shards"]),
            seed_mode=data.get("seed_mode", "per_shard"),
        )

    def canonical_json(self) -> str:
        """Byte-stable encoding of the whole sweep document."""
        return _canonical(self.to_dict())


def _shard_seed(base_seed: int, shard_name: str, seed_mode: str) -> int:
    if seed_mode not in SEED_MODES:
        raise ExperimentError(f"seed_mode must be one of {SEED_MODES}, got {seed_mode!r}")
    if seed_mode == "shared":
        return base_seed
    return derive_shard_seed(base_seed, shard_name)
