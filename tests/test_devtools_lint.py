"""Tests for the file rules of the static analyzer (``repro.devtools``).

Each rule gets positive fixtures (deliberately seeded violations) and
negative fixtures (idiomatic code that must stay clean), plus coverage of
the suppression syntax, the report and the CLI, and a meta-test asserting
the real tree checks clean.  ``test_devtools_flow.py`` covers the
call-graph rules.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.devtools import DEFAULT_PATHS, main
from repro.devtools.analyzer import (
    ALL_RULES,
    analyze_paths,
    analyze_sources,
    render_json,
    render_text,
    rule_catalog,
)
from repro.devtools.source import Marker, parse_markers

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Logical paths used to exercise each rule's scope.
SIM_PATH = "src/repro/sim/fixture.py"
CLUSTER_PATH = "src/repro/cluster/fixture.py"
NETSIM_PATH = "src/repro/netsim/fixture.py"
CORE_PATH = "src/repro/core/fixture.py"
RNG_PATH = "src/repro/sim/rng.py"
TESTS_PATH = "tests/test_fixture.py"


def lint_source(source, logical):
    """Every finding the one pass reports for one in-memory file."""
    return list(analyze_sources([(logical, source)]).violations)


def rules_of(violations):
    return [v.rule for v in violations]


# ----------------------------------------------------------------------
# DET001 — wall-clock reads
# ----------------------------------------------------------------------
class TestDet001:
    def test_flags_time_time(self):
        src = "import time\n\ndef tick() -> float:\n    return time.time()\n"
        assert "DET001" in rules_of(lint_source(src, SIM_PATH))

    def test_flags_from_import_perf_counter(self):
        src = "from time import perf_counter\n\ndef tick() -> float:\n    return perf_counter()\n"
        assert "DET001" in rules_of(lint_source(src, SIM_PATH))

    def test_flags_aliased_datetime_now(self):
        src = "from datetime import datetime as dt\n\ndef stamp() -> object:\n    return dt.now()\n"
        assert "DET001" in rules_of(lint_source(src, SIM_PATH))

    def test_sim_clock_usage_is_clean(self):
        src = (
            "from repro.sim.clock import SimClock\n\n"
            "def tick(clock: SimClock) -> float:\n    return clock.now\n"
        )
        assert lint_source(src, SIM_PATH) == []

    def test_tests_area_may_use_wall_clock(self):
        src = "import time\n\ndef test_elapsed():\n    assert time.time() > 0\n"
        assert lint_source(src, TESTS_PATH) == []

    def test_unrelated_now_attribute_is_clean(self):
        src = "def probe(clock) -> float:\n    return clock.now\n"
        # `clock.now` is an attribute read, not a wall-clock call.
        assert "DET001" not in rules_of(lint_source(src, TESTS_PATH))


# ----------------------------------------------------------------------
# DET002 — private randomness
# ----------------------------------------------------------------------
class TestDet002:
    def test_flags_default_rng(self):
        src = "import numpy as np\n\ndef make() -> object:\n    return np.random.default_rng(0)\n"
        assert "DET002" in rules_of(lint_source(src, CLUSTER_PATH))

    def test_flags_np_random_seed(self):
        src = "import numpy as np\n\ndef seed() -> None:\n    np.random.seed(0)\n"
        assert "DET002" in rules_of(lint_source(src, CORE_PATH))

    def test_flags_legacy_global_draws(self):
        src = "import numpy as np\n\ndef draw() -> float:\n    return float(np.random.uniform())\n"
        assert "DET002" in rules_of(lint_source(src, CORE_PATH))

    def test_flags_stdlib_random(self):
        src = "import random\n\ndef draw() -> float:\n    return random.random()\n"
        assert "DET002" in rules_of(lint_source(src, SIM_PATH))

    def test_flags_from_import_stdlib_random(self):
        src = "from random import shuffle\n\ndef mix(xs: list) -> None:\n    shuffle(xs)\n"
        assert "DET002" in rules_of(lint_source(src, CLUSTER_PATH))

    def test_rng_module_itself_is_exempt(self):
        src = "import numpy as np\n\ndef make() -> object:\n    return np.random.default_rng(0)\n"
        assert lint_source(src, RNG_PATH) == []

    def test_rng_module_exempts_only_seeded_construction(self):
        # The rng module may build generators from a seed, but an unseeded
        # draw there is as ambient as anywhere else.
        src = (
            "import numpy as np\n\n"
            "def make(entropy: list) -> object:\n"
            "    return np.random.default_rng(np.random.SeedSequence(entropy))\n\n"
            "def jitter() -> float:\n"
            "    return float(np.random.random())\n"
        )
        violations = lint_source(src, RNG_PATH)
        assert [(v.rule, v.line) for v in violations] == [("DET002", 7)]

    def test_tests_may_construct_generators(self):
        src = "import numpy as np\n\ndef test_x():\n    rng = np.random.default_rng(1)\n    assert rng\n"
        assert lint_source(src, TESTS_PATH) == []

    def test_injected_generator_usage_is_clean(self):
        src = (
            "import numpy as np\n\n"
            "def draw(rng: np.random.Generator) -> float:\n"
            "    return float(rng.uniform())\n"
        )
        assert lint_source(src, CORE_PATH) == []

    def test_seed_sequence_is_safe(self):
        src = "import numpy as np\n\ndef derive(seed: int) -> object:\n    return np.random.SeedSequence(seed)\n"
        assert "DET002" not in rules_of(lint_source(src, CORE_PATH))


# ----------------------------------------------------------------------
# DET003 — iteration over bare sets
# ----------------------------------------------------------------------
class TestDet003:
    def test_flags_for_over_set_call(self):
        src = "def walk(items: list) -> None:\n    for x in set(items):\n        print(x)\n"
        assert "DET003" in rules_of(lint_source(src, SIM_PATH))

    def test_flags_for_over_set_literal(self):
        src = "def walk() -> None:\n    for x in {1, 2, 3}:\n        print(x)\n"
        assert "DET003" in rules_of(lint_source(src, CORE_PATH))

    def test_flags_list_of_set(self):
        src = "def order(items: list) -> list:\n    return list(set(items))\n"
        assert "DET003" in rules_of(lint_source(src, CLUSTER_PATH))

    def test_flags_comprehension_over_set_union(self):
        src = "def pair(a: set, b: set) -> list:\n    return [x for x in a | b]\n"
        # `a | b` on unannotated names is not statically a set, but on
        # literals it is:
        src = "def pair() -> list:\n    return [x for x in {1} | {2}]\n"
        assert "DET003" in rules_of(lint_source(src, CORE_PATH))

    def test_flags_iteration_over_local_set_variable(self):
        src = (
            "def walk(items: list) -> None:\n"
            "    seen = set(items)\n"
            "    for x in seen:\n"
            "        print(x)\n"
        )
        assert "DET003" in rules_of(lint_source(src, SIM_PATH))

    def test_sorted_set_is_clean(self):
        src = "def walk(items: list) -> None:\n    for x in sorted(set(items)):\n        print(x)\n"
        assert lint_source(src, SIM_PATH) == []

    def test_membership_and_len_are_clean(self):
        src = (
            "def stats(items: list) -> int:\n"
            "    names = set(items)\n"
            "    if 'a' in names:\n"
            "        return len(names)\n"
            "    return 0\n"
        )
        assert lint_source(src, CORE_PATH) == []

    def test_set_comprehension_output_is_clean(self):
        src = "def dedupe(items: list) -> set:\n    return {x for x in set(items)}\n"
        # Draining a set into another set never materialises an order.
        assert "DET003" not in rules_of(lint_source(src, CORE_PATH))

    def test_out_of_scope_area_is_clean(self):
        src = "def walk(items: list) -> None:\n    for x in set(items):\n        print(x)\n"
        assert lint_source(src, TESTS_PATH) == []

    def test_set_names_are_typed_per_function(self):
        # `x` is a set in f and a list in g: module-wide typing saw a name
        # that is not always a set; per-function typing sees f's set.
        src = (
            "def f() -> list:\n"
            "    x = {1, 2}\n"
            "    return [a for a in x]\n\n"
            "def g() -> list:\n"
            "    x = [1]\n"
            "    return [a for a in x]\n"
        )
        violations = lint_source(src, "src/repro/parallel/result.py")
        assert [(v.rule, v.line) for v in violations] == [("DET003", 3)]

    def test_module_level_set_iterated_in_a_function(self):
        src = "NAMES = {'a', 'b'}\n\ndef walk() -> list:\n    return [n for n in NAMES]\n"
        assert "DET003" in rules_of(lint_source(src, CORE_PATH))


# ----------------------------------------------------------------------
# UNIT001 — raw unit-conversion literals
# ----------------------------------------------------------------------
class TestUnit001:
    def test_flags_mib_literal_in_cluster(self):
        src = "def to_mib(n_bytes: float) -> float:\n    return n_bytes / 1048576\n"
        assert "UNIT001" in rules_of(lint_source(src, CLUSTER_PATH))

    def test_flags_1024_in_netsim(self):
        src = "def shares(cores: float) -> int:\n    return int(cores * 1024)\n"
        assert "UNIT001" in rules_of(lint_source(src, NETSIM_PATH))

    def test_flags_mbit_literal(self):
        src = "def to_bits(mbit: float) -> float:\n    return mbit * 1000000\n"
        assert "UNIT001" in rules_of(lint_source(src, NETSIM_PATH))

    def test_units_helpers_are_clean(self):
        src = (
            "from repro.units import MIB\n\n"
            "def to_mib(n_bytes: float) -> float:\n    return n_bytes / MIB\n"
        )
        assert lint_source(src, CLUSTER_PATH) == []

    def test_other_literals_are_clean(self):
        src = "def cap() -> float:\n    return 512.0\n"
        assert lint_source(src, CLUSTER_PATH) == []

    def test_rule_is_scoped_to_cluster_and_netsim(self):
        src = "def to_mib(n_bytes: float) -> float:\n    return n_bytes / 1048576\n"
        assert lint_source(src, CORE_PATH) == []


# ----------------------------------------------------------------------
# API001 — complete annotations on the public surface
# ----------------------------------------------------------------------
class TestApi001:
    def test_flags_missing_return_type(self):
        src = "def speed(mbit: float):\n    return mbit * 2\n"
        assert "API001" in rules_of(lint_source(src, CORE_PATH))

    def test_flags_unannotated_parameter(self):
        src = "def speed(mbit) -> float:\n    return mbit * 2\n"
        assert "API001" in rules_of(lint_source(src, CORE_PATH))

    def test_flags_unannotated_method_kwargs(self):
        src = (
            "class Policy:\n"
            "    def decide(self, view: object, **extras) -> list:\n"
            "        return []\n"
        )
        assert "API001" in rules_of(lint_source(src, CORE_PATH))

    def test_init_needs_no_return_annotation(self):
        src = "class Clock:\n    def __init__(self, dt: float):\n        self.dt = dt\n"
        assert lint_source(src, SIM_PATH) == []

    def test_private_and_nested_defs_are_exempt(self):
        src = (
            "def _helper(x):\n"
            "    return x\n\n"
            "def public(x: int) -> int:\n"
            "    def inner(y):\n"
            "        return y\n"
            "    return inner(x)\n"
        )
        assert lint_source(src, CORE_PATH) == []

    def test_fully_annotated_method_is_clean(self):
        src = (
            "class Policy:\n"
            "    def decide(self, view: object, *, dry_run: bool = False) -> list[str]:\n"
            "        return []\n"
        )
        assert lint_source(src, CORE_PATH) == []

    def test_rule_is_scoped_to_src(self):
        src = "def helper(x):\n    return x\n"
        assert lint_source(src, TESTS_PATH) == []


# ----------------------------------------------------------------------
# OBS001 — no time/datetime imports inside the telemetry package
# ----------------------------------------------------------------------
class TestObs001:
    TELEMETRY_PATH = "src/repro/telemetry/fixture.py"

    def test_flags_import_time(self):
        src = "import time\n"
        assert "OBS001" in rules_of(lint_source(src, self.TELEMETRY_PATH))

    def test_flags_from_time_import(self):
        # Stronger than DET001: the import alone is a violation, even with
        # no call anywhere in the file.
        src = "from time import perf_counter\n"
        assert "OBS001" in rules_of(lint_source(src, self.TELEMETRY_PATH))

    def test_flags_import_datetime(self):
        src = "import datetime as dt\n"
        assert "OBS001" in rules_of(lint_source(src, self.TELEMETRY_PATH))

    def test_other_imports_are_clean(self):
        src = "from collections import deque\nimport json\n"
        assert lint_source(src, self.TELEMETRY_PATH) == []

    def test_rule_is_scoped_to_telemetry(self):
        # Elsewhere in src/ a bare import is DET001's business (calls only),
        # so the import by itself stays clean.
        src = "import time\n"
        assert "OBS001" not in rules_of(lint_source(src, SIM_PATH))
        assert "OBS001" not in rules_of(lint_source(src, TESTS_PATH))


# ----------------------------------------------------------------------
# OBS002 — registry.capture() only from the telemetry sampling layer
# ----------------------------------------------------------------------
class TestObs002:
    CAPTURE = "def flush(registry, now: float) -> None:\n    registry.capture(now)\n"

    def test_flags_direct_capture_in_src(self):
        assert "OBS002" in rules_of(lint_source(self.CAPTURE, CORE_PATH))
        assert "OBS002" in rules_of(lint_source(self.CAPTURE, SIM_PATH))

    def test_flags_attribute_receivers_named_registry(self):
        src = "def flush(self, now: float) -> None:\n    self.registry.capture(now)\n"
        assert "OBS002" in rules_of(lint_source(src, CLUSTER_PATH))

    def test_sampling_layer_is_allowed(self):
        assert "OBS002" not in rules_of(
            lint_source(self.CAPTURE, "src/repro/telemetry/hub.py")
        )
        assert "OBS002" not in rules_of(
            lint_source(self.CAPTURE, "src/repro/telemetry/sampling.py")
        )

    def test_tests_area_is_out_of_scope(self):
        assert "OBS002" not in rules_of(lint_source(self.CAPTURE, TESTS_PATH))

    def test_other_capture_receivers_are_clean(self):
        # `.capture` on a non-registry receiver (e.g. a pane or shard) is
        # someone else's method; only registry-shaped receivers are gated.
        src = "def snap(pane, now: float) -> None:\n    pane.capture(now)\n"
        assert "OBS002" not in rules_of(lint_source(src, CORE_PATH))

    def test_reasoned_suppression_is_honoured(self):
        src = (
            "def flush(registry: object, now: float) -> None:\n"
            "    registry.capture(now)  # lint: disable=OBS002(bench primes a synthetic registry)\n"
        )
        assert lint_source(src, CORE_PATH) == []


# ----------------------------------------------------------------------
# SAN001 — mutable class-level / default-argument containers
# ----------------------------------------------------------------------
class TestSan001:
    def test_flags_class_level_list_literal(self):
        src = "class Cache:\n    entries = []\n"
        assert "SAN001" in rules_of(lint_source(src, CLUSTER_PATH))

    def test_flags_class_level_dict_call(self):
        src = "class Registry:\n    by_name: dict = dict()\n"
        assert "SAN001" in rules_of(lint_source(src, SIM_PATH))

    def test_flags_class_level_defaultdict(self):
        src = "import collections\n\nclass Index:\n    rows = collections.defaultdict(list)\n"
        assert "SAN001" in rules_of(lint_source(src, CLUSTER_PATH))

    def test_flags_mutable_default_argument(self):
        src = "def collect(into: list = []) -> list:\n    return into\n"
        assert "SAN001" in rules_of(lint_source(src, CLUSTER_PATH))

    def test_default_factory_field_is_clean(self):
        src = (
            "import dataclasses\n\n"
            "@dataclasses.dataclass\n"
            "class Holder:\n"
            "    xs: list = dataclasses.field(default_factory=list)\n"
        )
        assert "SAN001" not in rules_of(lint_source(src, CLUSTER_PATH))

    def test_immutable_defaults_and_init_state_are_clean(self):
        src = (
            "class Node:\n"
            "    KINDS = (\"cpu\", \"memory\")\n\n"
            "    def __init__(self) -> None:\n"
            "        self.children: list = []\n"
        )
        assert "SAN001" not in rules_of(lint_source(src, SIM_PATH))

    def test_rule_is_scoped_to_cluster_platform_sim(self):
        src = "class Cache:\n    entries = []\n"
        assert "SAN001" not in rules_of(lint_source(src, CORE_PATH))
        assert "SAN001" not in rules_of(lint_source(src, TESTS_PATH))


# ----------------------------------------------------------------------
# SAN002 — float equality on resource quantities
# ----------------------------------------------------------------------
class TestSan002:
    def test_flags_equality_on_suffixed_name(self):
        src = "def same(cpu_request: float, other: float) -> bool:\n    return cpu_request == other\n"
        assert "SAN002" in rules_of(lint_source(src, CORE_PATH))

    def test_flags_inequality_on_attribute(self):
        src = "def moved(a: object, b: object) -> bool:\n    return a.net_rate != b.net_rate\n"
        assert "SAN002" in rules_of(lint_source(src, CLUSTER_PATH))

    def test_flags_bare_resource_name(self):
        src = "def full(cpu: float, cap: float) -> bool:\n    return cpu == cap\n"
        assert "SAN002" in rules_of(lint_source(src, NETSIM_PATH))

    def test_same_quantity_helper_is_clean(self):
        src = (
            "from repro.units import same_quantity\n\n"
            "def same(cpu_request: float, other: float) -> bool:\n"
            "    return same_quantity(cpu_request, other)\n"
        )
        assert "SAN002" not in rules_of(lint_source(src, CORE_PATH))

    def test_non_resource_names_are_clean(self):
        src = "def match(name: str, other: str) -> bool:\n    return name == other\n"
        assert "SAN002" not in rules_of(lint_source(src, CORE_PATH))

    def test_ordering_comparisons_are_clean(self):
        src = "def over(cpu_request: float, cap: float) -> bool:\n    return cpu_request > cap\n"
        assert "SAN002" not in rules_of(lint_source(src, CORE_PATH))

    def test_units_module_and_tests_are_exempt(self):
        src = "def same(cpu_request: float, other: float) -> bool:\n    return cpu_request == other\n"
        assert "SAN002" not in rules_of(lint_source(src, "src/repro/units.py"))
        assert "SAN002" not in rules_of(lint_source(src, TESTS_PATH))


# ----------------------------------------------------------------------
# SAN003 — frozen-dataclass mutation outside the defining module
# ----------------------------------------------------------------------
class TestSan003:
    def test_flags_setattr_on_foreign_instance(self):
        src = "def poke(view: object) -> None:\n    object.__setattr__(view, \"cpu\", 1.0)\n"
        assert "SAN003" in rules_of(lint_source(src, CORE_PATH))

    def test_post_init_self_mutation_is_clean(self):
        src = (
            "class Frozen:\n"
            "    def __post_init__(self) -> None:\n"
            "        object.__setattr__(self, \"total\", 3.0)\n"
        )
        assert "SAN003" not in rules_of(lint_source(src, CORE_PATH))

    def test_plain_setattr_builtin_is_clean(self):
        src = "def poke(view: object) -> None:\n    setattr(view, \"label\", \"x\")\n"
        assert "SAN003" not in rules_of(lint_source(src, CORE_PATH))

    def test_tests_area_is_exempt(self):
        src = "def poke(view: object) -> None:\n    object.__setattr__(view, \"cpu\", 1.0)\n"
        assert "SAN003" not in rules_of(lint_source(src, TESTS_PATH))


# ----------------------------------------------------------------------
# UNIT002 — unit-suffix dataflow
# ----------------------------------------------------------------------
class TestUnit002:
    def test_flags_cross_unit_assignment(self):
        src = "def f(size_mb: float) -> float:\n    rate_mbps = size_mb\n    return rate_mbps\n"
        assert "UNIT002" in rules_of(lint_source(src, NETSIM_PATH))

    def test_flags_cross_unit_keyword_argument(self):
        src = "def f(send: object, size_mb: float) -> None:\n    send(rate_mbps=size_mb)\n"
        assert "UNIT002" in rules_of(lint_source(src, CORE_PATH))

    def test_flags_cross_unit_positional_to_local_function(self):
        src = (
            "def push(rate_mbps: float) -> None:\n    pass\n\n"
            "def go(size_mb: float) -> None:\n    push(size_mb)\n"
        )
        assert "UNIT002" in rules_of(lint_source(src, CLUSTER_PATH))

    def test_flags_cross_unit_arithmetic(self):
        src = "def f(size_mb: float, rate_mbps: float) -> float:\n    return size_mb + rate_mbps\n"
        assert "UNIT002" in rules_of(lint_source(src, CORE_PATH))

    def test_flags_cores_vs_shares(self):
        src = "def f(cpu_cores: float) -> float:\n    cpu_shares = cpu_cores\n    return cpu_shares\n"
        assert "UNIT002" in rules_of(lint_source(src, CLUSTER_PATH))

    def test_same_unit_flow_is_clean(self):
        src = (
            "def f(size_mb: float, extra_mb: float) -> float:\n"
            "    total_mb = size_mb\n"
            "    return total_mb + extra_mb\n"
        )
        assert "UNIT002" not in rules_of(lint_source(src, NETSIM_PATH))

    def test_per_second_segments_are_neutral(self):
        src = (
            "def f(burst_mb: float) -> float:\n"
            "    budget_mb_per_s = burst_mb\n"
            "    return budget_mb_per_s\n"
        )
        assert "UNIT002" not in rules_of(lint_source(src, CLUSTER_PATH))

    def test_converted_values_are_clean(self):
        src = (
            "from repro.units import mb_to_mbit\n\n"
            "def f(size_mb: float) -> float:\n"
            "    rate_mbits = mb_to_mbit(size_mb)\n"
            "    return rate_mbits\n"
        )
        assert "UNIT002" not in rules_of(lint_source(src, NETSIM_PATH))

    def test_unsuffixed_names_are_clean(self):
        src = "def f(amount: float) -> float:\n    rate_mbps = amount\n    return rate_mbps\n"
        assert "UNIT002" not in rules_of(lint_source(src, CORE_PATH))

    def test_units_module_is_exempt(self):
        src = "def f(size_mb: float) -> float:\n    rate_mbps = size_mb\n    return rate_mbps\n"
        assert "UNIT002" not in rules_of(lint_source(src, "src/repro/units.py"))

    def test_flags_assignment_from_a_differently_suffixed_name(self):
        src = "def f(rate_mbps: float) -> float:\n    total_mb = rate_mbps\n    return total_mb\n"
        assert "UNIT002" in rules_of(lint_source(src, CORE_PATH))

    def test_flags_assignment_from_a_differently_suffixed_return(self):
        src = (
            "def as_mbit(value_mbit: float) -> float:\n    return value_mbit\n\n"
            "def f(total: float) -> None:\n    chunk_mb = as_mbit(total)\n    del chunk_mb\n"
        )
        assert "UNIT002" in rules_of(lint_source(src, CORE_PATH))


# ----------------------------------------------------------------------
# Suppression syntax
# ----------------------------------------------------------------------
class TestSuppressions:
    DIRTY = "import numpy as np\n\ndef make() -> object:\n    return np.random.default_rng(0)"

    def test_reasoned_suppression_silences_the_rule(self):
        src = self.DIRTY + "  # lint: disable=DET002(doc fixture, not simulator state)\n"
        assert lint_source(src, CLUSTER_PATH) == []

    def test_suppression_without_reason_is_reported_and_ineffective(self):
        src = self.DIRTY + "  # lint: disable=DET002\n"
        rules = rules_of(lint_source(src, CLUSTER_PATH))
        assert "LINT001" in rules and "DET002" in rules

    def test_empty_reason_is_reported(self):
        src = self.DIRTY + "  # lint: disable=DET002()\n"
        rules = rules_of(lint_source(src, CLUSTER_PATH))
        assert "LINT001" in rules and "DET002" in rules

    def test_suppression_of_other_rule_does_not_silence(self):
        src = self.DIRTY + "  # lint: disable=DET001(wrong rule)\n"
        assert "DET002" in rules_of(lint_source(src, CLUSTER_PATH))

    def test_multiple_rules_on_one_line(self):
        src = (
            "import numpy as np\n\n"
            "def make() -> object:\n"
            "    return list(set(np.random.default_rng(0).integers(0, 9, 4)))"
            "  # lint: disable=DET002(fixture), DET003(fixture)\n"
        )
        assert lint_source(src, CLUSTER_PATH) == []

    def test_parse_suppressions_maps_lines(self):
        markers, problems = parse_markers(
            "x = 1\ny = 2  # lint: disable=DET001(known quirk)\n", "src/repro/sim/x.py"
        )
        assert markers == [Marker(line=2, col=8, rule="DET001", reason="known quirk")]
        assert problems == []

    def test_unused_marker_is_reported(self):
        src = "X: int = 1  # lint: disable=DET002(nothing to silence here)\n"
        violations = lint_source(src, CLUSTER_PATH)
        assert rules_of(violations) == ["LINT001"]
        assert "silences nothing" in violations[0].message

    def test_marker_naming_an_unknown_rule_is_reported(self):
        src = self.DIRTY + "  # lint: disable=DET002(fixture), DET999(gone)\n"
        violations = lint_source(src, CLUSTER_PATH)
        assert rules_of(violations) == ["LINT001"]
        assert "DET999" in violations[0].message
        assert "does not define" in violations[0].message

    def test_marker_inside_a_string_is_inert(self):
        src = 'DOC = "# lint: disable=DET002(not a comment)"\n'
        assert lint_source(src, CLUSTER_PATH) == []


# ----------------------------------------------------------------------
# Engine, output formats, CLI
# ----------------------------------------------------------------------
class TestEngine:
    CLOCK = "import time\n\ndef t() -> float:\n    return time.time()\n"

    def test_syntax_error_becomes_lint002(self):
        violations = lint_source("def broken(:\n", SIM_PATH)
        assert rules_of(violations) == ["LINT002"]

    def test_json_report_shape(self):
        payload = json.loads(render_json(analyze_sources([(SIM_PATH, self.CLOCK)])))
        assert payload["schema"] == "repro.flow/3"
        assert payload["files_checked"] == 1
        assert payload["summary"]["violations"] == len(payload["violations"]) == 1
        entry = payload["violations"][0]
        assert entry["rule"] == "DET001"
        assert entry["path"] == SIM_PATH
        assert entry["line"] == 4
        assert entry["function"] is None  # a file-rule finding

    def test_text_report_mentions_rule_mix(self):
        report = render_text(analyze_sources([(SIM_PATH, self.CLOCK)]))
        assert "DET001=1" in report
        assert f"{SIM_PATH}:4" in report

    def test_clean_report(self):
        sources = [(f"src/repro/sim/ok{i}.py", "X: int = 1\n") for i in range(3)]
        assert "3 files checked, 0 violations" in render_text(analyze_sources(sources))

    def test_every_rule_has_id_and_summary(self):
        catalog = rule_catalog()
        assert set(catalog) == {
            "DET001",
            "DET002",
            "DET003",
            "UNIT001",
            "UNIT002",
            "API001",
            "OBS001",
            "OBS002",
            "SAN001",
            "SAN002",
            "SAN003",
            "HOT001",
            "HOT002",
            "HOT003",
            "HOT004",
            "PAR001",
            "PAR002",
            "DET101",
            "DET103",
            "DET104",
            "CON001",
            "CON002",
            "CON003",
        }
        assert all(summary for summary in catalog.values())
        assert len(ALL_RULES) == len(catalog) == 23

    def test_no_file_rule_looks_at_tests_or_benchmarks(self):
        for rule in ALL_RULES:
            assert not rule.applies("tests/test_fixture.py"), rule.id
            assert not rule.applies("benchmarks/test_fixture.py"), rule.id


class TestCli:
    def _write(self, root: Path, rel: str, source: str) -> Path:
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return path

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        self._write(tmp_path, "src/repro/sim/ok.py", "X: int = 1\n")
        assert main(["src", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "0 tainted path(s)" in out  # the call-graph half ran too

    def test_exit_one_on_violation(self, tmp_path, capsys):
        self._write(
            tmp_path,
            "src/repro/cluster/bad.py",
            "import numpy as np\n\ndef make() -> object:\n    return np.random.default_rng(0)\n",
        )
        assert main(["src", "--root", str(tmp_path)]) == 1
        assert "DET002" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert main(["no-such-dir", "--root", str(tmp_path)]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_json_format_flag(self, tmp_path, capsys):
        self._write(tmp_path, "src/repro/sim/ok.py", "X: int = 1\n")
        assert main(["src", "--root", str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["violations"] == 0

    def test_list_rules_flag(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET002", "DET003", "UNIT001", "API001"):
            assert rule_id in out

    def test_file_rule_marker_without_call_graph_findings_is_clean(self, tmp_path, capsys):
        # The marker silences a DET001; the call-graph half finds no sink
        # for the wall-clock read, so the whole pass is clean.
        self._write(
            tmp_path,
            "src/repro/sim/clock.py",
            "import time\n"
            "\n"
            "\n"
            "def now() -> float:\n"
            "    return time.time()  # lint: disable=DET001(fixture: log stamps only)\n",
        )
        assert main(["src", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "1 suppressed" in out
        assert "0 tainted path(s)" in out
        assert "LINT001" not in out

    def test_det001_marker_does_not_silence_det101(self, tmp_path, capsys):
        # One tree, one parse: the file rules and the taint pass both fire
        # from the same invocation, and a marker silences only the rule
        # it names.
        self._write(
            tmp_path,
            "src/repro/obs/export.py",
            "def span_to_json_line(span: dict) -> str:\n    return '{}'\n",
        )
        self._write(
            tmp_path,
            "src/repro/analysis/feed.py",
            "import time\n"
            "from repro.obs.export import span_to_json_line\n"
            "\n"
            "\n"
            "def emit(span: dict) -> str:\n"
            "    span['ts'] = time.time()  # lint: disable=DET001(fixture)\n"
            "    return span_to_json_line(span)\n",
        )
        assert main(["src", "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DET101" in out  # the taint pass saw the source the marker silenced
        assert "DET001 " not in out
        assert "LINT001" not in out  # the DET001 marker did silence something


# ----------------------------------------------------------------------
# The real tree must lint clean (the CI gate, asserted in-process)
# ----------------------------------------------------------------------
class TestRepositoryIsClean:
    def test_default_paths_lint_clean(self):
        analysis = analyze_paths(list(DEFAULT_PATHS), root=REPO_ROOT)
        assert analysis.files_checked > 100  # the walker actually found the tree
        assert analysis.violations == (), "\n" + "\n".join(v.render() for v in analysis.violations)

    def test_importing_the_package_and_cli_loads_no_analyzer_module(self):
        code = (
            "import sys, repro, repro.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.devtools')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src")},
        ).stdout
        assert out.strip() == "[]"
