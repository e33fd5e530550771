"""Tests for SimSan: the simulation sanitizer (``repro.sanitizer``).

Covers the protocol contract, the violation records and their
JSONL codec, every runtime check via an injected violation, the engine
step bracket, and the fault-injection scenarios that must *not* trip the
sanitizer (crashes, node additions, and OOM kills are legitimate writes).
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceVector
from repro.config import ClusterConfig, SimulationConfig
from repro.errors import SanitizerError
from repro.instrument import Observe
from repro.sanitizer import (
    SAN_SCHEMA,
    Sanitizer,
    SanViolation,
    SimSanitizer,
    parse_san_line,
    read_san_jsonl,
    render_san_report,
    violation_from_dict,
    violation_to_dict,
    violation_to_json_line,
    violations_to_jsonl,
    write_san_jsonl,
)
from repro.workloads import CPU_BOUND, DISK_BOUND, MEMORY_BOUND, ConstantLoad, ServiceLoad
from repro.workloads.requests import Request

from tests.conftest import make_container, make_node_view, make_replica, make_service, make_view


def build_sim(*, sanitizer=None, policy="hybrid", seed=0, rate=6.0, worker_nodes=3,
              profile=CPU_BOUND, **spec_kwargs):
    from repro.cluster.microservice import MicroserviceSpec
    from repro.experiments.runner import Simulation

    config = SimulationConfig(cluster=ClusterConfig(worker_nodes=worker_nodes), seed=seed)
    specs = [MicroserviceSpec(name="svc", min_replicas=2, max_replicas=8, **spec_kwargs)]
    loads = [ServiceLoad("svc", profile, ConstantLoad(rate))]
    return Simulation.build(
        config=config,
        specs=specs,
        loads=loads,
        policy=policy,
        observe=Observe(sanitizer=sanitizer),
    )


def bound_sanitizer(worker_nodes=1, **kwargs) -> tuple[SimSanitizer, Cluster]:
    cluster = Cluster.from_config(ClusterConfig(worker_nodes=worker_nodes))
    sanitizer = SimSanitizer(**kwargs)
    sanitizer.bind(cluster=cluster, node_managers={})
    return sanitizer, cluster


def one_step(sanitizer: SimSanitizer, *, now: float, step: int = 1,
             next_due: float | None = None) -> None:
    """Drive one empty, well-formed step bracket."""
    sanitizer.begin_step(now=now, step=step)
    sanitizer.end_step(now=now, next_due=next_due, fired=0)


# ----------------------------------------------------------------------
# Protocol contract
# ----------------------------------------------------------------------
class TestProtocol:
    def test_implementations_satisfy_the_protocol(self):
        assert isinstance(SimSanitizer(), Sanitizer)

    def test_constructor_validation(self):
        with pytest.raises(SanitizerError):
            SimSanitizer(tolerance=-1.0)
        with pytest.raises(SanitizerError):
            SimSanitizer(max_violations=0)


# ----------------------------------------------------------------------
# Violation records + codec
# ----------------------------------------------------------------------
def _violation(**overrides) -> SanViolation:
    payload = dict(
        now=3.5, step=7, check="conservation", subject="node-00/cpu",
        message="allocated cpu exceeds node capacity", detail="9.0 > 4.0 cores",
    )
    payload.update(overrides)
    return SanViolation(**payload)


class TestRecords:
    def test_unknown_check_rejected(self):
        with pytest.raises(SanitizerError):
            _violation(check="vibes")

    def test_dict_roundtrip(self):
        violation = _violation()
        assert violation_from_dict(violation_to_dict(violation)) == violation

    def test_unknown_fields_rejected(self):
        payload = violation_to_dict(_violation())
        payload["extra"] = 1
        with pytest.raises(SanitizerError):
            violation_from_dict(payload)

    def test_missing_fields_rejected(self):
        payload = violation_to_dict(_violation())
        del payload["subject"]
        with pytest.raises(SanitizerError):
            violation_from_dict(payload)

    def test_records_sort_by_time_then_step(self):
        late = _violation(now=9.0, step=18)
        early = _violation(now=1.0, step=2)
        assert sorted([late, early]) == [early, late]


class TestExport:
    def test_jsonl_line_roundtrip_and_schema_tag(self):
        violation = _violation()
        line = violation_to_json_line(violation)
        assert f'"schema":"{SAN_SCHEMA}"' in line
        assert parse_san_line(line) == violation

    def test_wrong_schema_rejected(self):
        line = violation_to_json_line(_violation()).replace(SAN_SCHEMA, "repro.san/99")
        with pytest.raises(SanitizerError):
            parse_san_line(line)

    def test_non_object_line_rejected(self):
        with pytest.raises(SanitizerError):
            parse_san_line("[1,2]")
        with pytest.raises(SanitizerError):
            parse_san_line("not json")

    def test_empty_report_is_empty_string(self):
        assert violations_to_jsonl([]) == ""

    def test_file_roundtrip(self, tmp_path):
        violations = (_violation(), _violation(now=4.0, step=8, check="aliasing",
                                               subject="rogue"))
        path = tmp_path / "san.jsonl"
        assert write_san_jsonl(violations, path) == 2
        assert read_san_jsonl(path) == violations

    def test_file_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(violation_to_json_line(_violation()) + "\nnot json\n")
        with pytest.raises(SanitizerError, match="bad.jsonl:2"):
            read_san_jsonl(path)

    def test_render_groups_by_check(self):
        report = render_san_report(
            (_violation(), _violation(check="time", subject="clock", detail=""))
        )
        assert "SimSan: 2 invariant violation(s)" in report
        assert "[conservation]" in report and "[time]" in report
        assert "node-00/cpu" in report and "9.0 > 4.0 cores" in report

    def test_render_clean_report(self):
        assert render_san_report(()) == "SimSan: no invariant violations.\n"


# ----------------------------------------------------------------------
# Bracket discipline (misuse raises; it never records)
# ----------------------------------------------------------------------
class TestBracketDiscipline:
    def test_hooks_before_bind_raise(self):
        sanitizer = SimSanitizer()
        with pytest.raises(SanitizerError, match="bind"):
            sanitizer.begin_step(now=0.5, step=1)

    def test_rebind_to_other_cluster_raises(self):
        sanitizer, cluster = bound_sanitizer()
        sanitizer.bind(cluster=cluster, node_managers={})  # same cluster: idempotent
        with pytest.raises(SanitizerError):
            sanitizer.bind(
                cluster=Cluster.from_config(ClusterConfig(worker_nodes=1)), node_managers={}
            )

    def test_double_begin_raises(self):
        sanitizer, _ = bound_sanitizer()
        sanitizer.begin_step(now=0.5, step=1)
        with pytest.raises(SanitizerError):
            sanitizer.begin_step(now=1.0, step=2)

    def test_hooks_outside_bracket_raise(self):
        sanitizer, _ = bound_sanitizer()
        with pytest.raises(SanitizerError):
            sanitizer.after_actor(name="cluster", now=0.5)
        with pytest.raises(SanitizerError):
            sanitizer.end_step(now=0.5, next_due=None, fired=0)

    def test_clean_bracket_counts_steps(self):
        sanitizer, _ = bound_sanitizer()
        one_step(sanitizer, now=0.5, step=1)
        one_step(sanitizer, now=1.0, step=2)
        assert sanitizer.steps_checked == 2
        assert len(sanitizer) == 0


# ----------------------------------------------------------------------
# Each runtime check fires on an injected violation
# ----------------------------------------------------------------------
class TestTimeCheck:
    def test_non_advancing_clock_recorded(self):
        sanitizer, _ = bound_sanitizer()
        one_step(sanitizer, now=1.0, step=1)
        one_step(sanitizer, now=1.0, step=2)  # did not advance
        (violation,) = sanitizer.violations()
        assert violation.check == "time"
        assert violation.subject == "clock"

    def test_advancing_clock_is_clean(self):
        sanitizer, _ = bound_sanitizer()
        for step in range(1, 5):
            one_step(sanitizer, now=0.5 * step, step=step)
        assert sanitizer.violations() == ()


class TestEventOrderCheck:
    def test_due_event_surviving_fire_due_recorded(self):
        sanitizer, _ = bound_sanitizer()
        sanitizer.begin_step(now=2.0, step=4)
        sanitizer.end_step(now=2.0, next_due=1.5, fired=0)
        (violation,) = sanitizer.violations()
        assert violation.check == "events"
        assert "next_due" in violation.detail

    def test_future_event_is_clean(self):
        sanitizer, _ = bound_sanitizer()
        one_step(sanitizer, now=2.0, next_due=2.5)
        assert sanitizer.violations() == ()


class TestConservationCheck:
    def test_overcommitted_node_recorded_per_axis(self):
        sanitizer, cluster = bound_sanitizer()
        node = cluster.sorted_nodes()[0]
        huge = make_container(
            cpu=node.capacity.cpu + 1.0,
            mem=node.capacity.memory + 1.0,
            net=node.capacity.network,
        )
        node.add_container(huge, enforce_capacity=False)
        # A second shaped container pushes the summed rates past the NIC
        # (each class alone is attachable; the *sum* breaks conservation).
        node.add_container(make_container(net=node.capacity.network / 2), enforce_capacity=False)
        sanitizer.check_conservation(now=1.0)
        checks = {v.subject.split("/", 1)[1] for v in sanitizer.violations()
                  if v.check == "conservation"}
        assert {"cpu", "memory", "network"} <= checks

    def test_detached_nic_recorded(self):
        sanitizer, cluster = bound_sanitizer()
        node = cluster.sorted_nodes()[0]
        container = make_container()
        node.add_container(container)
        node.nic.detach(container.container_id)
        sanitizer.check_conservation(now=1.0)
        (violation,) = sanitizer.violations()
        assert violation.check == "conservation"
        assert "no HTB class" in violation.message

    def test_nic_rate_disagreement_recorded(self):
        sanitizer, cluster = bound_sanitizer()
        node = cluster.sorted_nodes()[0]
        container = make_container(net=50.0)
        node.add_container(container)
        # Reshape the HTB class directly, bypassing node.reshape_network's
        # container bookkeeping: the tc and daemon views now disagree.
        node.nic.reshape(container.container_id, rate=80.0)
        sanitizer.check_conservation(now=1.0)
        (violation,) = sanitizer.violations()
        assert violation.check == "conservation"
        assert "disagrees" in violation.message

    def test_within_capacity_is_clean(self):
        sanitizer, cluster = bound_sanitizer()
        node = cluster.sorted_nodes()[0]
        node.add_container(make_container())
        sanitizer.check_conservation(now=1.0)
        assert sanitizer.violations() == ()


class TestPhaseCheck:
    def test_stale_phase_recorded(self):
        sanitizer, cluster = bound_sanitizer()
        node = cluster.sorted_nodes()[0]
        container = make_container()
        node.add_container(container)
        request = Request(service="svc", arrival_time=0.0, cpu_work=0.5, net_mbits=1.0)
        container.accept(request, 0.0)
        request.cpu_done = 0.5  # the work ran out behind the stored phase's back
        sanitizer.check_phases(now=1.0)
        (violation,) = sanitizer.violations()
        assert violation.check == "phase"
        assert violation.subject == f"{node.name}/{container.container_id}/{request.request_id}"
        assert "Phase.CPU" in violation.detail and "Phase.NET" in violation.detail

    def test_advance_that_never_moves_the_phase_on_fails_the_sanitized_lane(self, monkeypatch):
        # The sharing kernel (and ``Request.advance``) still credit the work,
        # but a finished phase is never left: ``phase`` stays where it was.
        monkeypatch.setattr(Request, "finish_phase", lambda self: None)
        sanitizer = SimSanitizer()
        build_sim(sanitizer=sanitizer).run(10.0)
        assert {v.check for v in sanitizer.violations()} == {"phase"}

    def test_healthy_phases_are_clean(self):
        # Disk-bound requests pass through all three phases, several per step.
        sanitizer = SimSanitizer()
        build_sim(sanitizer=sanitizer, profile=DISK_BOUND, rate=10.0).run(30.0)
        assert sanitizer.violations() == ()


class TestLedgerCheck:
    def test_phantom_node_and_replica_recorded(self):
        sanitizer, _ = bound_sanitizer()
        view = make_view(
            services=(make_service("svc", (make_replica("svc-0", node="ghost"),)),),
            nodes=(make_node_view("ghost"),),
        )
        sanitizer.check_view(now=1.0, view=view)
        checks = [v for v in sanitizer.violations() if v.check == "ledger"]
        assert any("does not host" in v.message for v in checks)
        assert any("not a live container" in v.message for v in checks)

    def test_stale_allocation_recorded(self):
        sanitizer, cluster = bound_sanitizer()
        node = cluster.sorted_nodes()[0]
        view = make_view(
            nodes=(
                make_node_view(
                    node.name,
                    capacity=node.capacity,
                    allocated=ResourceVector(1.0, 512.0, 50.0),  # node is empty
                ),
            ),
        )
        sanitizer.check_view(now=1.0, view=view)
        (violation,) = sanitizer.violations()
        assert violation.check == "ledger"
        assert violation.subject == f"{node.name}/allocated"

    def test_faithful_view_is_clean(self):
        sanitizer, cluster = bound_sanitizer()
        node = cluster.sorted_nodes()[0]
        view = make_view(
            nodes=(
                make_node_view(
                    node.name, capacity=node.capacity, allocated=node.allocated()
                ),
            ),
        )
        sanitizer.check_view(now=1.0, view=view)
        assert sanitizer.violations() == ()


class TestAliasingCheck:
    def test_rogue_actor_recorded_with_its_phase_name(self):
        sanitizer = SimSanitizer()
        sim = build_sim(sanitizer=sanitizer)
        node = sim.cluster.sorted_nodes()[0]

        class Rogue:
            def on_step(self, clock):
                # Mutates the fleet domain, owned by the fault injector.
                node.capacity = node.capacity + ResourceVector(cpu=1.0)

        sim.engine.add_actor("rogue", Rogue())
        sim.engine.run_steps(2)
        rogue_hits = [v for v in sanitizer.violations() if v.check == "aliasing"]
        assert rogue_hits, "rogue fleet write went undetected"
        assert all(v.subject == "rogue" for v in rogue_hits)
        assert all("'fleet'" in v.message for v in rogue_hits)

    def test_extra_writers_whitelist_a_custom_actor(self):
        sanitizer = SimSanitizer(extra_writers={"fleet": ["rebalancer"]})
        sim = build_sim(sanitizer=sanitizer)
        node = sim.cluster.sorted_nodes()[0]

        class Rebalancer:
            def on_step(self, clock):
                node.capacity = node.capacity + ResourceVector(cpu=1.0)

        sim.engine.add_actor("rebalancer", Rebalancer())
        sim.engine.run_steps(2)
        assert [v for v in sanitizer.violations() if v.check == "aliasing"] == []


# ----------------------------------------------------------------------
# Recording cap
# ----------------------------------------------------------------------
class TestRecordingCap:
    def test_cap_truncates_and_clear_resets(self):
        sanitizer, _ = bound_sanitizer(max_violations=2)
        for step in range(1, 5):  # every step repeats t=1.0: a time violation each
            one_step(sanitizer, now=1.0, step=step)
        assert len(sanitizer) == 2
        assert sanitizer.truncated is True
        sanitizer.clear()
        assert len(sanitizer) == 0
        assert sanitizer.truncated is False


# ----------------------------------------------------------------------
# Engine + Simulation integration
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def test_healthy_run_brackets_every_step_with_zero_violations(self):
        sanitizer = SimSanitizer()
        sim = build_sim(sanitizer=sanitizer)
        sim.run(60.0)
        assert sanitizer.violations() == ()
        assert sanitizer.steps_checked == sim.engine.clock.step > 0
        assert sanitizer.truncated is False

    def test_sanitizer_does_not_perturb_the_run(self):
        bare = build_sim()
        sanitized = build_sim(sanitizer=SimSanitizer())
        for sim in (bare, sanitized):
            sim.engine.call_at(90.0, lambda: None, label="after-the-run")
        assert sanitized.run(60.0) == bare.run(60.0)
        # The event queue is left in the same state too.
        assert sanitized.engine.events.next_due() == bare.engine.events.next_due() == 90.0


# ----------------------------------------------------------------------
# Fault injection must not false-positive: crashes, joins, and OOM kills
# are all writes by phases that own their domains.
# ----------------------------------------------------------------------
class TestFaultScenarios:
    def test_node_crash_is_clean(self):
        sanitizer = SimSanitizer()
        sim = build_sim(sanitizer=sanitizer, rate=10.0)
        victim = sim.client.node_name_of(
            sim.cluster.service("svc").active_replicas()[0].container_id
        )
        sim.faults.schedule_crash(20.0, victim)
        sim.engine.run_for(40.0)
        assert victim not in sim.cluster.nodes
        assert sanitizer.violations() == ()

    def test_node_addition_is_clean(self):
        sanitizer = SimSanitizer()
        sim = build_sim(sanitizer=sanitizer)
        sim.faults.schedule_add(15.0, "node-99")
        sim.engine.run_for(30.0)
        assert "node-99" in sim.cluster.nodes
        assert sanitizer.violations() == ()

    def test_oom_kills_are_clean(self):
        sanitizer = SimSanitizer()
        sim = build_sim(
            sanitizer=sanitizer,
            profile=MEMORY_BOUND,
            rate=12.0,
            mem_limit=160.0,  # tight limit: requests push residency past it
        )
        sim.run(90.0)
        assert sim.collector.oom_kills > 0, "scenario failed to trigger an OOM kill"
        assert sanitizer.violations() == ()
