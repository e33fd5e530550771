"""Tracer contract tests: the DecisionTracer's strict span lifecycle,
untraced policies and ledgers holding no tracer, and the wiring that
points policies at the run's tracer."""

import pytest

from repro.cluster.resources import ResourceVector
from repro.core.policy import NodeLedger
from repro.core.view import ClusterView, NodeView, ReplicaView, ServiceView
from repro.errors import ObservabilityError
from repro.instrument import Observe
from repro.obs import DecisionTracer, Tracer


def _view(now: float = 10.0) -> ClusterView:
    replica = ReplicaView(
        container_id="api.r0.c1",
        service="api",
        node="node-00",
        booting=False,
        cpu_request=0.5,
        cpu_usage=0.4,
        mem_limit=512.0,
        mem_usage=200.0,
        net_rate=50.0,
        net_usage=10.0,
    )
    service = ServiceView(
        name="api",
        min_replicas=1,
        max_replicas=4,
        target_utilization=0.5,
        base_cpu_request=0.5,
        base_mem_limit=512.0,
        base_net_rate=50.0,
        replicas=(replica,),
    )
    node = NodeView(
        name="node-00",
        capacity=ResourceVector(8.0, 16384.0, 1000.0),
        allocated=ResourceVector(0.5, 512.0, 50.0),
        services=("api",),
    )
    return ClusterView(now=now, services=(service,), nodes=(node,))


class TestDecisionTracerLifecycle:
    def test_satisfies_the_protocol(self):
        assert isinstance(DecisionTracer(), Tracer)

    def test_records_one_span_per_bracket(self):
        tracer = DecisionTracer()
        tracer.begin_tick(now=5.0, policy="hybrid", digest="abc", services=2, nodes=3, replicas=4)
        tracer.record_metric(service="api", metric="cpu", value=0.8, threshold=0.5, verdict="acquire")
        tracer.record_ledger(op="take", node="node-00", cpu=0.25)
        tracer.record_action(
            kind="vertical-scale", service="api", target="api.r0.c1",
            reason="acquire", metric="cpu", value=0.8, threshold=0.5,
        )
        tracer.end_tick(emitted=1, applied=1, failed=0)

        assert len(tracer) == 1
        (span,) = tracer.spans()
        assert span.now == 5.0 and span.policy == "hybrid" and span.digest == "abc"
        assert span.services == 2 and span.nodes == 3 and span.replicas == 4
        assert [m.verdict for m in span.metrics] == ["acquire"]
        assert [step.op for step in span.ledger] == ["take"]
        assert span.actions[0].value == 0.8 and span.actions[0].threshold == 0.5
        assert (span.emitted, span.applied, span.failed) == (1, 1, 0)

    def test_evidence_does_not_bleed_between_spans(self):
        tracer = DecisionTracer()
        tracer.begin_tick(now=5.0, policy="p", digest="a", services=1, nodes=1, replicas=1)
        tracer.record_metric(service="api", metric="cpu", value=1.0, threshold=0.5, verdict="up")
        tracer.end_tick(emitted=0, applied=0, failed=0)
        tracer.begin_tick(now=10.0, policy="p", digest="b", services=1, nodes=1, replicas=1)
        tracer.end_tick(emitted=0, applied=0, failed=0)
        first, second = tracer.spans()
        assert len(first.metrics) == 1
        assert second.metrics == ()

    def test_double_begin_raises(self):
        tracer = DecisionTracer()
        tracer.begin_tick(now=0.0, policy="p", digest="d", services=1, nodes=1, replicas=1)
        with pytest.raises(ObservabilityError):
            tracer.begin_tick(now=1.0, policy="p", digest="d", services=1, nodes=1, replicas=1)

    def test_record_outside_bracket_raises(self):
        tracer = DecisionTracer()
        with pytest.raises(ObservabilityError):
            tracer.record_metric(service="a", metric="cpu", value=1.0, threshold=0.5, verdict="x")
        with pytest.raises(ObservabilityError):
            tracer.end_tick(emitted=0, applied=0, failed=0)

    def test_clear_drops_completed_spans(self):
        tracer = DecisionTracer()
        tracer.begin_tick(now=0.0, policy="p", digest="d", services=1, nodes=1, replicas=1)
        tracer.end_tick(emitted=0, applied=0, failed=0)
        tracer.clear()
        assert len(tracer) == 0


class TestLedgerTracing:
    def test_ledger_ops_emit_steps(self):
        tracer = DecisionTracer()
        tracer.begin_tick(now=0.0, policy="p", digest="d", services=1, nodes=1, replicas=1)
        ledger = NodeLedger(_view(), tracer=tracer)
        ledger.take("node-00", ResourceVector(cpu=1.0))
        ledger.release("node-00", ResourceVector(cpu=0.5))
        ledger.plan_placement("node-00", "other", ResourceVector(cpu=0.25, memory=128.0))
        tracer.end_tick(emitted=0, applied=0, failed=0)
        (span,) = tracer.spans()
        ops = [step.op for step in span.ledger]
        # plan_placement takes first, then records the placement itself.
        assert ops == ["take", "release", "take", "plan-placement"]
        assert span.ledger[-1].service == "other"

    def test_default_ledger_is_untraced(self):
        ledger = NodeLedger(_view())
        assert ledger._tracer is None
        ledger.take("node-00", ResourceVector(cpu=1.0))  # must not raise


class TestPolicyWiring:
    def test_policies_default_to_no_tracer(self):
        from repro.core import HyScaleCpu, KubernetesHpa
        from tests.test_determinism_end_to_end import _fresh_simulation

        assert KubernetesHpa().tracer is None
        assert HyScaleCpu().tracer is None
        simulation = _fresh_simulation(seed=3)
        assert simulation.monitor.tracer is None
        assert simulation.policy.tracer is None

    def test_monitor_points_policy_at_the_run_tracer(self):
        from repro.core import KubernetesHpa
        from tests.test_determinism_end_to_end import _fresh_simulation  # reuse wiring

        tracer = DecisionTracer()
        simulation = _fresh_simulation(seed=3, observe=Observe(tracer=tracer))
        assert simulation.monitor.tracer is tracer
        assert simulation.policy.tracer is tracer
        # Swapping the policy re-points the new one too.
        simulation.monitor.set_policy(KubernetesHpa())
        assert simulation.monitor.policy.tracer is tracer

    def test_traced_run_produces_spans_naming_value_and_threshold(self):
        from tests.test_determinism_end_to_end import _fresh_simulation

        tracer = DecisionTracer()
        simulation = _fresh_simulation(seed=3, observe=Observe(tracer=tracer))
        simulation.run(60.0)
        spans = tracer.spans()
        assert spans, "expected at least one monitor tick"
        actions = [a for span in spans for a in span.actions]
        assert actions, "expected scaling activity in the probe run"
        for action in actions:
            assert action.metric, "every action names its triggering metric"
        # Span action counts match what the policy emitted each tick.
        assert all(span.emitted == len(span.actions) for span in spans)
