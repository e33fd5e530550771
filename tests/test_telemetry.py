"""Tests for the streaming telemetry subsystem (``repro.telemetry``).

Covers the instrument primitives, the metric registry, both
exporters with their strict parsers, SLO burn-rate tracking, and the live
``top`` renderer.  End-to-end byte-determinism of instrumented runs lives
in ``tests/test_determinism_end_to_end.py``.
"""

import io
import json

import pytest

from repro.errors import TelemetryError
from repro.metrics.sla import Sla
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    BurnWindow,
    MetricRegistry,
    SloTracker,
    parse_openmetrics,
    render_openmetrics,
    render_top,
)
from repro.telemetry.instruments import Histogram, validate_metric_name
from repro.telemetry.snapshot import (
    TELEMETRY_SCHEMA,
    parse_snapshot_line,
    read_snapshot_jsonl,
    snapshot_to_jsonl,
    write_snapshot_jsonl,
)


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricRegistry()
        family = registry.counter("requests", "Requests seen.")
        family.inc()
        family.inc(2.5)
        assert family.labels().value == 3.5

    def test_counter_rejects_negative_increment(self):
        registry = MetricRegistry()
        family = registry.counter("requests", "Requests seen.")
        with pytest.raises(TelemetryError):
            family.inc(-1.0)

    def test_gauge_set_and_add(self):
        registry = MetricRegistry()
        family = registry.gauge("backlog", "Queued requests.")
        child = family.labels()
        child.set(4.0)
        child.add(-1.5)
        assert child.value == 2.5

    def test_histogram_bucket_assignment(self):
        h = Histogram((1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 5.0):
            h.observe(value)
        # (<=1.0, <=2.0, +Inf) non-cumulative: 0.5 and 1.0 land in the
        # first bucket, 1.5 in the second, 5.0 overflows.
        assert h.counts == [2, 1, 1]
        assert h.cumulative() == (2, 3, 4)
        assert h.count == 4
        assert h.sum == pytest.approx(8.0)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(TelemetryError):
            Histogram(())
        with pytest.raises(TelemetryError):
            Histogram((1.0, 1.0))
        with pytest.raises(TelemetryError):
            Histogram((2.0, 1.0))

    def test_histogram_quantiles_interpolate(self):
        h = Histogram((1.0, 2.0, 4.0))
        for _ in range(10):
            h.observe(1.5)  # all mass in (1, 2]
        assert h.quantile(0.0) == pytest.approx(1.0)
        assert h.quantile(0.5) == pytest.approx(1.5)
        assert h.quantile(1.0) == pytest.approx(2.0)

    def test_histogram_quantile_clamps_at_last_finite_bound(self):
        h = Histogram((1.0, 2.0))
        h.observe(100.0)  # +Inf bucket
        assert h.quantile(0.99) == pytest.approx(2.0)

    def test_histogram_quantile_edge_cases(self):
        h = Histogram((1.0,))
        assert h.quantile(0.5) == 0.0  # empty
        with pytest.raises(TelemetryError):
            h.quantile(1.5)

    def test_labels_positional_and_named_agree(self):
        registry = MetricRegistry()
        family = registry.counter("routed", "Routed.", labels=("node",))
        family.labels("n1").inc()
        family.labels(node="n1").inc()
        assert family.labels("n1").value == 2.0
        assert len(family) == 1

    def test_labels_validation(self):
        registry = MetricRegistry()
        family = registry.counter("routed", "Routed.", labels=("node",))
        with pytest.raises(TelemetryError):
            family.labels("n1", node="n1")  # both styles at once
        with pytest.raises(TelemetryError):
            family.labels("a", "b")  # arity mismatch
        with pytest.raises(TelemetryError):
            family.labels(ghost="x")  # unknown label name

    def test_peek_never_creates_children(self):
        registry = MetricRegistry()
        family = registry.counter("routed", "Routed.", labels=("node",))
        assert family.peek("n1") is None
        assert len(family) == 0
        family.labels("n1").inc()
        assert family.peek("n1") is family.labels("n1")

    def test_name_validation(self):
        assert validate_metric_name("node_cpu_ratio") == "node_cpu_ratio"
        for bad in ("", "Upper", "9leading", "has-dash", "requests_total"):
            with pytest.raises(TelemetryError):
                validate_metric_name(bad)

    def test_default_latency_buckets_increase(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestRegistry:
    def test_registration_is_idempotent(self):
        registry = MetricRegistry()
        first = registry.counter("hits", "Hits.")
        again = registry.counter("hits", "Hits.")
        assert first is again

    def test_conflicting_redeclaration_raises(self):
        registry = MetricRegistry()
        registry.counter("hits", "Hits.")
        with pytest.raises(TelemetryError):
            registry.gauge("hits", "Hits.")  # different kind
        with pytest.raises(TelemetryError):
            registry.counter("hits", "Hits.", labels=("node",))  # different labels

    def test_families_sorted(self):
        registry = MetricRegistry()
        registry.gauge("zeta", "Z.")
        registry.gauge("alpha", "A.")
        registry.counter("mid", "M.")
        assert [f.name for f in registry.families()] == ["alpha", "mid", "zeta"]

    def test_series_count_sums_every_family(self):
        registry = MetricRegistry()
        registry.gauge("zeta", "Z.", labels=("node",))
        registry.counter("alpha", "A.").labels().inc()
        for node in ("n0", "n1", "n2"):
            registry.get("zeta").labels(node=node).set(1.0)
        assert registry.series_count() == sum(len(f) for f in registry.families()) == 4

    def test_capture_appends_and_trims_history(self):
        registry = MetricRegistry(retention=3)
        child = registry.counter("hits", "Hits.").labels()
        for t in range(5):
            child.inc()
            registry.capture(float(t))
        assert list(child.history) == [(2.0, 3.0), (3.0, 4.0), (4.0, 5.0)]

    def test_capture_rejects_time_going_backwards(self):
        registry = MetricRegistry()
        registry.capture(10.0)
        with pytest.raises(TelemetryError):
            registry.capture(9.0)


def _populated_registry() -> MetricRegistry:
    registry = MetricRegistry()
    routed = registry.counter("routed", "Requests routed.", labels=("node",))
    routed.labels("n1").inc(3)
    routed.labels("n0").inc(1)
    registry.gauge("backlog", "Backlog depth.").labels().set(2.0)
    hist = registry.histogram(
        "latency_seconds", "Latency.", buckets=(0.5, 1.0), unit="seconds"
    )
    hist.observe(0.2)
    hist.observe(0.7)
    hist.observe(9.0)
    registry.capture(60.0)
    return registry


class TestOpenMetrics:
    def test_render_parse_round_trip(self):
        text = render_openmetrics(_populated_registry())
        assert text.endswith("# EOF\n")
        families = parse_openmetrics(text)
        assert set(families) == {"routed", "backlog", "latency_seconds"}
        routed = families["routed"]
        assert routed.kind == "counter"
        # Counters export under the _total sample name, children label-sorted.
        assert [
            (name, labels.get("node"), value) for name, labels, value in routed.samples
        ] == [
            ("routed_total", "n0", 1.0),
            ("routed_total", "n1", 3.0),
        ]

    def test_histogram_exposition_is_cumulative(self):
        text = render_openmetrics(_populated_registry())
        families = parse_openmetrics(text)
        hist = families["latency_seconds"]
        assert hist.unit == "seconds"
        by_name: dict[str, list[float]] = {}
        for name, _labels, value in hist.samples:
            by_name.setdefault(name, []).append(value)
        # Buckets are cumulative, ending at +Inf == count.
        assert by_name["latency_seconds_bucket"] == [1.0, 2.0, 3.0]
        assert by_name["latency_seconds_count"] == [3.0]
        assert by_name["latency_seconds_sum"] == [pytest.approx(9.9)]

    def test_parser_rejects_missing_eof(self):
        text = render_openmetrics(_populated_registry()).replace("# EOF\n", "")
        with pytest.raises(TelemetryError):
            parse_openmetrics(text)

    def test_parser_rejects_non_monotone_histogram(self):
        bad = (
            "# TYPE h histogram\n"
            '# HELP h H.\n'
            'h_bucket{le="1.0"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_count 3\n"
            "h_sum 1.0\n"
            "# EOF\n"
        )
        with pytest.raises(TelemetryError):
            parse_openmetrics(bad)


class TestSnapshot:
    def test_lines_are_canonical_json_with_schema(self):
        text = snapshot_to_jsonl(_populated_registry(), now=60.0)
        for line in text.splitlines():
            payload = json.loads(line)
            assert payload["schema"] == TELEMETRY_SCHEMA
            # Canonical encoding: sorted keys, compact separators.
            assert line == json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            )

    def test_histogram_line_shape(self):
        text = snapshot_to_jsonl(_populated_registry(), now=60.0)
        hist_lines = [
            json.loads(line)
            for line in text.splitlines()
            if json.loads(line).get("name") == "latency_seconds"
        ]
        assert len(hist_lines) == 1
        (line,) = hist_lines
        assert line["count"] == 3
        assert line["sum"] == pytest.approx(9.9)
        # [bound, cumulative] pairs; +Inf encodes as null.
        assert line["buckets"] == [[0.5, 1], [1.0, 2], [None, 3]]

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "snap.jsonl"
        written = write_snapshot_jsonl(_populated_registry(), path, now=60.0)
        lines = read_snapshot_jsonl(path)
        assert written == len(lines) > 0

    def test_parse_rejects_wrong_schema(self):
        with pytest.raises(TelemetryError):
            parse_snapshot_line('{"schema": "repro.obs/1", "kind": "counter"}')
        with pytest.raises(TelemetryError):
            parse_snapshot_line("not json at all")


class TestBurnWindow:
    def test_validation(self):
        with pytest.raises(TelemetryError):
            BurnWindow(name="", horizon=60.0, threshold=1.0)
        with pytest.raises(TelemetryError):
            BurnWindow(name="w", horizon=0.0, threshold=1.0)
        with pytest.raises(TelemetryError):
            BurnWindow(name="w", horizon=60.0, threshold=0.0)
        with pytest.raises(TelemetryError):
            BurnWindow(name="w", horizon=60.0, threshold=1.0, confirm_fraction=0.0)

    def test_confirm_horizon(self):
        window = BurnWindow(name="w", horizon=100.0, threshold=2.0)
        assert window.confirm_horizon == pytest.approx(25.0)


class TestSloTracker:
    def _tracker(self, *, availability=0.9, threshold=2.0):
        return SloTracker(
            Sla(response_time_target=1.0, availability_target=availability),
            windows=(BurnWindow(name="w", horizon=100.0, threshold=threshold),),
        )

    def test_is_good_classification(self):
        tracker = self._tracker()
        assert tracker.is_good(succeeded=True, response_time=0.5)
        assert not tracker.is_good(succeeded=True, response_time=2.0)  # too slow
        assert not tracker.is_good(succeeded=False, response_time=0.1)

    def test_burn_rate_normalises_by_budget(self):
        tracker = self._tracker(availability=0.9)  # budget = 0.1
        tracker.record("svc", good=8, bad=2)  # 20 % bad
        tracker.capture(0.0)
        assert tracker.burn_rate("svc", 100.0, 0.0) == pytest.approx(2.0)

    def test_burn_rate_uses_trailing_window(self):
        tracker = self._tracker()
        tracker.record("svc", bad=10)  # old badness
        tracker.capture(0.0)
        tracker.record("svc", good=100)  # then a clean stretch
        tracker.capture(200.0)
        tracker.capture(400.0)
        # The 100 s window at t=400 contains only good traffic.
        assert tracker.burn_rate("svc", 100.0, 400.0) == pytest.approx(0.0)

    def test_alert_fires_and_resolves(self):
        tracker = self._tracker(availability=0.9, threshold=2.0)
        tracker.record("svc", good=5, bad=5)  # burn 5.0
        transitions = tracker.capture(10.0)
        assert [(a.state, a.window) for a in transitions] == [("firing", "w")]
        assert tracker.firing() == [("svc", "w")]
        # Re-capture while still burning: no duplicate transition.
        assert tracker.capture(20.0) == []
        # A long clean stretch drains the window and resolves the alert.
        tracker.record("svc", good=500)
        transitions = tracker.capture(150.0)
        assert [a.state for a in transitions] == ["resolved"]
        assert tracker.firing() == []
        assert [a.state for a in tracker.alerts()] == ["firing", "resolved"]

    def test_budget_remaining(self):
        tracker = self._tracker(availability=0.9)
        assert tracker.budget_remaining("ghost") == 1.0  # untouched budget
        tracker.record("svc", good=90, bad=10)  # exactly at budget
        assert tracker.budget_remaining("svc") == pytest.approx(0.0)

    def test_perfect_availability_gets_epsilon_budget(self):
        tracker = SloTracker(Sla(availability_target=1.0))
        assert tracker.budget > 0

    def test_constructor_validation(self):
        with pytest.raises(TelemetryError):
            SloTracker(windows=())
        window = BurnWindow(name="w", horizon=60.0, threshold=1.0)
        with pytest.raises(TelemetryError):
            SloTracker(windows=(window, window))
        with pytest.raises(TelemetryError):
            self._tracker().record("svc", good=-1)

    def test_alert_to_dict_round_trips_json(self):
        tracker = self._tracker()
        tracker.record("svc", bad=10)
        (alert,) = tracker.capture(5.0)
        payload = json.loads(json.dumps(alert.to_dict()))
        assert payload["state"] == "firing"
        assert payload["service"] == "svc"


class TestTopRenderer:
    def test_render_top_shows_series(self):
        registry = MetricRegistry()
        registry.counter("sim_steps", "Steps.").inc(42)
        registry.gauge(
            "node_cpu_utilization_ratio", "CPU.", labels=("node",)
        ).set(0.5, node="worker-00")
        registry.capture(30.0)
        frame = render_top(registry, now=30.0, title="probe")
        assert "probe" in frame
        assert "worker-00" in frame
        assert "t=    30.0s" in frame or "30.0" in frame

    def test_render_top_does_not_mint_children(self):
        registry = MetricRegistry()
        family = registry.gauge("service_replicas", "R.", labels=("service",))
        registry.capture(0.0)
        render_top(registry, now=0.0)
        assert len(family) == 0

    def test_render_top_max_nodes_ranks_by_binding_resource(self):
        registry = MetricRegistry()
        cpu = registry.gauge("node_cpu_utilization_ratio", "CPU.", labels=("node",))
        mem = registry.gauge("node_memory_utilization_ratio", "MEM.", labels=("node",))
        for node, cpu_v, mem_v in (
            ("worker-00", 0.1, 0.9),  # binding: mem 0.9 — busiest
            ("worker-01", 0.5, 0.2),  # binding: cpu 0.5
            ("worker-02", 0.3, 0.1),  # binding: cpu 0.3 — hidden at K=2
        ):
            cpu.set(cpu_v, node=node)
            mem.set(mem_v, node=node)
        registry.capture(30.0)
        frame = render_top(registry, now=30.0, max_nodes=2)
        assert "worker-00" in frame and "worker-01" in frame
        assert "worker-02" not in frame
        assert "(+1 more node)" in frame

    def test_render_top_without_max_nodes_shows_everyone(self):
        registry = MetricRegistry()
        cpu = registry.gauge("node_cpu_utilization_ratio", "CPU.", labels=("node",))
        for i in range(3):
            cpu.set(0.1 * i, node=f"worker-{i:02d}")
        registry.capture(30.0)
        frame = render_top(registry, now=30.0)
        assert "more node" not in frame
        assert frame.count("worker-") == 3

    def test_render_top_rejects_non_positive_max_nodes(self):
        registry = MetricRegistry()
        registry.capture(0.0)
        with pytest.raises(ValueError):
            render_top(registry, now=0.0, max_nodes=0)

    def test_run_top_requires_recording_registry(self):
        from repro.telemetry import run_top

        class _Stub:
            engine = None
            telemetry = None

        with pytest.raises(ValueError):
            run_top(_Stub(), duration=1.0, interval=1.0, stream=io.StringIO())
