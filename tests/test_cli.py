"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import WORKLOADS, build_parser, main


def _summary_document() -> dict:
    """A ``run --json`` summary entry as ``RunSummary.to_dict`` writes it."""
    from repro.metrics.summary import RunSummary

    counts = dict.fromkeys(
        ("total_requests", "completed", "removal_failures", "connection_failures",
         "vertical_scale_ops", "horizontal_scale_ups", "horizontal_scale_downs", "oom_kills"),
        0,
    )
    times = dict.fromkeys(
        ("avg_response_time", "p50_response_time", "p95_response_time", "p99_response_time"), 0.0
    )
    return RunSummary(algorithm="hybrid", workload="w", duration=10.0, **counts, **times).to_dict()


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "kubernetes" in out and "bitbrains" in out

    def test_run_requires_workload_or_app(self):
        # ``workload`` became optional when ``--app`` arrived; exactly one
        # of the two must be named, enforced past the parser (exit 2).
        assert main(["run"]) == 2
        assert main(["run", "cpu", "--app", "three-tier"]) == 2

    def test_run_rejects_a_repeated_algorithm(self, capsys):
        # Rejected before anything is built: a usage error, not a traceback.
        assert main(["run", "cpu", "--algorithms", "hybrid", "hybrid"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "hybrid" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "cpu", "--algorithms", "hybrid", "--jobs", "0"],
            ["run", "cpu", "--algorithms", "hybrid", "--jobs", "-1"],
            ["reproduce", "--jobs", "0"],
            ["profile", "--workload", "cpu", "--duration", "-5"],
        ],
        ids=["run-jobs-0", "run-jobs-negative", "reproduce-jobs-0", "profile-negative-duration"],
    )
    def test_bad_jobs_and_profile_duration_are_usage_errors(self, capsys, argv):
        # Rejected before anything runs: a usage error, not a traceback.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--interval", "0"],
            ["--interval", "900", "--duration", "600"],
            ["--duration", "0"],
            ["--vms", "0"],
        ],
        ids=["interval-0", "interval-past-duration", "duration-0", "vms-0"],
    )
    def test_trace_rejects_a_bad_shape(self, capsys, flags):
        assert main(["trace", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_inspect_rejects_a_missing_dump(self, capsys, tmp_path):
        assert main(["inspect", str(tmp_path / "missing.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "missing.json" in captured.err
        assert captured.out == ""

    def test_inspect_rejects_a_json_list(self, capsys, tmp_path):
        dump = tmp_path / "list.json"
        dump.write_text("[]")
        assert main(["inspect", str(dump)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "got list" in captured.err
        assert captured.out == ""

    def test_inspect_rejects_a_summary_with_missing_fields(self, capsys, tmp_path):
        dump = tmp_path / "partial.json"
        dump.write_text('{"hybrid": {"algorithm": "x"}}')
        assert main(["inspect", str(dump)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "'hybrid'" in captured.err and "missing field 'workload'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        ("field", "value"),
        [("total_requests", "x"), ("avg_response_time", "slow")],
        ids=["requests-string", "response-time-string"],
    )
    def test_inspect_rejects_a_mistyped_summary_field(self, capsys, tmp_path, field, value):
        dump = tmp_path / "typed.json"
        dump.write_text(json.dumps({"hybrid": {**_summary_document(), field: value}}))
        assert main(["inspect", str(dump)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
        assert f"runs['hybrid'].{field} must be" in captured.err
        assert captured.out == ""

    def test_run_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "gpu"])

    def test_run_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "cpu", "--algorithms", "magic"])

    def test_workload_registry_covers_paper(self):
        # The paper's five workloads plus the disk extension.
        assert set(WORKLOADS) == {"cpu", "memory", "mixed", "network", "disk", "bitbrains"}

    def test_run_parallel_flag_defaults(self):
        args = build_parser().parse_args(["run", "cpu"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert args.seed_mode == "shared"  # the paper's like-for-like replay

    def test_reproduce_parallel_flag_defaults(self):
        args = build_parser().parse_args(["reproduce"])
        assert args.jobs == 1
        assert args.cache_dir is None

    def test_run_rejects_unknown_seed_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "cpu", "--seed-mode", "lucky"])

    def test_run_sampling_defaults_to_full(self):
        args = build_parser().parse_args(["run", "cpu"])
        assert args.sampling == "full"

    def test_run_rejects_unknown_sampling_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "cpu", "--sampling", "psychic"])

    def test_top_nodes_and_sampling_flags(self):
        args = build_parser().parse_args(
            ["top", "cpu", "--nodes", "3", "--sampling", "adaptive"]
        )
        assert args.nodes == 3
        assert args.sampling == "adaptive"


class TestListingStability:
    """Registry-backed listings must be byte-stable run to run.

    The ``--sampling`` choice list and the unknown-name error messages
    enumerate a registry; a hash-order leak there would churn help text
    and CI logs between otherwise identical runs.
    """

    def test_help_text_is_byte_stable_across_parsers(self):
        assert build_parser().format_help() == build_parser().format_help()

    def test_unknown_sampling_error_is_stable_and_sorted(self, capsys):
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "cpu", "--sampling", "psychic"])
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        listing = errors[0]
        assert listing.index("adaptive") < listing.index("full")
        assert listing.index("full") < listing.index("threshold-aware")

    def test_unknown_algorithm_listing_is_sorted(self):
        from repro.core.registry import make_policy, registered_policies
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError) as excinfo:
            make_policy("magic")
        message = str(excinfo.value)
        names = registered_policies()
        assert list(names) == sorted(names)
        assert str(names) in message  # the full sorted tuple, verbatim
        assert build_parser().parse_args(["top", "cpu"]).nodes is None


class TestCommands:
    def test_trace_command(self, capsys):
        assert main(["trace", "--vms", "5", "--duration", "120", "--interval", "30", "--stride", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "cpu %" in out

    def test_section3_network_only(self, capsys):
        assert main(["section3", "--which", "network"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "Figure 2" not in out

    def test_section3_memory_only(self, capsys):
        assert main(["section3", "--which", "memory"]) == 0
        out = capsys.readouterr().out
        assert "Section III-B" in out

    def test_run_with_costs(self, capsys):
        assert main(
            ["run", "cpu", "--burst", "low", "--algorithms", "kubernetes", "hybrid", "--costs"]
        ) == 0
        out = capsys.readouterr().out
        assert "run cost" in out
        assert "kWh" in out
        assert "speedup of hybrid over kubernetes" in out

    def test_run_with_timeline(self, capsys):
        assert main(
            ["run", "cpu", "--burst", "low", "--algorithms", "hybrid", "--timeline"]
        ) == 0
        out = capsys.readouterr().out
        assert "cpu used" in out
        assert "allocation efficiency" in out

    def test_run_with_events(self, capsys):
        assert main(
            ["run", "cpu", "--burst", "low", "--algorithms", "hybrid", "--events", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "scaling events: hybrid" in out
        assert "decision mix:" in out

    def test_run_parallel_jobs_match_serial(self, capsys, tmp_path):
        serial_dump = tmp_path / "serial.json"
        parallel_dump = tmp_path / "parallel.json"
        base = ["run", "cpu", "--burst", "low", "--algorithms", "kubernetes", "hybrid"]
        assert main(base + ["--json", str(serial_dump)]) == 0
        assert main(base + ["--jobs", "2", "--json", str(parallel_dump)]) == 0
        capsys.readouterr()
        assert parallel_dump.read_text() == serial_dump.read_text()

    def test_run_cache_dir_resumes(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = [
            "run", "cpu", "--burst", "low", "--algorithms", "hybrid",
            "--cache-dir", str(cache),
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "(cached)" not in first.err
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "(cached)" in second.err
        assert second.out == first.out  # same table from the cached shard

    def test_observed_run_keeps_the_seed_mode(self, capsys, tmp_path):
        # An observation flag moves the run in-process; it must run the
        # sweep's own shards, so --seed-mode means the same on both paths.
        plain, observed = tmp_path / "plain.json", tmp_path / "observed.json"
        base = ["run", "cpu", "--burst", "low", "--algorithms", "hybrid", "--seed-mode", "per_shard"]
        assert main(base + ["--json", str(plain)]) == 0
        assert main(base + ["--events", "1", "--json", str(observed)]) == 0
        capsys.readouterr()
        assert observed.read_text() == plain.read_text()

    def test_routing_rides_the_cached_sweep(self, capsys, tmp_path):
        # --routing is part of each shard's identity, so a non-default
        # routing is cached like any other run and agrees with the
        # in-process path.
        cache = tmp_path / "cache"
        swept, observed = tmp_path / "swept.json", tmp_path / "observed.json"
        base = ["run", "cpu", "--burst", "low", "--algorithms", "hybrid", "--routing", "round_robin"]
        assert main(base + ["--cache-dir", str(cache), "--json", str(swept)]) == 0
        assert main(base + ["--cache-dir", str(cache)]) == 0
        assert "(cached)" in capsys.readouterr().err
        assert main(base + ["--events", "1", "--json", str(observed)]) == 0
        capsys.readouterr()
        assert observed.read_text() == swept.read_text()

    def test_reproduce_single_figure(self, capsys):
        assert main(["reproduce", "--figures", "fig6b"]) == 0
        out = capsys.readouterr().out
        assert "fig6b" in out
        assert "Figure 2" in out  # section III curves always included
        assert "vs kubernetes" in out

    def test_reproduce_with_jobs_and_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = [
            "reproduce", "--figures", "fig6a", "--jobs", "2",
            "--cache-dir", str(cache),
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "fig6a" in first.out
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "(cached)" in second.err
        assert second.out == first.out

    def test_reproduce_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "--figures", "fig99"])

    def test_run_with_json_dump(self, capsys, tmp_path):
        out_file = tmp_path / "runs.json"
        assert main(
            ["run", "cpu", "--burst", "low", "--algorithms", "hybrid", "--json", str(out_file)]
        ) == 0
        import json

        payload = json.loads(out_file.read_text())
        assert "hybrid" in payload
        assert payload["hybrid"]["algorithm"] == "hybrid"

    def test_inspect_round_trip(self, capsys, tmp_path):
        dump = tmp_path / "runs.json"
        main(["run", "cpu", "--burst", "low", "--algorithms", "hybrid", "--json", str(dump)])
        capsys.readouterr()  # discard the run output
        assert main(["inspect", str(dump), "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "hybrid" in out
        assert "avg resp" in out
        assert "allocation efficiency" in out


class TestObservabilityCommands:
    def test_run_trace_out_writes_parseable_jsonl(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(
            ["run", "cpu", "--burst", "low", "--algorithms", "hybrid", "--trace-out", str(trace)]
        ) == 0
        err = capsys.readouterr().err
        assert "decision spans" in err

        from repro.obs import read_trace_jsonl

        spans = read_trace_jsonl(trace)
        assert spans, "expected decision spans from the probe run"
        # Every emitted action names its triggering metric value/threshold.
        for span in spans:
            for action in span.actions:
                assert action.metric

    def test_run_trace_out_splits_per_algorithm(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(
            [
                "run", "cpu", "--burst", "low",
                "--algorithms", "kubernetes", "hybrid",
                "--trace-out", str(trace),
            ]
        ) == 0
        assert (tmp_path / "t.kubernetes.jsonl").exists()
        assert (tmp_path / "t.hybrid.jsonl").exists()

    def test_explain_renders_a_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        main(["run", "cpu", "--burst", "low", "--algorithms", "hybrid", "--trace-out", str(trace)])
        capsys.readouterr()
        assert main(["explain", str(trace), "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "policy=hybrid" in out
        assert "threshold" in out
        assert "ticks" in out

    def test_explain_actions_only(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        main(["run", "cpu", "--burst", "low", "--algorithms", "hybrid", "--trace-out", str(trace)])
        capsys.readouterr()
        assert main(["explain", str(trace), "--actions-only"]) == 0
        out = capsys.readouterr().out
        assert "  metric " not in out  # evidence lines suppressed
        assert "ticks" in out

    def test_explain_missing_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["explain", str(tmp_path / "missing.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_explain_rejects_a_mistyped_span_field(self, capsys, tmp_path):
        from repro.obs import DecisionSpan, span_to_json_line

        span = DecisionSpan(now=5.0, policy="hybrid", digest="d", services=1, nodes=1, replicas=1)
        line = {**json.loads(span_to_json_line(span)), "metrics": 5}
        trace = tmp_path / "t.jsonl"
        trace.write_text(json.dumps(line) + "\n")
        assert main(["explain", str(trace)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
        assert "t.jsonl:1: span.metrics must be a JSON list" in captured.err
        assert captured.out == ""

    def test_profile_renders_phase_table(self, capsys):
        assert main(
            ["profile", "--workload", "cpu", "--burst", "low", "--duration", "60"]
        ) == 0
        out = capsys.readouterr().out
        assert "actor:" in out
        assert "share" in out

    def test_profile_json_report(self, capsys, tmp_path):
        report = tmp_path / "phases.json"
        assert main(
            [
                "profile", "--workload", "cpu", "--burst", "low",
                "--duration", "60", "--json", str(report),
            ]
        ) == 0
        import json

        payload = json.loads(report.read_text())
        assert payload["steps"] > 0
        assert any(name.startswith("actor:") for name in payload["phases"])
        assert payload["counters"].get("metrics.steps", 0) > 0


class TestTelemetryCommands:
    def test_run_metrics_out_writes_parseable_snapshot(self, capsys, tmp_path):
        snap = tmp_path / "m.jsonl"
        assert main(
            [
                "run", "cpu", "--burst", "low",
                "--algorithms", "hybrid",
                "--metrics-out", str(snap),
            ]
        ) == 0
        assert "metric snapshot lines" in capsys.readouterr().err

        from repro.telemetry import read_snapshot_jsonl

        lines = read_snapshot_jsonl(snap)
        assert lines, "expected metric lines from the probe run"
        names = {line.get("name") for line in lines}
        assert "sim_steps" in names
        assert "requests_completed" in names

    def test_run_openmetrics_out_writes_valid_exposition(self, tmp_path):
        out = tmp_path / "m.om"
        assert main(
            [
                "run", "cpu", "--burst", "low",
                "--algorithms", "hybrid",
                "--openmetrics-out", str(out),
            ]
        ) == 0

        from repro.telemetry import parse_openmetrics

        families = parse_openmetrics(out.read_text())
        assert "sim_steps" in families
        assert "request_response_seconds" in families

    def test_run_metrics_out_splits_per_algorithm(self, tmp_path):
        snap = tmp_path / "m.jsonl"
        assert main(
            [
                "run", "cpu", "--burst", "low",
                "--algorithms", "kubernetes", "hybrid",
                "--metrics-out", str(snap),
            ]
        ) == 0
        assert (tmp_path / "m.kubernetes.jsonl").exists()
        assert (tmp_path / "m.hybrid.jsonl").exists()

    def test_top_renders_frames(self, capsys):
        assert main(
            ["top", "cpu", "--burst", "low", "--duration", "60", "--interval", "30"]
        ) == 0
        out = capsys.readouterr().out
        assert "NODE" in out
        assert "SERVICE" in out
        assert out.count("SLO") >= 2  # one panel per frame

    def test_top_nodes_truncates_the_node_panel(self, capsys):
        assert main(
            [
                "top", "cpu", "--burst", "low", "--duration", "60",
                "--interval", "30", "--nodes", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "more node" in out
        # Only the K busiest node rows render per frame.
        node_rows = [line for line in out.splitlines() if line.startswith("node-")]
        frames = out.count("NODE")
        assert len(node_rows) == 2 * frames

    def test_top_counts_simulated_time(self, capsys):
        # 0.7 s is not a whole number of 0.5 s steps; the run still ends
        # at the requested duration.
        assert main(["top", "cpu", "--duration", "10", "--interval", "0.7"]) == 0
        assert "t=10.0s" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--interval", "0"], ["--interval", "0.2"], ["--interval", "-1"], ["--nodes", "0"]],
        ids=["interval-0", "interval-below-step", "interval-negative", "nodes-0"],
    )
    def test_top_rejects_bad_interval_and_nodes(self, capsys, flags):
        assert main(["top", "cpu", "--duration", "10", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_run_with_adaptive_sampling_reports_the_budget(self, capsys):
        assert main(
            [
                "run", "cpu", "--burst", "low",
                "--algorithms", "hybrid",
                "--sampling", "adaptive",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "sampling adaptive: observed" in captured.err
        assert "staleness bound" in captured.err
        assert "avg resp" in captured.out  # the normal comparison table still renders


class TestLintAndAnalyzeCommands:
    """Exit-code contract (0 clean / 1 violations / 2 usage error), the
    ``catalogue_version`` report field, and the one ``lint`` verb, which
    also runs the call-graph rules the retired ``analyze`` verb ran."""

    #: Worker fixture: clean under the file rules, but its ``os.environ``
    #: write is a PAR002 for the call-graph rules.
    WORKER = (
        "import os\n\n\n"
        "def run_shard_payload(payload: dict) -> dict:\n"
        '    os.environ["SEED"] = "1"\n'
        "    return payload\n"
    )

    def _write(self, root, rel, source):
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return path

    def test_lint_exit_zero_and_catalogue_version(self, tmp_path, capsys):
        from repro.devtools.analyzer import CATALOGUE_VERSION

        self._write(tmp_path, "src/repro/sim/ok.py", "X: int = 1\n")
        assert main(["lint", "src", "--root", str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["catalogue_version"] == CATALOGUE_VERSION
        assert payload["summary"]["violations"] == 0

    def test_lint_exit_one_on_violation(self, tmp_path, capsys):
        self._write(
            tmp_path,
            "src/repro/cluster/bad.py",
            "import numpy as np\n\ndef make() -> object:\n    return np.random.default_rng(0)\n",
        )
        assert main(["lint", "src", "--root", str(tmp_path)]) == 1
        assert "DET002" in capsys.readouterr().out

    def test_lint_exit_two_on_missing_path(self, tmp_path, capsys):
        assert main(["lint", "no-such-dir", "--root", str(tmp_path)]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_lint_runs_the_call_graph_rules(self, tmp_path, capsys):
        # No flag needed: a plain ``lint src`` runs the call-graph rules
        # over the src/repro subset of its input.
        self._write(tmp_path, "src/repro/parallel/worker.py", self.WORKER)
        assert main(["lint", "src", "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "PAR002" in out
        assert "tainted path(s)" in out

    def test_lint_exit_zero_on_clean_package(self, tmp_path, capsys):
        self._write(tmp_path, "src/repro/sim/ok.py", "X: int = 1\n")
        assert main(["lint", "src/repro", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 tainted path(s)" in out
        assert "clean:" in out

    def test_lint_exit_one_on_call_graph_findings(self, tmp_path, capsys):
        self._write(tmp_path, "src/repro/parallel/worker.py", self.WORKER)
        assert main(["lint", "src/repro", "--root", str(tmp_path)]) == 1
        assert "PAR002" in capsys.readouterr().out

    def test_lint_exit_two_when_one_of_its_paths_is_missing(self, tmp_path, capsys):
        self._write(tmp_path, "src/repro/sim/ok.py", "X: int = 1\n")
        assert main(["lint", "src/repro", "no-such-dir", "--root", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "no such path" in captured.err and "no-such-dir" in captured.err
        assert captured.out == ""  # nothing was analyzed

    def test_lint_parser_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == ["src", "examples"]
        assert args.format == "text"
        assert args.report is None
        assert args.max_wall is None
        assert not hasattr(args, "flow") and not hasattr(args, "baseline")

    def test_lint_writes_the_report(self, tmp_path, capsys):
        self._write(tmp_path, "src/repro/parallel/worker.py", self.WORKER)
        report = tmp_path / "flow.json"
        main(["lint", "src/repro", "--root", str(tmp_path), "--report", str(report)])
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["schema"] == "repro.flow/3"
        assert payload["summary"]["violations"] >= 1
        assert "tainted_path_inventory" in payload
        assert "timings" in payload  # CLI merges phase timings into the artifact

    def test_lint_prints_what_the_module_entry_prints(self, tmp_path, capsys):
        from repro.devtools import main as devtools_main

        self._write(tmp_path, "src/repro/parallel/worker.py", self.WORKER)
        argv = ["src", "--root", str(tmp_path)]
        assert main(["lint", *argv]) == 1
        via_cli = capsys.readouterr().out
        assert devtools_main(argv) == 1
        assert capsys.readouterr().out == via_cli
        assert via_cli.startswith("src/repro/parallel/worker.py")
