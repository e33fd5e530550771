# Developer entry points.  The offline-friendly install path is documented
# in README.md ("Install").

.PHONY: install lint analyze test test-simsan bench bench-full profile telemetry-check telemetry-scale sanitize sweep-check app-bench reproduce examples clean

install:
	pip install -e . || python setup.py develop

# Static analysis: the in-tree determinism/invariant linter is mandatory;
# mypy and ruff run when installed (CI always has them, offline dev boxes
# may not — see docs/dev-tooling.md).
lint:
	PYTHONPATH=src python -m repro.devtools.lint src tests benchmarks examples
	@if command -v ruff >/dev/null 2>&1; then ruff check src tests benchmarks examples; \
	else echo "ruff not installed; skipping (pip install -e .[dev])"; fi
	@if command -v mypy >/dev/null 2>&1; then mypy; \
	else echo "mypy not installed; skipping (pip install -e .[dev])"; fi

# FlowLint + DetFlow (docs/dev-tooling.md): interprocedural call-graph &
# effect analysis over src/repro — hot-path allocation rules,
# parallel-safety rules, determinism-taint rules (DET101-104), registry
# contracts (CON001-003), the ranked repro.flow/2 allocation and
# tainted-path inventories.  Fails on any violation not covered by
# .flowlint-baseline.json, and on a blown wall-time budget (--max-wall:
# 2x the single-parse PR 6 baseline of ~1.7 s); the JSON report (with
# per-phase timings) is uploaded as a CI artifact.
analyze:
	PYTHONPATH=src python -m repro.devtools.flow --report BENCH_static_analysis.json --max-wall 3.4

test: lint analyze
	pytest tests/

# The sanitized lane: every Simulation built by the suite runs under the
# recording SimSan sanitizer (docs/dev-tooling.md); any invariant
# violation fails the owning test.
test-simsan:
	pytest tests/ --simsan

bench:
	pytest benchmarks/ --benchmark-only -s

# Paper-scale benchmarks (15 services / 19 nodes / 1 h).  Slow.
bench-full:
	REPRO_FULL=1 pytest benchmarks/ --benchmark-only -s

# Per-engine-phase wall-time profile (docs/observability.md); the JSON
# report is uploaded as a CI artifact for run-to-run comparison.
profile:
	PYTHONPATH=src python -m repro.cli profile --workload cpu --algorithm hybrid \
		--json BENCH_phase_profile.json

# End-to-end telemetry validation (docs/telemetry.md): runs a short
# instrumented scenario twice, validates the OpenMetrics/JSONL exports with
# the in-tree parsers, and checks byte-determinism; the JSON report is
# uploaded as a CI artifact next to the phase profile.
telemetry-check:
	PYTHONPATH=src python -m repro.telemetry.check --out BENCH_telemetry_snapshot.json

# Monitoring-at-scale probe (docs/telemetry.md "Scaling the observer"):
# sweeps the sampling policies at 24/200/1,000 nodes, asserting zero
# scaling-action divergence, >= 5x cheaper simulated collection under
# `adaptive` at 1,000 nodes, and O(series touched) sharded exports.
# Uploaded as a CI artifact.
telemetry-scale:
	PYTHONPATH=src python -m repro.telemetry.scale_check --out BENCH_telemetry_scale.json

# SimSan end-to-end probe (docs/dev-tooling.md): a fixed-seed scenario runs
# bare and sanitized; the report proves zero violations, no perturbation,
# and measures the sanitizer-off overhead.  Uploaded as a CI artifact.
sanitize:
	PYTHONPATH=src python -m repro.sanitizer.check --out BENCH_sanitizer_report.json

# Parallel-sweep end-to-end probe (docs/parallel.md): asserts a probe sweep
# is byte-identical serial vs parallel, exercises the shard cache
# (cold/warm/version-invalidation), and times the serial-vs-parallel
# speedup.  Uploaded as a CI artifact.
sweep-check:
	PYTHONPATH=src python -m repro.parallel.check --out BENCH_sweep_parallel.json --jobs 2

# Application-graph end-to-end probe (docs/app_graphs.md): asserts that
# capping the db tier of the three-tier app degrades the frontend's
# ingress SLO monotonically (back-pressure direction) at the paper's
# 19-worker scale.  Uploaded as a CI artifact.
app-bench:
	PYTHONPATH=src python -m repro.experiments.app_check --out BENCH_app_graph.json

reproduce:
	hyscale-repro reproduce

examples:
	for f in examples/*.py; do echo "=== $$f ==="; python $$f; done

clean:
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
