# Developer entry points.  The offline-friendly install path is documented
# in README.md ("Install").

.PHONY: install lint analyze test test-simsan bench bench-full profile reproduce examples clean

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
# contracts (CON001-004), the ranked repro.flow/2 allocation and
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

reproduce:
	hyscale-repro reproduce

examples:
	for f in examples/*.py; do echo "=== $$f ==="; python $$f; done

clean:
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
