# Developer entry points.  The offline-friendly install path is documented
# in README.md ("Install").

.PHONY: install lint test test-simsan bench bench-full perf-check profile reproduce examples clean

install:
	pip install -e . || python setup.py develop

# Static analysis: the in-tree analyzer (docs/dev-tooling.md) is mandatory
# and gates its own wall time; mypy and ruff run when installed (CI always
# has them, offline dev boxes may not).  The analyzer writes the repro.flow/3
# report, with per-phase timings, that CI uploads as an artifact.
lint:
	PYTHONPATH=src python -m repro.devtools --report BENCH_static_analysis.json --max-wall 3.4
	@if command -v ruff >/dev/null 2>&1; then ruff check src tests benchmarks examples; \
	else echo "ruff not installed; skipping (pip install -e .[dev])"; fi
	@if command -v mypy >/dev/null 2>&1; then mypy; \
	else echo "mypy not installed; skipping (pip install -e .[dev])"; fi

test: lint
	pytest tests/

# The sanitized lane: every Simulation built by the suite runs under the
# recording SimSan sanitizer (docs/dev-tooling.md); any invariant
# violation fails the owning test.
test-simsan:
	pytest tests/ --simsan

# The fidelity suite (benchmarks/): every paper figure, plain pytest.  Its
# simulation matrices run as shard sweeps on every CPU of the host.
bench:
	pytest benchmarks/ -s

# Paper-scale benchmarks (15 services / 19 nodes / 1 h).  Slow.
bench-full:
	REPRO_FULL=1 pytest benchmarks/ -s

# Simulator benchmark as a correctness gate (perfbench/README.md): every
# workload untraced and traced, one second each.  Each run checks its
# default-seed digest against perfbench/pinned.json and wraps every traced
# layer by name, so a changed result or a renamed layer fails here.  The
# runner always exits 0; the gate reads its last line.
perf-check:
	python3 perfbench/run.py --workload all --seconds 1 | tee BENCH_perf_check.log
	tail -n 1 BENCH_perf_check.log | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)'

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
	rm -rf .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
