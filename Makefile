# Single source of truth for the commands CI runs — `make lint` locally
# is exactly the lint job, `make bench-smoke` exactly the bench job,
# and `make ci-local` walks the whole job sequence in one go.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint test bench bench-smoke bench-emit fault-matrix serve-smoke serve-bench chaos-serve perf-gate perfbench-selftest ci-local

lint:
	ruff check .

# Extra pytest flags ride through PYTEST_ARGS — CI passes
# --junitxml/--durations here so local runs stay terse by default.
PYTEST_ARGS ?=
test:
	$(PYTHON) -m pytest -x -q $(PYTEST_ARGS)

# Full benchmark harness: timing rounds + regenerated tables/figures.
bench:
	$(PYTHON) -m pytest benchmarks/ -q --benchmark-only

# One pass through every benchmark without timing rounds — catches
# import/logic rot cheaply; artifacts still land in benchmarks/results/.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/ -q --benchmark-disable

# Emit-path benchmark alone: regenerate BENCH_emit.json (lazy vs
# materialized time/memory ratios, span counters, shm availability) and
# render the before/after table against the committed baseline — the
# table also lands in $$GITHUB_STEP_SUMMARY when that variable is set.
bench-emit:
	$(PYTHON) -m pytest benchmarks/test_perf_emit.py -q --benchmark-disable
	$(PYTHON) benchmarks/perf_gate.py --fresh-dir benchmarks/results \
		--baseline-git HEAD

# Fault-tolerance matrix: drive retry / pool-respawn / resume /
# quarantine against injected faults at WORKERS shards, assert results
# stay bit-identical, and export the RunHealth telemetry JSON to
# benchmarks/results/BENCH_fault_health_$(WORKERS).json.
WORKERS ?= 2
fault-matrix:
	$(PYTHON) -m pytest tests/test_faults.py -q
	$(PYTHON) benchmarks/run_fault_matrix.py --workers $(WORKERS)

# Ingestion-service smoke: boot `repro.cli serve` as a subprocess,
# drive a two-tenant scenario through the load generator, assert AH
# parity with offline run_scenario, then SIGKILL and restore from the
# snapshot directory (benchmarks/run_serve_smoke.py).
serve-smoke:
	$(PYTHON) -m pytest tests/test_serve.py tests/test_tenants.py tests/test_engine.py tests/test_foldpool.py -q
	$(PYTHON) benchmarks/run_serve_smoke.py

# Serve-path throughput benchmark: boot the real server twice (per-chunk
# executor folds vs micro-batched pool folds) over the same 4-tenant
# workload, assert AH parity, and regenerate
# benchmarks/results/BENCH_serve.json for the perf gate.  SERVE_BENCH_ARGS
# defaults to the CI smoke profile; set it empty for the full workload.
SERVE_BENCH_ARGS ?= --smoke
serve-bench:
	$(PYTHON) benchmarks/run_serve_bench.py $(SERVE_BENCH_ARGS)

# Serve-path chaos harness: SIGKILL the real server subprocess at
# seeded-random points under two-tenant load, CHAOS_ROUNDS times, and
# prove zero acked-chunk loss (journal replay) plus exact AH parity
# with the offline pipeline.  Report: benchmarks/results/BENCH_chaos_serve.json.
CHAOS_ROUNDS ?= 5
chaos-serve:
	$(PYTHON) -m pytest tests/test_journal.py -q
	$(PYTHON) benchmarks/run_chaos_serve.py --rounds $(CHAOS_ROUNDS)

# Perf-regression gate: compare regenerated BENCH_*.json against the
# committed baselines.  In CI, FRESH_RESULTS lists the downloaded
# artifact directories (bench-smoke + serve lanes, space-separated) and
# the baseline is the checkout; locally (after bench-smoke overwrote
# benchmarks/results in place) set BASELINE_GIT=HEAD to diff against
# the committed versions.
FRESH_RESULTS ?= benchmarks/results
BASELINE_GIT ?=
perf-gate:
	$(PYTHON) benchmarks/perf_gate.py \
		$(foreach dir,$(FRESH_RESULTS),--fresh-dir $(dir)) \
		$(if $(BASELINE_GIT),--baseline-git $(BASELINE_GIT),)

# Repository-benchmark self-test (perfbench/, about two minutes on two
# cores): every workload at toy size, untraced and traced, must exit 0
# with exactly the metrics BENCHMARK.json names, and the output oracle
# must catch a planted wrong answer.  Catches a refactor that renames or
# stops calling a function the benchmark's tracer wraps.
perfbench-selftest:
	$(PYTHON) perfbench/selftest.py

# The whole CI job sequence, in order, on the local machine: lint,
# byte-compile, tier-1 tests (with the same JUnit/durations artifacts),
# benchmark smoke, ingestion-service smoke + bench + chaos, both fault
# matrices, the repository-benchmark self-test, then the perf gate
# against the committed (HEAD) baselines.
ci-local:
	$(MAKE) lint
	$(PYTHON) -m compileall -q src
	mkdir -p test-results
	$(MAKE) test PYTEST_ARGS="--junitxml=test-results/junit.xml --durations=20"
	$(MAKE) bench-smoke
	$(MAKE) serve-smoke
	$(MAKE) serve-bench
	$(MAKE) chaos-serve
	$(MAKE) fault-matrix WORKERS=2
	$(MAKE) fault-matrix WORKERS=4
	$(MAKE) perfbench-selftest
	$(MAKE) perf-gate BASELINE_GIT=HEAD
