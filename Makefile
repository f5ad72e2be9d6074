# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test obs-check obs-report obs-timeline obs-live lint bench bench-batch bench-offline bench-lattice bench-runtime bench-wire bench-report examples all clean

install:
	$(PYTHON) setup.py develop

test: obs-check
	$(PYTHON) -m pytest tests/

# Observability-layer guard: compiles + imports the repro.obs package,
# asserts import leaves hooks disabled (no registry/tracer/threads),
# then lints it when a linter is available.
obs-check:
	$(PYTHON) scripts/check_obs_import_clean.py
	@$(MAKE) --no-print-directory lint

# Lint is best-effort: ruff (configured in pyproject.toml) when
# installed, otherwise skipped so offline boxes still pass.
lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; then \
		echo "lint: ruff check src/repro/obs tests/obs"; \
		ruff check src/repro/obs tests/obs; \
	else \
		echo "lint: ruff not installed; skipping (pip install ruff to enable)"; \
	fi

# Bench-trajectory report: merge the committed BENCH_*.json snapshots
# and gate them against the committed baseline (warn-only, so machine
# drift never breaks the build; drop --warn-only locally to enforce).
obs-report:
	PYTHONPATH=src $(PYTHON) -m repro obs report \
		--baseline benchmarks/baselines/bench_baseline.json \
		--warn-only

# Profiling pipeline smoke: record a flight, export the Perfetto
# timeline, and print the critical-path report.  Artifacts land in
# FLIGHT_DIR (default: the repo root).
FLIGHT_DIR ?= .
obs-timeline:
	PYTHONPATH=src $(PYTHON) -m repro obs --family ring:6 --rounds 4 \
		--flight-out $(FLIGHT_DIR)/flight.jsonl
	PYTHONPATH=src $(PYTHON) -m repro obs timeline \
		--flight-in $(FLIGHT_DIR)/flight.jsonl \
		--out $(FLIGHT_DIR)/timeline.json
	PYTHONPATH=src $(PYTHON) -m repro obs critpath \
		--flight-in $(FLIGHT_DIR)/flight.jsonl --top-k 5

# Live telemetry plane smoke: paced load with one injected slow
# client, asserts a straggler/stall event fires on it and the merged
# counters match the per-node totals exactly.  The JSONL stream lands
# at LIVE_OUT (default: the repo root).
LIVE_OUT ?= live_telemetry.jsonl
obs-live:
	$(PYTHON) scripts/check_obs_live_smoke.py --live-out $(LIVE_OUT)

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Slow-vs-fast online stamping snapshot; refreshes BENCH_batch.json.
# Set BENCH_BATCH_SMOKE=1 for a quick reduced run that leaves the
# committed snapshot untouched (the CI smoke step); set
# BENCH_BATCH_OUT=path to write the snapshot elsewhere.
bench-batch:
	$(PYTHON) -m pytest benchmarks/test_bench_batch.py -q

# Old-vs-new offline (Figure 9) kernel snapshot plus the gated
# block-local closure + partition and shared-realizer regions;
# refreshes BENCH_offline.json.
# Set BENCH_OFFLINE_SMOKE=1 for a quick one-round run that leaves the
# committed snapshot untouched (the CI smoke step).
bench-offline:
	$(PYTHON) -m pytest benchmarks/test_bench_offline.py -q

# Layered-BFS-vs-chain-indexed-kernel lattice snapshot; refreshes
# BENCH_lattice.json.  Set BENCH_LATTICE_SMOKE=1 for a quick reduced
# run that leaves the committed snapshot untouched (the CI smoke step).
bench-lattice:
	$(PYTHON) -m pytest benchmarks/test_bench_lattice.py -q

# Multiprocess socket runtime under load (one OS process per node);
# refreshes BENCH_runtime.json.  Set BENCH_RUNTIME_SMOKE=1 for a tiny
# run that leaves the committed snapshot untouched (the CI smoke
# step); set BENCH_RUNTIME_OUT=path to write the snapshot elsewhere.
bench-runtime:
	$(PYTHON) -m pytest benchmarks/test_bench_runtime.py -q

# Piggyback wire-format shootout (full vs. delta) plus
# the 120-node socket-runtime byte-reduction run; refreshes
# BENCH_wire.json.  Set BENCH_WIRE_SMOKE=1 for a tiny run that leaves
# the committed snapshot untouched (the CI smoke step); set
# BENCH_WIRE_OUT=path to write the snapshot elsewhere.
bench-wire:
	$(PYTHON) -m pytest benchmarks/test_bench_wire.py -q

bench-report:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

all: test bench

clean:
	rm -rf .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
