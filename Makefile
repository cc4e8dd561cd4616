# Tier-1 verification: the linter runs before the test suite so that
# nondeterminism/layering/contract violations fail fast with file:line
# diagnostics instead of surfacing as a flaky trace diff mid-pytest.
# `typecheck` is skipped gracefully when mypy is not installed (the CI
# image installs it; the minimal dev container may not).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check lint typecheck test baseline catalog catalog-check \
	waitgraph waitgraph-check interference interference-check \
	observe bench-json chaos profile phasecost phasecost-check \
	sweep sweep-smoke bench-figures

check: lint typecheck catalog-check waitgraph-check interference-check \
	phasecost-check test chaos bench-figures

lint:
	$(PYTHON) -m repro.lint src/repro

typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "typecheck: mypy not installed, skipping"; \
	fi

test:
	$(PYTHON) -m pytest -x -q

# The paper-figure and perf benchmarks under benchmarks/ (Figures 1-16,
# ablations, perf tables): the reproduction's headline results, asserted
# and written to benchmarks/output/.  Outside pytest's default testpaths.
bench-figures:
	$(PYTHON) -m pytest benchmarks -q

# Chaos campaign matrix: every named fault campaign against every
# registered technique, driven through the resilient client edge, with
# obs evidence artifacts (trace + spans + metrics + verdict report per
# cell) exported to CHAOS_OUT.  Fails if any cell violates its
# technique's declared guarantee.  See docs/resilience.md.
CHAOS_OUT ?= benchmarks/output/chaos
CHAOS_SEED ?= 0
chaos:
	$(PYTHON) -m repro chaos --seed $(CHAOS_SEED) --out $(CHAOS_OUT)

# Observed run of one technique (TECH=..., SEED=...): writes the
# Perfetto trace, JSONL spans and metrics report to benchmarks/output/.
TECH ?= active
SEED ?= 1
observe:
	$(PYTHON) -m repro observe $(TECH) --seed $(SEED)

# Phase-resolved latency profiles (critical path + five-phase cost
# attribution + windowed time series) for every technique: writes
# profile_<tech>_seed<seed>.json and a Perfetto counter track per
# technique to PROFILE_OUT.  Byte-deterministic per seed.
PROFILE_OUT ?= benchmarks/output/profile
PROFILE_SEED ?= 7
profile:
	$(PYTHON) -m repro profile --all --seed $(PROFILE_SEED) --out $(PROFILE_OUT)

# Regenerate the phase cost catalog (docs/phasecost.md + .json) — the
# measured five-phase cost matrix for all ten techniques, from live
# observed runs; `phasecost-check` fails when the checked-in copy is
# stale.
phasecost:
	$(PYTHON) -m repro phasecost

phasecost-check:
	$(PYTHON) -m repro phasecost --check

# Open-loop seed x rate x technique sweep fanned across CPU cores:
# writes the merged byte-deterministic sweep.json plus the saturation
# table (goodput and p99 vs offered load, knee marked) for all ten
# techniques to SWEEP_OUT.  `sweep-smoke` is the CI-sized matrix (two
# techniques, one seed, two rates).  See docs/workloads.md.
SWEEP_OUT ?= benchmarks/output/sweep
sweep:
	$(PYTHON) -m repro sweep --out $(SWEEP_OUT)

sweep-smoke:
	$(PYTHON) -m repro sweep --smoke --out $(SWEEP_OUT)

# Kernel & network hot-path microbenchmarks: writes the perf-trajectory
# file BENCH_kernel.json at the repo root (measured figures + recorded
# pre-optimization baseline + per-workload speedups).  Not part of
# `check` — wall-clock results belong in an artifact, not a gate.
bench-json:
	$(PYTHON) benchmarks/perf_kernel.py --json BENCH_kernel.json --repeats 5

# Regenerate the protocol message catalog (docs/messages.md + .json)
# from the M4xx message-flow graph; `catalog-check` fails when the
# checked-in copy is stale.
catalog:
	$(PYTHON) -m repro.lint src/repro --write-catalog docs/messages.md

catalog-check:
	$(PYTHON) -m repro.lint src/repro --check-catalog docs/messages.md

# Regenerate the wait graph (docs/waitgraph.md + .json + per-technique
# DOT files in docs/waitgraph/) from the W5xx wait-graph analysis;
# `waitgraph-check` fails when the checked-in copies are stale.
waitgraph:
	$(PYTHON) -m repro.lint src/repro --write-waitgraph docs/waitgraph.md

waitgraph-check:
	$(PYTHON) -m repro.lint src/repro --check-waitgraph docs/waitgraph.md

# Regenerate the interference catalog (docs/interference.md + .json) —
# per-handler replica-state read/write sets and atomicity windows from
# the R6xx analysis; `interference-check` fails when stale.
interference:
	$(PYTHON) -m repro.lint src/repro --write-interference docs/interference.md

interference-check:
	$(PYTHON) -m repro.lint src/repro --check-interference docs/interference.md

# Grandfather the current findings (use sparingly; the tree ships clean).
baseline:
	$(PYTHON) -m repro.lint src/repro --write-baseline
