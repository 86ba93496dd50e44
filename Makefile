.PHONY: build test bench-compare bench-compare-quick bench-eog bench-eog-quick trace-baselines trace-gate

build:
	cargo build --release

test:
	cargo test -q

# Paired A/B comparisons (sweep, share, prune, eog) at full scale under
# the paper's §5 protocol: 200k-conflict budget, every task under
# SC/TSO/PSO, time summed over pairs not both unknown. Each comparison
# asserts identical verdicts pair by pair, appends its rows, family sums
# and aggregate to BENCH.json so the trajectory accumulates across
# commits, and checks its gate; all four run even if one fails.
COMPARISONS := sweep share prune eog

bench-compare: build
	@fail=0; for c in $(COMPARISONS); do \
		./target/release/compare-bench $$c --tag "$${TAG:-local}" || fail=1; \
	done; test $$fail -eq 0

# Quick smoke variant for CI: quick-scale families, looser timing
# tolerance (50%), results to a scratch file instead of BENCH.json.
bench-compare-quick: build
	@fail=0; for c in $(COMPARISONS); do \
		./target/release/compare-bench $$c --quick --tag ci-smoke \
			--out /tmp/compare-smoke.json || fail=1; \
	done; test $$fail -eq 0

# EOG engine microbenchmark: every synthetic shape at 10^2..10^4 nodes,
# incremental vs full DFS, appended to BENCH_EOG.json.
bench-eog: build
	./target/release/eog-bench --tag "$${TAG:-local}"

# Quick smoke variant for CI: sizes up to 10^3, scratch output file.
bench-eog-quick: build
	./target/release/eog-bench --quick --tag ci-smoke --out /tmp/eog-smoke.json

# --- Trace analytics & the telemetry regression gate -------------------
#
# Baselines are one-line `metrics` NDJSON files checked in under
# tests/baselines/, one per example program, produced by the fixed recipe
# below (--mm all --incremental --max-bound 4, default seed). All gated
# metrics (solver work counters, distribution percentiles, quality shares)
# are deterministic for a fixed seed; wall-clock metrics ride along but
# stay informational in the gate.

TRACE_EXAMPLES := $(wildcard examples/programs/*.zc)
TRACE_GATE_DIR := target/trace-gate

# Re-record the checked-in baselines. Run after a change that legitimately
# shifts solver telemetry, and commit the diff.
trace-baselines: build
	@mkdir -p tests/baselines
	@for prog in $(TRACE_EXAMPLES); do \
		name=$$(basename $$prog .zc); \
		./target/release/zpre-cli verify $$prog --mm all --incremental \
			--max-bound 4 --trace-out /tmp/baseline_$$name.ndjson \
			>/dev/null 2>&1 || test $$? -eq 1 || exit 1; \
		./target/release/zpre-cli trace stats /tmp/baseline_$$name.ndjson \
			--json > tests/baselines/$$name.metrics.json; \
		echo "recorded tests/baselines/$$name.metrics.json"; \
	done

# The CI telemetry regression gate: rerun the baseline recipe on every
# example, diff against the checked-in baseline at +-20%, and fail on any
# gated regression. Traces and flamegraphs land in $(TRACE_GATE_DIR) so CI
# can upload them as artifacts.
trace-gate: build
	@mkdir -p $(TRACE_GATE_DIR)
	@fail=0; for prog in $(TRACE_EXAMPLES); do \
		name=$$(basename $$prog .zc); \
		./target/release/zpre-cli verify $$prog --mm all --incremental \
			--max-bound 4 --trace-out $(TRACE_GATE_DIR)/$$name.ndjson \
			>/dev/null 2>&1 || test $$? -eq 1 || exit 1; \
		./target/release/zpre-cli trace check $(TRACE_GATE_DIR)/$$name.ndjson \
			> /dev/null || exit 1; \
		./target/release/zpre-cli trace flame $(TRACE_GATE_DIR)/$$name.ndjson \
			--out $(TRACE_GATE_DIR)/$$name.folded 2> /dev/null; \
		echo "== $$name"; \
		./target/release/zpre-cli trace diff \
			tests/baselines/$$name.metrics.json \
			$(TRACE_GATE_DIR)/$$name.ndjson --gate-tolerance 20% \
			| tee $(TRACE_GATE_DIR)/$$name.diff.txt | tail -1; \
		./target/release/zpre-cli trace diff \
			tests/baselines/$$name.metrics.json \
			$(TRACE_GATE_DIR)/$$name.ndjson --gate-tolerance 20% --json \
			> $(TRACE_GATE_DIR)/$$name.diff.ndjson || fail=1; \
	done; \
	test $$fail -eq 0 || { echo "trace-gate: telemetry regressed"; exit 1; }
