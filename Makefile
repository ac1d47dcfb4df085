# One command per verification stage, matching .github/workflows/ci.yml
# exactly — local `make ci` green implies CI green.

CARGO ?= cargo
# Bound property-based suite wall time (same value CI uses). Override:
#   make test PROPTEST_CASES=256
PROPTEST_CASES ?= 16
# Seed budget of the chaos swarm sweep (same value CI uses per intensity).
# Override:
#   make chaos CHAOS_SEEDS=720
CHAOS_SEEDS ?= 16
# Seed budget per fault kind of the live cross-driver conformance suite
# (same value CI uses). Override:
#   make live-chaos LIVE_CHAOS_SEEDS=32
LIVE_CHAOS_SEEDS ?= 8
# Relative tolerance of the perf gate (same value CI uses). Override:
#   make perf-check PERF_TOLERANCE=0.10
PERF_TOLERANCE ?= 0.25

.PHONY: all build test bench-test bench-check bench bench-pair chaos live-chaos perf perf-check soak soak-smoke lint lint-otp net-lines same-schedules fmt clippy ci clean

all: build

## Build everything (release, all targets).
build:
	$(CARGO) build --release

## Run every test suite: unit, integration, property-based, doctests,
## plus the examples smoke suite.
test:
	PROPTEST_CASES=$(PROPTEST_CASES) $(CARGO) test -q

## Build and test the benchmark's own workspace (benchmark/), which
## calls the library's public surface.
bench-test:
	$(CARGO) test --release --offline --manifest-path benchmark/Cargo.toml

## Run the repo's benchmark for one second on three simulated
## workloads: the one on the opt engine (sim-opt-sparse: consensus
## instances and their decided store), the one that recovers a site
## (sim-seq-crash) and the one that crosses groups (sim-sharded-cross);
## fails unless each result line says the run's outputs were correct.
## The clock is simulated, so it does not flake.
bench-check:
	@for w in sim-opt-sparse sim-seq-crash sim-sharded-cross; do \
		last="$$(bash benchmark/run.sh --workload "$$w" --seconds 1 | tail -n 1)"; \
		echo "$$w: $$last"; \
		case "$$last" in *'"correct": true'*) ;; *) exit 1 ;; esac; \
	done

## Run the criterion-style micro-benchmarks (wall-clock, release).
bench:
	$(CARGO) bench -p otp-bench

## Pair the repo's benchmark (benchmark/run.sh, BENCHMARK.json) on
## BENCH_BASE against the working tree: BENCH_PAIRS alternating pairs
## (default 10), per-metric medians, quartiles and win counts, then
## `benchmark/run.sh compare`. One workload with BENCH_WORKLOAD=name.
##   make bench-pair BENCH_BASE=main BENCH_WORKLOAD=sim-seq-crash
BENCH_BASE ?= HEAD~1
bench-pair:
	scripts/bench_pair.sh $(BENCH_BASE) $(BENCH_WORKLOAD)

## Sweep CHAOS_SEEDS seeds across the chaos grid (engine × mode ×
## nemesis intensity); fails with one-line reproducers on any invariant
## violation. See DESIGN.md §6.
chaos:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(CARGO) run --release -p otp-lab --bin swarm

## Run LIVE_CHAOS_SEEDS seeds per fault kind (crash, partition, stall,
## pressure) through both the simulator and the threaded LiveCluster,
## judging both with the identical invariant bundle. Wall-clock and
## watchdog-capped; non-gating in CI. See DESIGN.md §10.
live-chaos:
	LIVE_CHAOS_SEEDS=$(LIVE_CHAOS_SEEDS) $(CARGO) test --release --test live_chaos

## Run the deterministic perf matrix (simulated time) and rewrite
## BENCH.json. Refresh the committed baseline after a legitimate shift
## with: make perf && cp BENCH.json BENCH_BASELINE.json
perf:
	$(CARGO) run --release -p otp-bench --bin perf

## The CI perf gate: rerun the matrix and diff it against the committed
## BENCH_BASELINE.json, failing with one-line reproducers on regression.
perf-check:
	$(CARGO) run --release -p otp-bench --bin perf -- \
		--check BENCH_BASELINE.json --tolerance $(PERF_TOLERANCE)

## Soak the threaded real-clock runtime at acceptance scale (8 sites ×
## 100k txns) and write the wall-clock report to SOAK.json. Informational
## only — never a CI gate; the binary exits nonzero solely on correctness
## failures (convergence, quiescence). See DESIGN.md §9.
soak:
	$(CARGO) run --release -p otp-bench --bin soak -- --out SOAK.json

## The CI-sized soak (4 sites × 5k txns), same report shape.
soak-smoke:
	$(CARGO) run --release -p otp-bench --bin soak -- --smoke --out SOAK.json

## Formatting + lints, exactly as CI enforces them.
lint: fmt clippy lint-otp

## The workspace determinism & concurrency linter (DESIGN.md §13): fails
## with `file:line: rule-id` diagnostics and one-line reproducers on any
## wall-clock read, unordered iteration, ambient entropy, float
## accumulation, lock-order cycle, or blocking net-thread send outside
## the audited allowlist. Writes the byte-stable JSON report CI uploads.
lint-otp:
	$(CARGO) run --release -p otp-analysis --bin otp-lint -- --out LINT.json

## Net non-test Rust code lines of the working tree against BASE, per
## changed file and directory and in total, as `otp-lint --loc` counts
## them (comments stripped, #[cfg(test)] items masked). Every PR reports
## the totals.
##   make net-lines BASE=main
BASE ?= HEAD
net-lines:
	scripts/net_lines.sh $(BASE)

## Prove a change schedule-neutral against BASE: BENCH.json and the swarm
## tables of all five nemesis intensities (720 seeds each unless
## CHAOS_SEEDS is given) must be byte-identical on both sides. Slow; not
## part of `make ci`.
##   make same-schedules BASE=<rev>
same-schedules: CHAOS_SEEDS := $(if $(filter file,$(origin CHAOS_SEEDS)),720,$(CHAOS_SEEDS))
same-schedules:
	CHAOS_SEEDS=$(CHAOS_SEEDS) scripts/same_schedules.sh $(BASE)

fmt:
	$(CARGO) fmt --all --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

## The full CI pipeline, in CI's order.
ci: build test bench-test bench-check chaos perf-check lint

clean:
	$(CARGO) clean
