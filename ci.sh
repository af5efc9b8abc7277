#!/usr/bin/env sh
# Offline CI for the workspace: build, tests, formatting, lints.
# Everything runs against the vendored path crates in vendor/ — no
# network or registry access is required (or attempted: --offline).
set -eu

cd "$(dirname "$0")"

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --workspace --offline

# Property-test breadth floor: blocks trim their local case counts for
# the simulator-heavy suites; CI raises every block back to at least 32
# cases (PROPTEST_CASES never lowers a block's own setting). Persisted
# *.proptest-regressions entries replay before novel cases either way —
# see tests/proptest_stack.rs for how to pin a failing case.
run env PROPTEST_CASES=32 cargo test -q --workspace --offline

# The repo benchmark (perfbench/) is its own package outside the
# workspace; its tests — the metric manifest and the TimedBackend
# byte-equality check among them — run here, not under --workspace.
run cargo test --release --offline --manifest-path perfbench/Cargo.toml

# rustfmt / clippy are optional components; skip gracefully where absent.
if cargo fmt --version >/dev/null 2>&1; then
    run cargo fmt --all --check
else
    echo "==> cargo fmt unavailable; skipping"
fi

if cargo clippy --version >/dev/null 2>&1; then
    run cargo clippy --workspace --release --offline --all-targets -- -D warnings
else
    echo "==> cargo clippy unavailable; skipping"
fi

# Build the bench harness once up front so the smoke invocations below
# measure the benchmarks, not compilation.
run cargo build --release --offline -p pagoda-bench

# Smoke the serving benchmark: must produce deterministic curves.
run cargo run --release --offline -p pagoda-bench --bin serve_curves -- --quick --json >/dev/null

# Profiler smoke: serve the multi-tenant demo on a two-device fleet with
# critical-path profiling on. The example itself asserts the telescoping
# contract (phase sums reconcile with sojourns in every group) and that
# the Prometheus exposition parses; a violation panics, failing CI.
run cargo run --release --offline --example multi_tenant -- --devices 2 --prof target/prof_smoke

# Fleet scaling gate: a 4-device cluster must clear 3.2x the 1-device
# throughput (the bin exits nonzero otherwise). The committed
# BENCH_cluster.json comes from a full-size run; the smoke result goes
# to a scratch path so CI never dirties the tree.
run cargo run --release --offline -p pagoda-bench --bin cluster_scaling -- --smoke --out target/BENCH_cluster_smoke.json

# Parallel-driver gate: serial and parallel fleet drivers must be
# byte-identical (always enforced; the bin exits nonzero on mismatch),
# and on hosts with >= 4 cores the 4-device parallel run must clear 2x
# serial wall-clock. On smaller hosts the speedup is recorded but not
# gated — a 1-core box cannot speed anything up.
run cargo run --release --offline -p pagoda-bench --bin cluster_scaling -- --smoke --parallel --out target/BENCH_parallel_smoke.json

# Hot-path and observability-overhead gates (the bin exits nonzero past
# any of them): the indexed desim queue must beat the lazy-deletion
# oracle on churn, and the null recorder, the pagoda-prof tee and the
# mem recorder may cost at most 5% / 10% / 12% of simulator events/sec
# over a disabled run at full size (the committed BENCH_hotpath.json).
# --smoke widens those to null 15%, prof 25%, mem 25% because ~3 ms
# smoke reps are noise-dominated on a shared CI box. The smoke result
# goes to a scratch path so CI never dirties the tree.
run cargo run --release --offline -p pagoda-bench --bin hotpath -- --smoke --out target/BENCH_hotpath_smoke.json

# Invariant checking (pagoda-check). Two gates, both exit nonzero on
# failure:
#
#   mutation-smoke — seeds each known bug class into the fleet and
#   asserts the checker flags every one (and that the unmutated
#   baselines stay clean). This is the test of the tests: if a checker
#   regression makes an invariant toothless, this catches it.
#
#   explore — runs the invariant-checked scenario sweep: every scenario
#   serial + parallel with the checker teed into the recorder, byte-
#   comparing the two drivers on top of the invariant verdicts. The
#   default smoke sweep is a handful of scenarios; set
#   PAGODA_CHECK_EXTENDED=1 to run the full seeds × placements ×
#   run-ahead × fault-schedule grid (the bin reads the env itself).
run cargo run --release --offline -p pagoda-check --bin pagoda_check -- mutation-smoke
run cargo run --release --offline -p pagoda-check --bin pagoda_check -- explore

echo "ci: all checks passed"
