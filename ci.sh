#!/usr/bin/env bash
# CI gate: tier-1 verify (ROADMAP.md) + formatting + lints.
# Run from the repository root. Fails fast on the first broken step.

set -euo pipefail
cd "$(dirname "$0")"

# Benchmarks compare compute kernels (scan vs fold) whose relative cost
# depends heavily on the vector ISA: baseline x86-64 codegen vectorizes
# i64 additions (SSE2 paddq) but not i64 equality (SSE4.1 pcmpeqq), which
# skews every scan-vs-reduce ratio the paper reproduction reports. Build
# the bench/smoke invocations for the host CPU so both sides get the same
# vector treatment — scoped here (not a committed [build] section) so
# plain `cargo build` artifacts stay portable.
BENCH_RUSTFLAGS="-C target-cpu=native"

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> plalgo under the benchmark's codegen (target-cpu=native)"
# streambench builds with target-cpu=native, where the power_sum kernel's
# contiguous and fixed-step paths vectorise; the tier-1 build above only
# exercises baseline x86-64 (SSE2) codegen. Its own target directory
# keeps the native artifacts apart from the portable ones.
RUSTFLAGS="$BENCH_RUSTFLAGS" CARGO_TARGET_DIR=target/native \
cargo test -q --release -p plalgo

echo "==> cargo test -q --workspace (all crates incl. plobs, doc-tests)"
cargo test -q --workspace

echo "==> smoke: polynomial example emits a valid RunReport + takes the fused route"
# The example validates its own RunReport JSON and panics on a
# malformed document; it also runs a mapped pipeline under a recorded
# sink and asserts every leaf took the FusedBorrow route (zero cloning
# drains). Grep pins both success markers so a silent skip also fails.
POLY_LOG=target/ci-polynomial.log
cargo run --release --example polynomial 16 | tee /dev/stderr >"$POLY_LOG"
grep -q "run report JSON: valid" "$POLY_LOG"
grep -q "mapped pipeline route: fused_borrow" "$POLY_LOG"

echo "==> smoke: split-policy A/B bench emits validated rows"
# The bin strict-validates every row against the JSON validator and
# exits non-zero on a malformed document; grep pins all three rows so
# a silently skipped workload also fails.
SPLIT_LOG=target/ci-splitpolicy.log
RUSTFLAGS="$BENCH_RUSTFLAGS" \
cargo run --release -p plbench --bin split_policy -- --runs 1 --exp 10 \
    --out-dir target/ci-splitpolicy | tee /dev/stderr >"$SPLIT_LOG"
grep -c "wrote target/ci-splitpolicy/BENCH_splitpolicy_" "$SPLIT_LOG" | grep -qx 3

echo "==> smoke: try_collect happy path measured against legacy collect"
# The reduce row A/Bs the fault-tolerant session path against the
# legacy infallible collect on the same pool/policy; pin that both the
# printed line and the persisted JSON field exist so the comparison
# cannot silently disappear. (The <2% overhead acceptance is judged on
# the paper-scale release run, not this 2^10 smoke input.)
grep -q "try_collect overhead" "$SPLIT_LOG"
grep -q '"try_overhead_ratio"' target/ci-splitpolicy/BENCH_splitpolicy_reduce.json

echo "==> smoke: fused A/B bench emits validated rows with the route contract"
# The bin asserts the route split itself (fused arm: zero cloning
# leaves; cloning arm: zero fused leaves) and that filtered fused
# leaves report survivor item counts; grep pins both rows so a
# silently skipped workload also fails. (The ≥3x speedup acceptance is
# judged on the paper-scale 2^18 release run, not this smoke input.)
FUSED_LOG=target/ci-fused.log
RUSTFLAGS="$BENCH_RUSTFLAGS" \
cargo run --release -p plbench --bin fused -- --runs 1 --exp 12 \
    --out-dir target/ci-fused | tee /dev/stderr >"$FUSED_LOG"
grep -c "wrote target/ci-fused/BENCH_fused_" "$FUSED_LOG" | grep -qx 2

echo "==> smoke: autotune bench proves run-2 cache hits + persistence reload"
# The bin runs each workload's tuned arm twice in one process against a
# shared PlanCache and asserts in-process that run 2 was served by the
# installed plan (tune.hits >= 1, tune.calibrations == 0), then
# round-trips the cache through save/load and asserts the reloaded copy
# also hits. Every row is strict-validated before writing (the bin
# exits non-zero otherwise); the greps pin all markers per workload so
# a silently skipped arm also fails.
AUTOTUNE_LOG=target/ci-autotune.log
RUSTFLAGS="$BENCH_RUSTFLAGS" \
cargo run --release -p plbench --bin autotune -- --runs 1 --exp 12 \
    --out-dir target/ci-autotune | tee /dev/stderr >"$AUTOTUNE_LOG"
grep -c "run-2 cache hit OK" "$AUTOTUNE_LOG" | grep -qx 2
grep -c "persisted cache reload hit OK" "$AUTOTUNE_LOG" | grep -qx 2
grep -c "wrote target/ci-autotune/BENCH_autotune_" "$AUTOTUNE_LOG" | grep -qx 2

echo "==> smoke: short-circuiting search bench gates the front-needle speedup"
# The bin plants needles across sweep positions, asserts the plobs
# pruning contract in-process (late needles record Found cancellations
# + pruned subtrees, absent needles record neither), and with
# --min-front-speedup gates that a front needle beats the full-drain
# baseline — the short-circuit must stay visible even at smoke sizes.
# The greps pin both artifact rows so a silently skipped sweep fails.
SEARCH_LOG=target/ci-search.log
RUSTFLAGS="$BENCH_RUSTFLAGS" \
cargo run --release -p plbench --bin search -- --runs 3 --exp 12 \
    --min-front-speedup 3 --out-dir target/ci-search | tee /dev/stderr >"$SEARCH_LOG"
grep -q "wrote target/ci-search/BENCH_search_any.json" "$SEARCH_LOG"
grep -q "wrote target/ci-search/BENCH_search_findfirst.json" "$SEARCH_LOG"

echo "==> smoke: placement A/B bench emits rows and keeps the route contract"
# The bin asserts the route contract in-process (placement arm: >= 1
# placed leaf and zero splice combines; splice arm: zero placed leaves)
# and both arms must agree on the collected value. No speed gate here:
# a min-of-5 ratio on a 2-vCPU host swings too widely to gate on, and
# placement speed is measured end to end by streambench's
# map_zip_collect workload.
PLACEMENT_LOG=target/ci-placement.log
RUSTFLAGS="$BENCH_RUSTFLAGS" \
cargo run --release -p plbench --bin placement -- --runs 5 --exp 16 \
    --out-dir target/ci-placement | tee /dev/stderr >"$PLACEMENT_LOG"
grep -q "wrote target/ci-placement/BENCH_placement_tovec.json" "$PLACEMENT_LOG"
grep -q "wrote target/ci-placement/BENCH_placement_powerlist.json" "$PLACEMENT_LOG"

echo "==> structural: one split-tree walker"
# The stop rule's pool probe, pool submission and the fork-join `join`
# live in exactly one place in the streams and JPLF drivers:
# jstreams/src/walk.rs. A bare `join(` call (`join(..)`,
# `forkjoin::join(..)`) anywhere else is a hand-copied recursion; method
# calls such as a thread handle's `.join()` do not count.
if grep -rnE 'demand_split\(|try_install\(|(^|[^.[:alnum:]_])join\(' \
    crates/jstreams/src crates/jplf/src \
    | grep -v '^crates/jstreams/src/walk\.rs:'; then
    echo "demand_split( / try_install( / join( outside crates/jstreams/src/walk.rs" >&2
    exit 1
fi

echo "==> structural: one borrowed-run shape"
# A borrowed leaf is the paper's (list, start, end, incr) descriptor:
# `LeafAccess::try_as_strided` and `Collector::leaf_strided` are its one
# accessor and one kernel, a contiguous run is step 1, and plobs reports
# one `zero_copy` route. A contiguous twin (or the dead peek adapter)
# coming back fails here.
BORROW_DIRS=$(ls -d crates/*/src crates/*/tests crates/*/examples crates/*/benches \
    src tests examples 2>/dev/null)
# shellcheck disable=SC2086 # word splitting of the directory list is intended
if grep -rnE --include='*.rs' \
    'leaf_slice|try_as_slice|ZeroCopySlice|zero_copy_slice|PeekSpliterator' $BORROW_DIRS; then
    echo "contiguous-run twin (leaf_slice / try_as_slice / ZeroCopySlice) or PeekSpliterator is back" >&2
    exit 1
fi

echo "==> smoke: streambench runs every workload and its compare tool"
# streambench is its own workspace (BENCHMARK.json's command builds it
# from streambench/Cargo.toml), so the root `cargo test` never reaches
# its smoke test: every workload untraced and traced at smoke size,
# checked against BENCHMARK.json, plus `compare` on the rows it wrote.
cargo test --release --offline --manifest-path streambench/Cargo.toml

echo "==> plcheck: deterministic concurrency checker gate"
# Fixed regression models + the pinned regression-seed set run inside
# the normal suite; then a short randomized-schedule smoke walks fresh
# interleavings each CI pass. The base seed is printed (and echoed by
# the test itself), and any failing schedule prints its own per-schedule
# seed, so every failure here is replayable with
# plcheck::Explorer::replay_seed(<seed>). Stays well under a minute.
PLCHECK_SMOKE_SEED="${PLCHECK_SMOKE_SEED:-$(date +%s)}"
export PLCHECK_SMOKE_SEED
echo "    PLCHECK_SMOKE_SEED=$PLCHECK_SMOKE_SEED"
cargo test -q -p plcheck

echo "==> cargo doc --no-deps with warnings denied"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI green."
