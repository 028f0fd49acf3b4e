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

echo "==> jstreams under the benchmark's codegen (target-cpu=native)"
# The fused leaf's by-value fold and the fused search's chunked
# survivor scan vectorise under target-cpu=native; run the streams
# tests on that codegen too, in the same native target directory.
RUSTFLAGS="$BENCH_RUSTFLAGS" CARGO_TARGET_DIR=target/native \
cargo test -q --release -p jstreams

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

echo "==> smoke: the seven plbench bins append validated rows to one ledger"
# Every bin asserts its own contracts in-process and panics (non-zero
# exit) when one breaks: route splits (fused, placement), value
# agreement across the arms of each row (figures' tie/zip, frameworks
# and MPI reduce routes among them), pruning counters and the
# front-needle gate (search), tune counters and the persisted-cache
# reload (autotune), and the strict JSON validator on every row before
# it is appended. The per-bin row counts pin that no workload was
# silently skipped: figures writes 7 rows at each of 3 sizes plus one
# power_sum_stride row, search 10 needle rows plus 6 density rows.
# Placement runs at 2^16 with no speed gate: a ratio on a 2-vCPU host
# swings too widely to gate on, and placement speed is measured end to
# end by streambench's map_zip_collect workload.
AB_DIR=target/ci-ablations
AB_LOG=target/ci-ablations.log
rm -rf "$AB_DIR"
: >"$AB_LOG"
while read -r bin rows args; do
    # shellcheck disable=SC2086 # word splitting of the option list is intended
    RUSTFLAGS="$BENCH_RUSTFLAGS" \
    cargo run --release -p plbench --bin "$bin" -- $args --out-dir "$AB_DIR" \
        </dev/null | tee /dev/stderr >>"$AB_LOG"
    grep -c "\"ablation\":\"$bin\"" "$AB_DIR/BENCH_ledger.jsonl" | grep -qx "$rows"
done <<'BINS'
figures      22 --runs 1 --exp 12
fused         2 --runs 1 --exp 12
placement     2 --runs 5 --exp 16
search       16 --runs 3 --exp 12
split_policy  3 --runs 1 --exp 10
autotune      2 --runs 1 --exp 12
run_report    2 --runs 1 --exp 12
BINS
# The autotune bin proves run-2 cache hits and a persisted-cache reload
# hit per workload; the search bin prints its front-needle gate.
grep -c "run-2 cache hit OK" "$AB_LOG" | grep -qx 2
grep -c "persisted cache reload hit OK" "$AB_LOG" | grep -qx 2
grep -q "front-needle gate OK" "$AB_LOG"
# The split-policy reduce row A/Bs the fault-tolerant session path
# against the legacy infallible collect on the same pool/policy; pin
# the printed line and both arms in the ledger, so the comparison
# cannot silently disappear. (The <2% overhead acceptance is judged on
# the paper-scale release run, not this 2^10 smoke input.)
grep -q "try_collect overhead" "$AB_LOG"
grep '"ablation":"split_policy","bench":"reduce"' "$AB_DIR/BENCH_ledger.jsonl" \
    | grep -q '"name":"collect".*"name":"try_collect"'

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
# `ls` fails on a glob that matches nothing (no crate has examples
# today); the directories that do exist are still listed.
BORROW_DIRS=$(ls -d crates/*/src crates/*/tests crates/*/examples \
    src tests examples 2>/dev/null || true)
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
