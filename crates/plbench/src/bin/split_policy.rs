//! Ablation E: Fixed vs Adaptive splitting.
//!
//! ```text
//! split_policy [--runs R] [--exp K] [--out-dir DIR]
//! ```
//!
//! Appends three `plbench.ab.v1` rows to the ledger (see `plbench::ab`),
//! one per workload shape, each with a `fixed` and an `adaptive` arm and
//! both arms' [`plobs::RunReport`]s; `extra.fixed_leaf_size` is the
//! static leaf of the `fixed` arm:
//!
//! * `reduce` — a uniform-cost reduce at `2^K` (default 2^16).
//!   Per-element cost is flat, so the static `default_leaf_size` is
//!   already near-optimal; the adaptive policy must stay within ~10% of
//!   it (its acceptance bound). Two more arms price the fault-tolerant
//!   session: `collect` (the legacy infallible collect) and
//!   `try_collect` (its happy path), same pool and fixed policy.
//! * `poly` — a skewed-cost map+reduce: the first `1/64` of the
//!   elements carry ~256× the work of the rest (a spin kernel driven by
//!   the element value). A static leaf computed from `n/(4·threads)`
//!   packs the whole hot prefix into a handful of leaves; demand-driven
//!   splitting descends further while thieves are active, spreading the
//!   hot region across more tasks.
//! * `filtered` — a non-SIZED pipeline (filter keep-half, then reduce).
//!   The size estimate is an upper bound here, so the old size-gated
//!   recursion under-split; each policy's report records its split
//!   depth so the fix is visible in the ledger.
//!
//! The skewed-cost advantage of demand-driven splitting needs ≥2
//! workers (with one, the two arms do the same total work).

use forkjoin::{AdaptiveSplit, ForkJoinPool, SplitPolicy};
use jstreams::{default_leaf_size, stream_support, ExecConfig, ReduceCollector, SliceSpliterator};
use plbench::ab::{Ablation, Arm};
use std::sync::Arc;

/// Spin iterations for the hot prefix of the skewed workload.
const HEAVY_ITERS: u64 = 512;
/// Spin iterations for the cold remainder.
const LIGHT_ITERS: u64 = 2;
/// Fraction of the input (as a divisor) that is hot.
const HOT_DIVISOR: usize = 64;

/// A fixed-point LCG spin: `iters` dependent multiply-adds, so the
/// optimiser cannot elide the work and cost scales linearly with
/// `iters`.
fn spin(iters: u64, seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..iters {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    x
}

/// The `fixed` and `adaptive` arms of `f`, both recorded.
fn policy_arms<'a, R: 'a>(
    f: &'a dyn Fn(SplitPolicy) -> R,
    [fixed, adaptive]: [SplitPolicy; 2],
) -> Vec<Arm<'a, R>> {
    vec![
        Arm::new("fixed", move || f(fixed)).recorded(),
        Arm::new("adaptive", move || f(adaptive)).recorded(),
    ]
}

fn main() {
    let pool = Arc::new(ForkJoinPool::new(num_cpus::get()));
    let threads = pool.threads();
    let ab = Ablation::from_args("split_policy", 16, threads);
    let n = ab.n();
    let fixed_leaf = default_leaf_size(n, threads);
    let fixed = SplitPolicy::Fixed(fixed_leaf);
    // The adaptive cutoff must sit below the static leaf or the policy
    // can never split finer than it on small smoke inputs.
    let adaptive = SplitPolicy::Adaptive(AdaptiveSplit {
        min_leaf: (fixed_leaf / 4).max(1),
        ..AdaptiveSplit::default()
    });
    println!("split_policy: fixed leaf {fixed_leaf}");
    let policies = [fixed, adaptive];

    // Workload 1: uniform-cost reduce, plus the fault-tolerant session
    // overhead on the same workload / pool / policy: the happy path of
    // `try_collect` (session armed, checkpoints taken, no interruption)
    // against the legacy infallible collect.
    let ints: Vec<i64> = (0..n as i64)
        .map(|i| i.wrapping_mul(0x9E37) % 1009)
        .collect();
    let reduce = |policy: SplitPolicy| {
        stream_support(SliceSpliterator::new(ints.clone()), true)
            .with_pool(Arc::clone(&pool))
            .with_split_policy(policy)
            .reduce(0i64, |a, b| a + b)
    };
    let try_cfg = ExecConfig::par()
        .with_pool(Arc::clone(&pool))
        .with_split_policy(fixed);
    let mut arms = policy_arms(&reduce, policies);
    arms.push(Arm::new("collect", || reduce(fixed)));
    arms.push(Arm::new("try_collect", || {
        stream_support(SliceSpliterator::new(ints.clone()), true)
            .try_collect(ReduceCollector::new(0i64, |a, b| a + b), &try_cfg)
            .expect("happy-path try_collect")
    }));
    let arms = ab.measure(arms);
    let (collect_ms, try_ms) = (arms[2].ms_p50, arms[3].ms_p50);
    println!(
        "  try_collect overhead: ratio {:.4} (try {try_ms:.3} ms vs collect {collect_ms:.3} ms)",
        try_ms / collect_ms.max(1e-12)
    );
    ab.append(
        &ab.row("reduce", ab.n(), arms)
            .extra("fixed_leaf_size", fixed_leaf),
    );

    // Workload 2: skewed cost — a hot prefix of heavy spin elements.
    let work: Vec<u64> = (0..n)
        .map(|i| {
            if i < n / HOT_DIVISOR {
                HEAVY_ITERS
            } else {
                LIGHT_ITERS
            }
        })
        .collect();
    let arms = ab.measure(policy_arms(
        &|policy| {
            stream_support(SliceSpliterator::new(work.clone()), true)
                .with_pool(Arc::clone(&pool))
                .with_split_policy(policy)
                .map(|iters| spin(iters, iters))
                .reduce(0u64, |a, b| a.wrapping_add(b))
        },
        policies,
    ));
    ab.append(
        &ab.row("poly", ab.n(), arms)
            .extra("fixed_leaf_size", fixed_leaf),
    );

    // Workload 3: filter-heavy (non-SIZED) reduce — the size estimate
    // is an upper bound, so splitting is depth-capped, not size-gated.
    let arms = ab.measure(policy_arms(
        &|policy| {
            stream_support(SliceSpliterator::new(ints.clone()), true)
                .with_pool(Arc::clone(&pool))
                .with_split_policy(policy)
                .filter(|x| x % 2 == 0)
                .reduce(0i64, |a, b| a + b)
        },
        policies,
    ));
    assert!(
        arms[0].report().splits > 0,
        "non-SIZED filtered collect must split (old size-gated stop would not)"
    );
    ab.append(
        &ab.row("filtered", ab.n(), arms)
            .extra("fixed_leaf_size", fixed_leaf),
    );
}
