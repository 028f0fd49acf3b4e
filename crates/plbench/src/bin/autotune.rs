//! Ablation G: self-tuned execution (cold calibration, then warm cache
//! hits) against the untuned default and the fixed-policy candidate
//! grid.
//!
//! ```text
//! autotune [--runs R] [--exp K] [--out-dir DIR]
//! ```
//!
//! Appends two `plbench.ab.v1` rows to the ledger (see `plbench::ab`),
//! one per workload shape (default `2^18`):
//!
//! * `reduce` — a uniform-cost reduce.
//! * `fused_poly` — a fused map+reduce polynomial kernel (an LCG spin
//!   per element driven by the element value), the shape the
//!   adapter-fusion leaf route accelerates.
//!
//! Each row has these arms, all on the global pool:
//!
//! 1. **`fixed_<leaf>`**, one per fixed candidate from
//!    [`pltune::candidate_policies`] other than the default leaf, plus a
//!    deliberately pathological `Fixed(1)` (split down to single
//!    elements). The best and worst of these bound what tuning can
//!    achieve; the acceptance criteria are warm ÷ best fixed ≤ 1.1 (a
//!    cache hit is within 10% of the best fixed policy) and worst fixed
//!    ÷ warm ≥ 1.3, judged on the paper-scale release run.
//! 2. **`default`** — no policy and no tuner: what an untuned caller
//!    runs, the fixed default leaf [`jstreams::default_leaf_size`].
//!    Warm ÷ default is what tuning buys such a caller.
//! 3. **`cold`** — a fresh [`PlanCache`] per call, so every call pays
//!    the first-sight calibration sweep. Its report proves it
//!    (`tune.calibrations == 1`).
//! 4. **`warm`** — one shared cache, primed once before timing: every
//!    call is a cache hit. Its report proves it (`tune.hits ≥ 1`,
//!    `tune.calibrations == 0`) and the bin asserts it in-process (the
//!    `run-2 cache hit OK` marker).
//!
//! `extra.winner` is the policy the warm cache installed. Last, the
//! warm cache round-trips through [`PlanCache::save`]/[`PlanCache::load`]
//! at a temporary path and the reloaded copy must serve a hit without
//! recalibrating — the cross-process story (the `persisted cache
//! reload hit OK` marker).

use forkjoin::SplitPolicy;
use jstreams::{stream_support, SliceSpliterator};
use plbench::ab::{Ablation, Arm};
use pltune::PlanCache;
use std::sync::Arc;

/// Spin iterations per element of the fused polynomial kernel.
const POLY_ITERS: u64 = 8;

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

/// Measures one workload — `fixed(Some(policy))` runs it under a fixed
/// policy, `fixed(None)` with no policy, `tuned(cache)` under
/// auto-tuning from `cache` — and appends its row, asserting the tune
/// counters and the persistence reload.
fn run<R: PartialEq + std::fmt::Debug>(
    ab: &Ablation,
    bench: &str,
    leaves: &[usize],
    fixed: impl Fn(Option<SplitPolicy>) -> R,
    tuned: impl Fn(Arc<PlanCache>) -> R,
) {
    // Warm: prime one shared cache (run 1 calibrates), so that every
    // further call is served by the installed plan.
    let cache = Arc::new(PlanCache::new());
    let (_, prime) = plobs::recorded(|| tuned(Arc::clone(&cache)));
    assert_eq!(
        prime.tune_calibrations, 1,
        "{bench}: priming run must calibrate"
    );

    let fixed = &fixed;
    let mut arms: Vec<Arm<R>> = (leaves.iter())
        .map(|&leaf| {
            Arm::new(format!("fixed_{leaf}"), move || {
                fixed(Some(SplitPolicy::Fixed(leaf)))
            })
        })
        .collect();
    arms.push(Arm::new("default", || fixed(None)));
    // Cold: a fresh cache every call, so each collect pays first-sight
    // calibration.
    arms.push(Arm::new("cold", || tuned(Arc::new(PlanCache::new()))).recorded());
    arms.push(Arm::new("warm", || tuned(Arc::clone(&cache))).recorded());
    let arms = ab.measure(arms);

    let (cold, warm) = (
        arms[leaves.len() + 1].report(),
        arms[leaves.len() + 2].report(),
    );
    assert_eq!(
        cold.tune_calibrations, 1,
        "{bench}: a cold cache must calibrate exactly once"
    );
    assert!(
        warm.tune_hits >= 1 && warm.tune_calibrations == 0,
        "{bench}: warmed cache must hit without recalibrating: {warm:?}"
    );
    println!(
        "{bench}: run-2 cache hit OK (hits={}, calibrations=0)",
        warm.tune_hits
    );

    // Persistence: the reloaded copy of the warm cache must hit too.
    let path = std::env::temp_dir().join(format!(
        "plbench_autotune_plan_cache_{bench}_{}.json",
        std::process::id()
    ));
    cache.save(&path).expect("persist plan cache");
    let reloaded = PlanCache::load(&path).expect("reload plan cache");
    let _ = std::fs::remove_file(&path);
    let (_, report) = plobs::recorded(|| tuned(Arc::new(reloaded)));
    assert!(
        report.tune_hits >= 1 && report.tune_calibrations == 0,
        "{bench}: a reloaded cache must hit without recalibrating: {report:?}"
    );
    println!("{bench}: persisted cache reload hit OK");

    let winner = cache
        .ready_entries()
        .first()
        .expect("warm cache holds the installed plan")
        .1
        .policy;
    ab.append(
        &ab.row(bench, ab.n(), arms)
            .extra_str("winner", &format!("{winner:?}")),
    );
}

fn main() {
    let threads = forkjoin::global_pool().threads();
    let ab = Ablation::from_args("autotune", 18, threads);
    let n = ab.n();
    // The tuner's own fixed candidates but the default leaf (the
    // `default` arm runs it), plus a deliberately pathological
    // single-element leaf as the grid's worst case: the split overhead
    // it pays per element is exactly what a tuned plan avoids.
    let default_leaf = jstreams::default_leaf_size(n, threads);
    let mut leaves: Vec<usize> = pltune::candidate_policies(n, threads)
        .into_iter()
        .filter_map(|p| match p {
            SplitPolicy::Fixed(leaf) => Some(leaf),
            SplitPolicy::Adaptive(_) => None,
        })
        .filter(|&leaf| leaf != default_leaf)
        .collect();
    if !leaves.contains(&1) {
        leaves.push(1);
    }
    println!("autotune: fixed grid {leaves:?}");

    // Workload 1: uniform-cost reduce.
    let ints: Vec<i64> = (0..n as i64)
        .map(|i| i.wrapping_mul(0x9E37) % 1009)
        .collect();
    let stream = || stream_support(SliceSpliterator::new(ints.clone()), true);
    run(
        &ab,
        "reduce",
        &leaves,
        |policy| match policy {
            Some(p) => stream().with_split_policy(p).reduce(0i64, |a, b| a + b),
            None => stream().reduce(0i64, |a, b| a + b),
        },
        |cache| stream().with_auto_tuning(cache).reduce(0i64, |a, b| a + b),
    );

    // Workload 2: fused polynomial kernel — map(spin) + reduce, the
    // shape the adapter-fusion leaf route runs without cloning drains.
    let work: Vec<u64> = (0..n as u64).collect();
    let stream = || stream_support(SliceSpliterator::new(work.clone()), true);
    run(
        &ab,
        "fused_poly",
        &leaves,
        |policy| {
            let s = stream();
            let s = match policy {
                Some(p) => s.with_split_policy(p),
                None => s,
            };
            s.map(|x| spin(POLY_ITERS, x))
                .reduce(0u64, |a, b| a.wrapping_add(b))
        },
        |cache| {
            stream()
                .with_auto_tuning(cache)
                .map(|x| spin(POLY_ITERS, x))
                .reduce(0u64, |a, b| a.wrapping_add(b))
        },
    );
}
