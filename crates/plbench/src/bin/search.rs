//! Short-circuiting search terminals vs a full-drain equivalent, swept
//! over needle positions.
//!
//! ```text
//! search [--runs R] [--exp K] [--out-dir DIR]
//! ```
//!
//! Appends one `plbench.ab.v1` row (see `plbench::ab`) per terminal and
//! needle position — front, early (n/16), middle (n/2), late (13n/16)
//! and absent, named in the row's `extra.position` — ten rows in all,
//! default `2^18`:
//!
//! * `any_match` — `any_match(x == NEEDLE)` (`search` arm) vs the
//!   full-drain spelling `filter(x == NEEDLE).count() > 0` (`drain`
//!   arm). The absent row adds a plain `reduce` over the same buffer
//!   (`reduce` arm): against it, the search arm prices the search
//!   driver's checkpoints when nothing ever short-circuits.
//! * `find_first` — `filter(x == NEEDLE).find_first()` vs draining
//!   `filter(..).to_vec()` and taking the head, same sweep.
//!
//! Six more rows, `density_*`, time filtered searches across survivor
//! densities over a permutation of `0..n`, sequentially (`seq` arm) and
//! on the bin's pool (`par` arm). The sparse ones (`find_first` of a
//! needle, present or absent) are where the fused search's
//! survivor-free chunk skip pays; the dense ones (`any_match`/
//! `all_match` calls that never stop, behind filters keeping every
//! element, every 2nd, every 64th or every 4096th) check that it costs
//! nothing when survivors are everywhere.
//!
//! The bin asserts the observability contract on recorded runs: a
//! mid-or-later needle must record at least one pruned subtree
//! (`early_exits` ≥ 1, `leaves_pruned` ≥ 1), `any_match` must record one
//! `Found` cancellation per pruned subtree, and an absent needle must
//! record neither. It also gates that a front needle answers
//! `any_match` at least [`MIN_FRONT_SPEEDUP`]× faster than the full
//! drain: the short-circuit must stay visible even at smoke sizes.

use forkjoin::ForkJoinPool;
use jstreams::{stream_support, ExecConfig, SliceSpliterator, TieSpliterator};
use plbench::ab::{Ablation, Arm};
use plbench::random_ints;
use plobs::RunReport;
use std::sync::Arc;

/// Outside `random_ints`' value range (−1 000 000‥1 000 000), so a
/// buffer contains the needle exactly where we plant it.
const NEEDLE: i64 = 2_000_000;

/// The smallest drain ÷ search ratio a front needle may show.
const MIN_FRONT_SPEEDUP: f64 = 3.0;

/// A density case: its row name and a search that answers whether it
/// found what it should.
type Density<'a> = (&'static str, Box<dyn Fn(&ExecConfig) -> bool + 'a>);

/// Appends the six `density_*` rows at size `n`.
fn density(ab: &Ablation, pool: &Arc<ForkJoinPool>, n: usize) {
    let mask = n as i64 - 1;
    // An odd multiplier permutes 0..n, so filters on the values branch
    // unpredictably.
    let list = powerlist::tabulate(n, |i| (i as i64).wrapping_mul(0x9E37_79B1) & mask)
        .expect("n is a power of two");
    let needle = list.as_slice()[n / 2];
    let view = list.view();
    let src = || stream_support(TieSpliterator::from_view(&view), true);
    let cases: Vec<Density> = vec![
        (
            "density_sparse_find_mid",
            Box::new(|c| {
                let hit = src().filter(move |x| *x == needle).try_find_first(c);
                hit.expect("search runs") == Some(needle)
            }),
        ),
        (
            "density_sparse_find_absent",
            Box::new(|c| {
                let hit = src().filter(|x| *x < 0).try_find_first(c);
                hit.expect("search runs").is_none()
            }),
        ),
        (
            "density_dense_all_every",
            Box::new(|c| {
                let all = src().filter(|x| *x >= 0).try_all_match(|x| *x >= 0, c);
                all.expect("search runs")
            }),
        ),
        (
            "density_dense_any_1in2",
            Box::new(|c| {
                let any = src().filter(|x| x % 2 == 0).try_any_match(|x| *x < 0, c);
                !any.expect("search runs")
            }),
        ),
        (
            "density_dense_any_1in64",
            Box::new(|c| {
                let any = src().filter(|x| x % 64 == 0).try_any_match(|x| *x < 0, c);
                !any.expect("search runs")
            }),
        ),
        (
            "density_dense_any_1in4096",
            Box::new(|c| {
                let any = src().filter(|x| x % 4096 == 0).try_any_match(|x| *x < 0, c);
                !any.expect("search runs")
            }),
        ),
    ];
    let seq = ExecConfig::seq();
    let par = ExecConfig::par().with_pool(Arc::clone(pool));
    for (name, run) in &cases {
        assert!(run(&seq), "{name}: wrong answer");
        let arms = ab.measure(vec![
            Arm::new("seq", || run(&seq)),
            Arm::new("par", || run(&par)),
        ]);
        ab.append(&ab.row(name, n, arms));
    }
}

/// The sweep positions: label → planted index (None = absent).
fn positions(n: usize) -> [(&'static str, Option<usize>); 5] {
    [
        ("front", Some(0)),
        ("early", Some(n / 16)),
        ("middle", Some(n / 2)),
        // 13n/16 — late, but with at least one whole leaf still ahead
        // on any power-of-two leaf grid of 16+ leaves. A needle at the
        // very tail (say 15n/16 on a 16-leaf split) leaves nothing
        // behind it to prune, so the observability asserts below could
        // never hold there, even though the short-circuit fires.
        ("late", Some(n / 16 * 13)),
        ("absent", None),
    ]
}

/// Records the search arm. Whether subtrees are still pending when the
/// short-circuit fires is schedule-dependent; when the needle should
/// prune, keep the report of the first schedule that did (bounded
/// retries).
fn record_search<R>(want_prunes: bool, search: impl Fn() -> R) -> RunReport {
    let mut rep = plobs::recorded(&search).1;
    for _ in 0..20 {
        if !want_prunes || rep.early_exits >= 1 {
            break;
        }
        rep = plobs::recorded(&search).1;
    }
    rep
}

/// Asserts the pruning observability contract for one sweep entry.
fn check_pruning(bench: &str, pos: &str, planted: Option<usize>, n: usize, rep: &RunReport) {
    if planted.is_some_and(|i| i >= n / 2) {
        assert!(
            rep.early_exits >= 1,
            "{bench}/{pos}: a needle at {planted:?} must prune subtrees, got {rep:?}"
        );
        assert!(
            rep.leaves_pruned >= 1,
            "{bench}/{pos}: pruned-leaf counter must move, got {rep:?}"
        );
    }
    if planted.is_none() {
        assert_eq!(
            rep.cancels_found, 0,
            "{bench}/{pos}: an absent needle must not record Found"
        );
        assert_eq!(
            rep.early_exits, 0,
            "{bench}/{pos}: an absent needle must not prune"
        );
    }
}

fn main() {
    // Each worker drains its leaves in depth-first encounter order; the
    // late needle sits at 13n/16 so the tail subtrees behind it still
    // get pruned at their entry checkpoints.
    let pool = Arc::new(ForkJoinPool::new(num_cpus::get()));
    let ab = Ablation::from_args("search", 18, pool.threads());
    let n = ab.n();
    // Pin the leaf grid so the sweep positions mean the same thing on
    // every box: the default policy scales leaves with the thread count
    // (a 1-thread pool would carve 2^18 into just 4 leaves, putting the
    // 13n/16 "late" needle inside the final leaf with nothing behind it
    // to prune). 64 leaves keep every planted position strictly inside
    // the tree.
    let leaf = (n / 64).max(64);
    let base: Vec<i64> = random_ints(n, 0x5EED_F00D).into_vec();

    for bench in ["any_match", "find_first"] {
        for (pos, at) in positions(n) {
            let mut planted = base.clone();
            if let Some(i) = at {
                planted[i] = NEEDLE;
            }
            let data = Arc::new(planted);
            let stream = || {
                stream_support(SliceSpliterator::shared(Arc::clone(&data)), true)
                    .with_pool(Arc::clone(&pool))
                    .with_leaf_size(leaf)
            };
            let is_needle = |x: &i64| *x == NEEDLE;
            // Every arm answers `Some(NEEDLE)` when the needle is there.
            let search = || match bench {
                "any_match" => stream().any_match(is_needle).then_some(NEEDLE),
                _ => stream().filter(is_needle).find_first(),
            };
            let drain = || match bench {
                "any_match" => (stream().filter(is_needle).count() > 0).then_some(NEEDLE),
                _ => stream().filter(is_needle).to_vec().first().copied(),
            };
            let mut arms = vec![
                Arm::new("search", &search),
                Arm::new("drain", drain).recorded(),
            ];
            if bench == "any_match" && at.is_none() {
                arms.push(Arm::timed("reduce", || {
                    stream().reduce(0i64, |a, b| a.wrapping_add(b))
                }));
            }
            let mut arms = ab.measure(arms);

            let want_prunes = at.is_some_and(|i| i >= n / 2);
            let rep = record_search(want_prunes, search);
            check_pruning(bench, pos, at, n, &rep);
            if bench == "any_match" {
                assert_eq!(
                    rep.cancels_found, rep.early_exits,
                    "any_match/{pos}: every Found observation prunes one subtree"
                );
            }
            arms[0].report = Some(rep);

            if bench == "any_match" && pos == "front" {
                let speedup = arms[1].ms_p50 / arms[0].ms_p50.max(1e-12);
                assert!(
                    speedup >= MIN_FRONT_SPEEDUP,
                    "front-needle any_match speedup x{speedup:.2} below the x{MIN_FRONT_SPEEDUP} gate"
                );
                println!("front-needle gate OK: x{speedup:.1} >= x{MIN_FRONT_SPEEDUP}");
            }
            ab.append(&ab.row(bench, ab.n(), arms).extra_str("position", pos));
        }
    }
    density(&ab, &pool, n);
}
