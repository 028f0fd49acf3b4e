//! Ablation H: the splice-combine collect vs the destination-passing
//! placement route.
//!
//! ```text
//! placement [--runs R] [--exp K] [--out-dir DIR]
//! ```
//!
//! Appends two `plbench.ab.v1` rows to the ledger (see `plbench::ab`),
//! default `2^18` at leaf [`LEAF`], each with a `splice` and a
//! `placement` arm and both arms' [`plobs::RunReport`]s:
//!
//! * `tovec` — `to_vec` over a shared slice source. The splice arm runs
//!   with placement disabled (`with_placement(false)`), so every combine
//!   splices two partial `Vec`s; the placement arm allocates the output
//!   once at the root and each leaf writes its disjoint window, making
//!   every combine O(1).
//! * `powerlist` — the identity PowerList collect (tie split, tie
//!   recombination) through the same A/B.
//!
//! The bin *asserts* the route contract: the placement arm records at
//! least one placement leaf and **zero splice combines** (every recorded
//! combine carries the placement tag), the splice arm records zero
//! placement leaves, and both arms agree on the collected value.

use forkjoin::ForkJoinPool;
use jstreams::{
    stream_support, Decomposition, PowerListCollector, SliceSpliterator, TieSpliterator,
};
use plbench::ab::{Ablation, Arm};
use plbench::random_ints;
use plobs::RunReport;
use powerlist::PowerList;
use std::sync::Arc;

/// Leaf size of both arms: 128 leaves, a 7-level tree, at 2^18.
const LEAF: usize = 2048;

/// Asserts the route-counter contract of one A/B pair: the placement
/// arm never splice-combines, the splice arm never places.
fn check_routes(label: &str, splice: &RunReport, placement: &RunReport) {
    assert!(
        placement.routes.placement.leaves > 0,
        "{label}: placement arm recorded no placement leaves"
    );
    assert_eq!(
        placement.combines,
        placement.combines_placement,
        "{label}: placement arm performed {} splice combines",
        placement.combines - placement.combines_placement
    );
    assert!(
        splice.routes.placement.leaves == 0,
        "{label}: splice arm unexpectedly took the placement route"
    );
    assert_eq!(
        splice.combines_placement, 0,
        "{label}: splice arm recorded placement combines"
    );
}

fn main() {
    let pool = Arc::new(ForkJoinPool::new(num_cpus::get()));
    let ab = Ablation::from_args("placement", 18, pool.threads());

    // One shared buffer for every arm and run, so the A/B measures
    // collect cost, not input re-copying.
    let ints: Arc<Vec<i64>> = Arc::new(random_ints(ab.n(), 0x5EED_CAFE).into_vec());

    // Row 1: to_vec. The splice arm materialises a Vec per leaf and
    // splices pairs up the tree (each element copied once per level);
    // the placement arm writes each element exactly once.
    let to_vec = |placement: bool| {
        stream_support(SliceSpliterator::shared(Arc::clone(&ints)), true)
            .with_pool(Arc::clone(&pool))
            .with_leaf_size(LEAF)
            .with_placement(placement)
            .to_vec()
    };
    let arms = ab.measure(vec![
        Arm::new("splice", || to_vec(false)).recorded(),
        Arm::new("placement", || to_vec(true)).recorded(),
    ]);
    check_routes("tovec", arms[0].report(), arms[1].report());
    ab.append(&ab.row("tovec", ab.n(), arms));

    // Row 2: the identity PowerList collect (tie split, tie
    // recombination) — the paper's shape-preserving terminal. The view
    // is built once (Arc-backed storage), so each run splits a no-copy
    // descriptor instead of re-cloning the input list.
    let view = PowerList::from_vec(ints.as_ref().clone()).unwrap().view();
    let collect = |placement: bool| {
        stream_support(TieSpliterator::from_view(&view), true)
            .with_pool(Arc::clone(&pool))
            .with_leaf_size(LEAF)
            .with_placement(placement)
            .collect(PowerListCollector::new(Decomposition::Tie))
    };
    let arms = ab.measure(vec![
        Arm::new("splice", || collect(false)).recorded(),
        Arm::new("placement", || collect(true)).recorded(),
    ]);
    check_routes("powerlist", arms[0].report(), arms[1].report());
    ab.append(&ab.row("powerlist", ab.n(), arms));
}
