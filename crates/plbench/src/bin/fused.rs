//! Ablation F: the cloning drain vs the fused-borrow leaf route.
//!
//! ```text
//! fused [--runs R] [--exp K] [--out-dir DIR]
//! ```
//!
//! Appends two `plbench.ab.v1` rows to the ledger (see `plbench::ab`),
//! one per pipeline shape (default `2^18`), each with a `cloning` and a
//! `fused` arm and both arms' [`plobs::RunReport`]s:
//!
//! * `mapreduce` — `map(|x| a*x + b).reduce(+)`. The cloning arm builds
//!   the same pipeline over an [`Opaque`] source, which hides the
//!   slice's borrowed run, so every leaf takes the per-element cloning
//!   drain (the pre-fusion behaviour); the fused arm runs over the slice
//!   source itself, so every leaf takes the
//!   [`FusedBorrow`](plobs::LeafRoute) route.
//! * `filtered_poly` — the same A/B for a `map ∘ filter` polynomial-term
//!   pipeline. The chain drops `SIZED`, so splitting is depth-capped,
//!   but fused leaves still borrow the source run and report
//!   **survivor** item counts.
//!
//! The bin *asserts* the route split: the fused arm must record zero
//! cloning-drain leaves and at least one fused-borrow leaf, and both
//! arms must agree on the reduced value.

use forkjoin::ForkJoinPool;
use jstreams::{stream_support, SliceSpliterator};
use plbench::ab::{Ablation, Arm};
use plbench::{random_ints, Opaque};
use plobs::RunReport;
use std::sync::Arc;

/// Affine map coefficients (`a*x + b`) for the mapreduce row.
const A: i64 = 3;
const B: i64 = 7;

/// Asserts the route-counter contract of one A/B pair: the fused arm
/// never touches the cloning drain, the cloning arm never reaches the
/// fused route.
fn check_routes(label: &str, cloning: &RunReport, fused: &RunReport) {
    assert!(
        fused.routes.cloning_drain.leaves == 0,
        "{label}: fused arm hit the cloning drain ({} leaves)",
        fused.routes.cloning_drain.leaves
    );
    assert!(
        fused.routes.fused_borrow.leaves > 0,
        "{label}: fused arm recorded no fused-borrow leaves"
    );
    assert!(
        cloning.routes.fused_borrow.leaves == 0,
        "{label}: cloning arm unexpectedly took the fused route"
    );
    assert!(
        cloning.routes.cloning_drain.leaves > 0,
        "{label}: cloning arm recorded no cloning-drain leaves"
    );
}

fn main() {
    let pool = Arc::new(ForkJoinPool::new(num_cpus::get()));
    let ab = Ablation::from_args("fused", 18, pool.threads());

    // One shared buffer for every arm and run, so the A/B measures
    // traversal cost, not input re-copying.
    let ints: Arc<Vec<i64>> = Arc::new(random_ints(ab.n(), 0x5EED_F00D).into_vec());
    let slice = || SliceSpliterator::shared(Arc::clone(&ints));

    // Row 1: map + reduce. The cloning arm runs the same pipeline over
    // an opaque source, whose leaves have no borrowed access.
    let arms = ab.measure(vec![
        Arm::new("cloning", || {
            stream_support(Opaque(slice()), true)
                .with_pool(Arc::clone(&pool))
                .map(|x: i64| A.wrapping_mul(x).wrapping_add(B))
                .reduce(0i64, |a, b| a.wrapping_add(b))
        })
        .recorded(),
        Arm::new("fused", || {
            stream_support(slice(), true)
                .with_pool(Arc::clone(&pool))
                .map(|x: i64| A.wrapping_mul(x).wrapping_add(B))
                .reduce(0i64, |a, b| a.wrapping_add(b))
        })
        .recorded(),
    ]);
    check_routes("mapreduce", arms[0].report(), arms[1].report());
    ab.append(&ab.row("mapreduce", ab.n(), arms));

    // Row 2: map ∘ filter polynomial terms, one two-stage chain in
    // both arms. x²+1 is odd exactly when x is even: the filter
    // genuinely drops ~half the elements, so survivor accounting is
    // exercised.
    let arms = ab.measure(vec![
        Arm::new("cloning", || {
            stream_support(Opaque(slice()), true)
                .with_pool(Arc::clone(&pool))
                .map(|x: i64| x.wrapping_mul(x).wrapping_add(1))
                .filter(|t: &i64| t & 1 == 1)
                .reduce(0i64, |a, b| a.wrapping_add(b))
        })
        .recorded(),
        Arm::new("fused", || {
            stream_support(slice(), true)
                .with_pool(Arc::clone(&pool))
                .map(|x: i64| x.wrapping_mul(x).wrapping_add(1))
                .filter(|t: &i64| t & 1 == 1)
                .reduce(0i64, |a, b| a.wrapping_add(b))
        })
        .recorded(),
    ]);
    let (cl, fu) = (arms[0].report(), arms[1].report());
    check_routes("filtered_poly", cl, fu);
    // Survivor accounting: both arms feed the same elements to the
    // accumulator, so the per-route item totals must agree exactly.
    assert_eq!(
        cl.routes.total_items(),
        fu.routes.total_items(),
        "filtered fused leaves must report survivor counts"
    );
    ab.append(&ab.row("filtered_poly", ab.n(), arms));
}
