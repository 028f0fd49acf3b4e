//! # plbench — workloads and the measurement harness
//!
//! Shared infrastructure for the benchmark bins: seeded workload
//! generators (the paper's random-coefficient polynomials and integer
//! lists) and the one A/B harness ([`ab`]) every bin times with. The
//! paper averages 5 runs per list length; the harness keeps the median
//! of [`PAPER_RUNS`] timed calls per arm.
//!
//! The experiment index in DESIGN.md maps every figure/ablation to a
//! bin in this crate; `src/bin/figures.rs` regenerates the paper's
//! Figures 3 and 4 and the ablations its discussion motivates, and
//! every bin appends its rows to one ledger.
//!
//! Build the bins with `RUSTFLAGS="-C target-cpu=native"` (as
//! `ci.sh` does for its smoke invocations): baseline x86-64 codegen
//! vectorizes i64 additions but not i64 equality, which skews every
//! scan-vs-reduce ratio. The flag is deliberately *not* a committed
//! `[build]` default so ordinary builds stay portable.

#![warn(missing_docs)]

pub mod ab;

use jstreams::{Characteristics, FusePipe, IdentityStage, ItemSource, LeafAccess, Spliterator};
use powerlist::{tabulate, PowerList};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Number of repetitions the paper averages over.
pub const PAPER_RUNS: usize = 5;

/// Seeded random coefficients in `[-1, 1]` — the polynomial workload.
/// The evaluation point used with these should be close to ±1 so values
/// stay finite across degrees up to 2^26.
pub fn random_coeffs(n: usize, seed: u64) -> PowerList<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    tabulate(n, |_| rng.random_range(-1.0..1.0)).expect("n must be a power of two")
}

/// Seeded random integer list for the map/reduce and search workloads.
pub fn random_ints(n: usize, seed: u64) -> PowerList<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    tabulate(n, |_| rng.random_range(-1_000_000..1_000_000)).expect("n must be a power of two")
}

/// Hides a spliterator's `LeafAccess` capability, so the collect driver
/// takes the cloning per-element drain, and a fused `map`/`filter` chain
/// over it finds no borrowed run. It is the baseline that keeps the
/// per-element leaf cost measurable next to the zero-copy and
/// fused-borrow rows (Ablations B and F in EXPERIMENTS.md).
pub struct Opaque<S>(pub S);

impl<T, S: ItemSource<T>> ItemSource<T> for Opaque<S> {
    fn try_advance(&mut self, action: &mut dyn FnMut(T)) -> bool {
        self.0.try_advance(action)
    }

    fn for_each_remaining(&mut self, action: &mut dyn FnMut(T)) {
        self.0.for_each_remaining(action)
    }

    fn estimate_size(&self) -> usize {
        self.0.estimate_size()
    }
}

impl<T, S> LeafAccess<T> for Opaque<S> {}

impl<T, S: Spliterator<T>> Spliterator<T> for Opaque<S> {
    fn try_split(&mut self) -> Option<Self> {
        self.0.try_split().map(Opaque)
    }

    fn characteristics(&self) -> Characteristics {
        self.0.characteristics()
    }

    fn prefix_splits(&self) -> bool {
        self.0.prefix_splits()
    }
}

impl<T, S> FusePipe<T> for Opaque<S>
where
    T: Clone + Send + 'static,
    S: Spliterator<T> + 'static,
{
    type Base = T;
    type Src = Self;
    type Chain = IdentityStage;

    fn decompose(self) -> (Self, IdentityStage) {
        (self, IdentityStage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_seed_deterministic() {
        assert_eq!(random_coeffs(64, 7), random_coeffs(64, 7));
        assert_ne!(random_coeffs(64, 7), random_coeffs(64, 8));
        assert_eq!(random_ints(32, 1), random_ints(32, 1));
    }

    #[test]
    fn coeffs_are_bounded() {
        let c = random_coeffs(1 << 12, 42);
        assert!(c.iter().all(|&x| (-1.0..1.0).contains(&x)));
    }
}
