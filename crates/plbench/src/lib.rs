//! # plbench — workloads and measurement helpers
//!
//! Shared infrastructure for the benchmark suite: seeded workload
//! generators (the paper's random-coefficient polynomials, complex
//! signals, integer lists) and the 5-run-average timing protocol the
//! paper uses ("for each list length value we performed 5 runs of tests
//! and we averaged the obtained results").
//!
//! The experiment index in DESIGN.md maps every figure/ablation to a
//! bench target in this crate; `src/bin/figures.rs` regenerates the
//! paper's Figure 3 and Figure 4 series directly.
//!
//! Build bench binaries with `RUSTFLAGS="-C target-cpu=native"` (as
//! `ci.sh` does for its smoke invocations): baseline x86-64 codegen
//! vectorizes i64 additions but not i64 equality, which skews every
//! scan-vs-reduce ratio. The flag is deliberately *not* a committed
//! `[build]` default so ordinary builds stay portable.

#![warn(missing_docs)]

use jstreams::{Characteristics, FusePipe, IdentityStage, ItemSource, LeafAccess, Spliterator};
use powerlist::{tabulate, PowerList};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::time::{Duration, Instant};

/// Number of repetitions the paper averages over.
pub const PAPER_RUNS: usize = 5;

/// Seeded random coefficients in `[-1, 1]` — the polynomial workload.
/// The evaluation point used with these should be close to ±1 so values
/// stay finite across degrees up to 2^26.
pub fn random_coeffs(n: usize, seed: u64) -> PowerList<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    tabulate(n, |_| rng.random_range(-1.0..1.0)).expect("n must be a power of two")
}

/// Seeded random integer list for map/reduce and sorting workloads.
pub fn random_ints(n: usize, seed: u64) -> PowerList<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    tabulate(n, |_| rng.random_range(-1_000_000..1_000_000)).expect("n must be a power of two")
}

/// Seeded random complex signal for the FFT workload.
pub fn random_signal(n: usize, seed: u64) -> PowerList<plalgo::Complex> {
    let mut rng = StdRng::seed_from_u64(seed);
    tabulate(n, |_| {
        plalgo::Complex::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0))
    })
    .expect("n must be a power of two")
}

/// Times `f` once.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// The paper's protocol: run `f` `runs` times and average the wall
/// times; the last result is returned for checking.
pub fn time_avg<R>(runs: usize, mut f: impl FnMut() -> R) -> (R, Duration) {
    assert!(runs >= 1);
    let mut total = Duration::ZERO;
    let mut last = None;
    for _ in 0..runs {
        let (r, d) = time_once(&mut f);
        total += d;
        last = Some(r);
    }
    (last.expect("runs >= 1"), total / runs as u32)
}

/// Runs `f` `runs` times and keeps the *minimum* wall time; the last
/// result is returned for checking. The minimum is the robust estimator
/// for short-circuiting benches on a shared or single-core box, where a
/// single preemption inside a microsecond-scale run would otherwise
/// dominate an average.
pub fn time_min<R>(runs: usize, mut f: impl FnMut() -> R) -> (R, Duration) {
    assert!(runs >= 1);
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..runs {
        let (r, d) = time_once(&mut f);
        best = best.min(d);
        last = Some(r);
    }
    (last.expect("runs >= 1"), best)
}

/// Milliseconds as f64, for table printing.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
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
        let a = random_signal(16, 3);
        let b = random_signal(16, 3);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn coeffs_are_bounded() {
        let c = random_coeffs(1 << 12, 42);
        assert!(c.iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn time_avg_runs_the_closure() {
        let mut count = 0;
        let (r, d) = time_avg(5, || {
            count += 1;
            count
        });
        assert_eq!(count, 5);
        assert_eq!(r, 5);
        assert!(d >= Duration::ZERO);
    }

    #[test]
    fn ms_converts() {
        assert_eq!(ms(Duration::from_millis(250)), 250.0);
    }
}
