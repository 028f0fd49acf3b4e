//! Failure injection: misbehaving collectors, spliterators, and hooks.
//!
//! The streams stack must fail *cleanly*: panics inside user code
//! propagate to the caller of `collect` (like Java's stream exceptions),
//! the pool survives for subsequent work, and sources that lie about
//! their size degrade to correct (if suboptimal) execution rather than
//! corrupting results.

use forkjoin::ForkJoinPool;
use jstreams::{
    stream_support, try_collect_with, Characteristics, Collector, ExecConfig, ExecError,
    ItemSource, LeafAccess, SliceSpliterator, Spliterator, VecCollector,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Splice collect on `pool` at a fixed leaf size, resuming a contained
/// panic on the caller as the infallible terminals do.
fn collect_par<S, C>(pool: &Arc<ForkJoinPool>, source: S, collector: C, leaf: usize) -> C::Out
where
    S: Spliterator<i64> + 'static,
    C: Collector<i64> + 'static,
    C::Out: 'static,
{
    let cfg = ExecConfig::par()
        .with_pool(Arc::clone(pool))
        .with_leaf_size(leaf)
        .with_placement(false);
    match try_collect_with(source, collector, &cfg) {
        Ok(out) => out,
        Err(ExecError::Panicked(payload)) => std::panic::resume_unwind(payload),
        Err(e) => panic!("collect failed: {e}"),
    }
}

/// A collector whose accumulator panics on a poison value.
struct PanickyCollector;

impl Collector<i64> for PanickyCollector {
    type Acc = Vec<i64>;
    type Out = Vec<i64>;

    fn supplier(&self) -> Vec<i64> {
        Vec::new()
    }

    fn accumulate(&self, acc: &mut Vec<i64>, item: i64) {
        assert!(item != 13, "poison element reached the accumulator");
        acc.push(item);
    }

    fn combine(&self, mut l: Vec<i64>, mut r: Vec<i64>) -> Vec<i64> {
        l.append(&mut r);
        l
    }

    fn finish(&self, acc: Vec<i64>) -> Vec<i64> {
        acc
    }
}

#[test]
fn accumulator_panic_propagates_and_pool_survives() {
    let pool = Arc::new(ForkJoinPool::new(2));
    let data: Vec<i64> = (0..100).collect(); // contains 13
    let r = catch_unwind(AssertUnwindSafe(|| {
        collect_par(&pool, SliceSpliterator::new(data), PanickyCollector, 8)
    }));
    assert!(r.is_err(), "panic must reach the caller");
    // The pool still works afterwards.
    let ok = collect_par(
        &pool,
        SliceSpliterator::new(vec![1i64, 2, 3]),
        VecCollector,
        1,
    );
    assert_eq!(ok, vec![1, 2, 3]);
}

#[test]
fn combiner_panic_propagates() {
    struct BadCombiner;
    impl Collector<i64> for BadCombiner {
        type Acc = i64;
        type Out = i64;
        fn supplier(&self) -> i64 {
            0
        }
        fn accumulate(&self, acc: &mut i64, item: i64) {
            *acc += item;
        }
        fn combine(&self, _: i64, _: i64) -> i64 {
            panic!("combiner bang");
        }
        fn finish(&self, acc: i64) -> i64 {
            acc
        }
    }
    let pool = Arc::new(ForkJoinPool::new(2));
    let r = catch_unwind(AssertUnwindSafe(|| {
        collect_par(
            &pool,
            SliceSpliterator::new((0..64i64).collect()),
            BadCombiner,
            8,
        )
    }));
    assert!(r.is_err());
}

/// A spliterator that over-reports its size by 10× but otherwise
/// behaves: the driver splits more eagerly than ideal, and must still
/// produce the correct, ordered result.
struct SizeLiar {
    inner: SliceSpliterator<i64>,
}

impl ItemSource<i64> for SizeLiar {
    fn try_advance(&mut self, action: &mut dyn FnMut(i64)) -> bool {
        self.inner.try_advance(action)
    }

    fn for_each_remaining(&mut self, action: &mut dyn FnMut(i64)) {
        self.inner.for_each_remaining(action)
    }

    fn estimate_size(&self) -> usize {
        self.inner.estimate_size() * 10
    }
}

impl LeafAccess<i64> for SizeLiar {}

impl Spliterator<i64> for SizeLiar {
    fn try_split(&mut self) -> Option<Self> {
        self.inner.try_split().map(|inner| SizeLiar { inner })
    }

    fn characteristics(&self) -> Characteristics {
        // Deliberately *not* SIZED: the estimate is a lie.
        Characteristics::ORDERED
    }
}

#[test]
fn overestimating_source_still_collects_correctly() {
    let pool = Arc::new(ForkJoinPool::new(2));
    let out = collect_par(
        &pool,
        SizeLiar {
            inner: SliceSpliterator::new((0..200i64).collect()),
        },
        VecCollector,
        4,
    );
    assert_eq!(out, (0..200).collect::<Vec<_>>());
}

/// A spliterator that refuses to split: the parallel driver degrades to
/// a single sequential leaf.
struct Unsplittable {
    inner: SliceSpliterator<i64>,
}

impl ItemSource<i64> for Unsplittable {
    fn try_advance(&mut self, action: &mut dyn FnMut(i64)) -> bool {
        self.inner.try_advance(action)
    }

    fn for_each_remaining(&mut self, action: &mut dyn FnMut(i64)) {
        self.inner.for_each_remaining(action)
    }

    fn estimate_size(&self) -> usize {
        self.inner.estimate_size()
    }
}

impl LeafAccess<i64> for Unsplittable {}

impl Spliterator<i64> for Unsplittable {
    fn try_split(&mut self) -> Option<Self> {
        None
    }

    fn characteristics(&self) -> Characteristics {
        Characteristics::ORDERED | Characteristics::SIZED
    }
}

#[test]
fn unsplittable_source_runs_sequentially() {
    let pool = Arc::new(ForkJoinPool::new(4));
    let out = collect_par(
        &pool,
        Unsplittable {
            inner: SliceSpliterator::new((0..50i64).collect()),
        },
        VecCollector,
        1,
    );
    assert_eq!(out, (0..50).collect::<Vec<_>>());
}

#[test]
fn hook_panic_propagates() {
    // A hooked zip spliterator whose split hook panics: the collect
    // fails loudly instead of producing a wrong answer.
    use jstreams::{HookedZipSpliterator, ZipSpliterator};
    let list = powerlist::tabulate(64, |i| i as i64).unwrap();
    let hook: Arc<dyn Fn(&mut u32) -> u32 + Send + Sync> = Arc::new(|local| {
        *local += 1;
        assert!(*local < 3, "hook bang at depth 3");
        *local
    });
    let sp = HookedZipSpliterator::new(ZipSpliterator::over(list), 0u32, hook);
    let r = catch_unwind(AssertUnwindSafe(|| {
        stream_support(sp, true).with_leaf_size(1).to_vec()
    }));
    assert!(r.is_err());
}

#[test]
fn panic_in_sequential_collect_also_propagates() {
    let r = catch_unwind(AssertUnwindSafe(|| {
        stream_support(SliceSpliterator::new((0..20i64).collect()), false).collect(PanickyCollector)
    }));
    assert!(r.is_err());
}
