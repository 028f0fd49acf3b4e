//! Adapter fusion: pending per-element operations carried beside the
//! source instead of wrapped around it.
//!
//! PR 1's zero-copy leaf kernels only dispatch when the *source*
//! spliterator reaches a leaf — the moment a pipeline contains a `map`
//! or `filter` adapter, `run_leaf` falls back to the per-element cloning
//! drain. This module restores zero-copy traversal for adapted
//! pipelines by changing what an intermediate operation builds: instead
//! of nesting a map adapter spliterator around
//! the source, [`Stream::map`](crate::Stream::map) (and `filter`/`peek`)
//! extend a composable **fused chain** of [`FusedStage`]s carried by a
//! [`FusedSpliterator`] *next to* the untouched source.
//!
//! At a leaf, [`LeafAccess::fused_leaf`] borrows the source's run —
//! contiguous or strided, exactly as the zero-copy kernels do — and
//! folds the chain over it into the collector's accumulator, carried by
//! value ([`FusedStage::fold`]): one monomorphized
//! `iter().map().filter().fold()` loop, the shape of a hand-written
//! one, with no per-element `dyn` dispatch and no intermediate clones
//! beyond the single `B -> chain` hand-off. The driver reports these
//! leaves as [`LeafRoute::FusedBorrow`](plobs::LeafRoute).
//!
//! Route-selection rules (see DESIGN.md §10):
//!
//! * sources without borrowed access (or behind truncation adapters,
//!   whose allowance math needs exact per-element counting) answer
//!   `None` from `fused_leaf` and keep the cloning drain;
//! * a chain containing a filter [`drops`](FusedStage::drops)
//!   `SIZED|SUBSIZED|POWER2`, so size-based recursion stops and
//!   limit/skip splitting stay disabled over it, and its leaves report
//!   **survivor** counts, not borrow lengths.

use crate::characteristics::Characteristics;
use crate::collector::Collector;
use crate::power::PowerSpliterator;
use crate::search::SCAN_CHUNK;
use crate::spliterator::{ItemSource, LeafAccess, SliceSpliterator, Spliterator};
use crate::tie::TieSpliterator;
use crate::truncate::{LimitSpliterator, SkipSpliterator};
use crate::zip::{HookedZipSpliterator, ZipSpliterator};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::Arc;

/// One composable pending operation chain from source elements `T` to
/// pipeline elements `U`.
///
/// A chain is a by-value fold step: [`FusedStage::fold`] threads an
/// accumulator through the chain, so a leaf driving it over a borrowed
/// run compiles to the same `iter().map().filter().fold()` shape as a
/// hand-written loop. Stages are cheap to clone (function objects sit
/// behind `Arc`) because every split clones the chain alongside the
/// split-off source prefix.
pub trait FusedStage<T, U>: Clone + Send + Sync + 'static {
    /// Folds one source element through the chain: returns `g(acc, u)`
    /// when the element survives every stage as `u`, or `acc` unchanged
    /// when a filter drops it.
    fn fold<A, G: FnMut(A, U) -> A>(&self, x: T, acc: A, g: G) -> A;

    /// `true` when every source element produces exactly one output —
    /// i.e. the chain contains no filter.
    fn exact(&self) -> bool;

    /// `true` when the chain contains an observer (`peek`) stage, whose
    /// side effects must not run speculatively.
    fn observes(&self) -> bool;

    /// The characteristics this chain destroys on its source: map stages
    /// drop `SORTED|DISTINCT`, filter stages drop
    /// `SIZED|SUBSIZED|POWER2`, inspect stages drop nothing.
    fn drops(&self) -> Characteristics;
}

/// The empty chain: passes elements through untouched.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityStage;

impl<T> FusedStage<T, T> for IdentityStage {
    #[inline]
    fn fold<A, G: FnMut(A, T) -> A>(&self, x: T, acc: A, mut g: G) -> A {
        g(acc, x)
    }

    fn exact(&self) -> bool {
        true
    }

    fn observes(&self) -> bool {
        false
    }

    fn drops(&self) -> Characteristics {
        Characteristics::empty()
    }
}

/// A chain extended by a mapping stage: `prev` then `f`.
///
/// `M` is the element type between `prev` and `f` (needed to tie the
/// two halves together; callers never name it — `Stream::map` infers
/// it).
pub struct MapStage<K, F, M> {
    prev: K,
    f: Arc<F>,
    _mid: PhantomData<fn(M) -> M>,
}

impl<K, F, M> MapStage<K, F, M> {
    /// Extends `prev` with the mapping `f`.
    pub fn new(prev: K, f: F) -> Self {
        MapStage {
            prev,
            f: Arc::new(f),
            _mid: PhantomData,
        }
    }
}

impl<K: Clone, F, M> Clone for MapStage<K, F, M> {
    fn clone(&self) -> Self {
        MapStage {
            prev: self.prev.clone(),
            f: Arc::clone(&self.f),
            _mid: PhantomData,
        }
    }
}

impl<T, M, U, K, F> FusedStage<T, U> for MapStage<K, F, M>
where
    K: FusedStage<T, M>,
    F: Fn(M) -> U + Send + Sync + 'static,
    M: 'static,
{
    #[inline]
    fn fold<A, G: FnMut(A, U) -> A>(&self, x: T, acc: A, mut g: G) -> A {
        let f = &*self.f;
        self.prev.fold(x, acc, |acc, m| g(acc, f(m)))
    }

    fn exact(&self) -> bool {
        self.prev.exact()
    }

    fn observes(&self) -> bool {
        self.prev.observes()
    }

    fn drops(&self) -> Characteristics {
        // A non-monotone, non-injective map breaks both orderings.
        self.prev.drops() | (Characteristics::SORTED | Characteristics::DISTINCT)
    }
}

/// A chain extended by a filtering stage: `prev`, then keep only
/// elements satisfying `pred`.
pub struct FilterStage<K, P> {
    prev: K,
    pred: Arc<P>,
}

impl<K, P> FilterStage<K, P> {
    /// Extends `prev` with the predicate `pred`.
    pub fn new(prev: K, pred: P) -> Self {
        FilterStage {
            prev,
            pred: Arc::new(pred),
        }
    }
}

impl<K: Clone, P> Clone for FilterStage<K, P> {
    fn clone(&self) -> Self {
        FilterStage {
            prev: self.prev.clone(),
            pred: Arc::clone(&self.pred),
        }
    }
}

impl<T, U, K, P> FusedStage<T, U> for FilterStage<K, P>
where
    K: FusedStage<T, U>,
    P: Fn(&U) -> bool + Send + Sync + 'static,
{
    #[inline]
    fn fold<A, G: FnMut(A, U) -> A>(&self, x: T, acc: A, mut g: G) -> A {
        let pred = &*self.pred;
        self.prev
            .fold(x, acc, |acc, u| if pred(&u) { g(acc, u) } else { acc })
    }

    fn exact(&self) -> bool {
        false
    }

    fn observes(&self) -> bool {
        self.prev.observes()
    }

    fn drops(&self) -> Characteristics {
        // Surviving counts are unknown before traversal.
        self.prev.drops()
            | (Characteristics::SIZED | Characteristics::SUBSIZED | Characteristics::POWER2)
    }
}

/// A chain extended by an observation stage (`peek`): `prev`, then run
/// `observer` on each element without changing the flow.
pub struct InspectStage<K, F> {
    prev: K,
    observer: Arc<F>,
}

impl<K, F> InspectStage<K, F> {
    /// Extends `prev` with the observer `observer`.
    pub fn new(prev: K, observer: F) -> Self {
        InspectStage {
            prev,
            observer: Arc::new(observer),
        }
    }
}

impl<K: Clone, F> Clone for InspectStage<K, F> {
    fn clone(&self) -> Self {
        InspectStage {
            prev: self.prev.clone(),
            observer: Arc::clone(&self.observer),
        }
    }
}

impl<T, U, K, F> FusedStage<T, U> for InspectStage<K, F>
where
    K: FusedStage<T, U>,
    F: Fn(&U) + Send + Sync + 'static,
{
    #[inline]
    fn fold<A, G: FnMut(A, U) -> A>(&self, x: T, acc: A, mut g: G) -> A {
        let obs = &*self.observer;
        self.prev.fold(x, acc, |acc, u| {
            obs(&u);
            g(acc, u)
        })
    }

    fn exact(&self) -> bool {
        self.prev.exact()
    }

    fn observes(&self) -> bool {
        true
    }

    fn drops(&self) -> Characteristics {
        self.prev.drops()
    }
}

/// A source spliterator paired with the fused chain of pending
/// per-element operations — what `Stream::map`/`filter`/`peek` build
/// instead of nested adapter spliterators.
///
/// Splitting splits the *source* and clones the chain, so the task tree
/// has exactly the shape of the unadapted pipeline; characteristics are
/// the source's minus whatever the chain [`drops`](FusedStage::drops).
pub struct FusedSpliterator<B, S, K, U> {
    source: S,
    chain: K,
    _marker: PhantomData<fn(B) -> U>,
}

impl<B, S, K, U> FusedSpliterator<B, S, K, U> {
    /// Pairs `source` with the pending chain.
    pub fn new(source: S, chain: K) -> Self {
        FusedSpliterator {
            source,
            chain,
            _marker: PhantomData,
        }
    }

    /// The pending chain (diagnostics / tests).
    pub fn chain(&self) -> &K {
        &self.chain
    }

    /// A split-off `source` carrying a clone of this chain.
    fn with_source(&self, source: S) -> Self
    where
        K: Clone,
    {
        FusedSpliterator {
            source,
            chain: self.chain.clone(),
            _marker: PhantomData,
        }
    }
}

impl<B, S, K, U> ItemSource<U> for FusedSpliterator<B, S, K, U>
where
    S: Spliterator<B>,
    K: FusedStage<B, U>,
{
    fn try_advance(&mut self, action: &mut dyn FnMut(U)) -> bool {
        // Keep advancing the source until one element survives the
        // chain or the source ends.
        let chain = &self.chain;
        loop {
            let mut emitted = false;
            let more = self.source.try_advance(&mut |x| {
                emitted = chain.fold(x, false, |_, u| {
                    action(u);
                    true
                });
            });
            if !more {
                return false;
            }
            if emitted {
                return true;
            }
        }
    }

    fn for_each_remaining(&mut self, action: &mut dyn FnMut(U)) {
        let chain = &self.chain;
        self.source
            .for_each_remaining(&mut |x| chain.fold(x, (), |(), u| action(u)));
    }

    fn estimate_size(&self) -> usize {
        self.source.estimate_size() // an upper bound when the chain filters
    }
}

impl<B, S, K, U> LeafAccess<U> for FusedSpliterator<B, S, K, U>
where
    B: Clone,
    S: Spliterator<B>,
    K: FusedStage<B, U>,
{
    // No borrowed run of *transformed* elements exists, so
    // `try_as_strided` keeps its `None` default; the fused route below
    // borrows the source's run instead.

    fn mark_drained(&mut self) {
        self.source.mark_drained();
    }

    fn fused_leaf<C>(&mut self, collector: &C) -> Option<C::Acc>
    where
        C: Collector<U> + ?Sized,
        Self: Sized,
    {
        let (items, step) = self.source.try_as_strided()?;
        let chain = &self.chain;
        // The accumulator travels by value through the chain, and no
        // survivor counter rides along: both keep the loop in vector
        // registers. Survivor counts, when observed, come from the
        // caller's collector (see `collect::run_leaf`).
        let accumulate = |mut acc: C::Acc, u: U| {
            collector.accumulate(&mut acc, u);
            acc
        };
        let init = collector.supplier();
        let acc = if step == 1 {
            items
                .iter()
                .fold(init, |acc, x| chain.fold(x.clone(), acc, accumulate))
        } else {
            // Strided-run contract: the last element of `items` is
            // always covered (`items.len() % step == 1`).
            items
                .iter()
                .step_by(step)
                .fold(init, |acc, x| chain.fold(x.clone(), acc, accumulate))
        };
        self.source.mark_drained();
        Some(acc)
    }

    fn can_fused_fill(&self) -> bool {
        // Stable under splits: splitting splits the source (which keeps
        // its borrowable run — every descriptor source in this crate
        // answers `try_as_strided` on all of its splits) and clones the
        // chain (exactness is a property of the stage types).
        self.chain.exact() && self.source.try_as_strided().is_some()
    }

    fn fused_fill<F: FnMut(U)>(&mut self, mut sink: F) -> Option<u64>
    where
        Self: Sized,
    {
        if !self.chain.exact() {
            return None;
        }
        let (items, step) = self.source.try_as_strided()?;
        let chain = &self.chain;
        // An exact chain delivers one element per source element, so
        // the count is the run's length — no per-element counter.
        let delivered = items.len().div_ceil(step);
        let mut fill = |x: &B| chain.fold(x.clone(), (), |(), u| sink(u));
        if step == 1 {
            items.iter().for_each(&mut fill);
        } else {
            items.iter().step_by(step).for_each(&mut fill);
        }
        self.source.mark_drained();
        Some(delivered as u64)
    }

    /// Runs `visit` on the chain's survivors in encounter order until it
    /// returns `true`.
    ///
    /// A contiguous run under a filtering chain with no observer stage
    /// first skips its leading survivor-free chunks of `SCAN_CHUNK` (256)
    /// elements, each tested by a branch-free fold that only asks
    /// whether any element of the chunk survives. From the first chunk
    /// with a survivor on, the run goes element by element through
    /// `visit`, so `visit` still sees exactly the survivors, in order.
    /// This pays off when survivors are sparse (a needle search); with
    /// dense survivors it costs one extra fold of one chunk per leaf.
    ///
    /// Speculation: the chunk test runs the chain's `map`/`filter`
    /// closures over the whole first survivor chunk, so they may run on
    /// up to `SCAN_CHUNK - 1` elements past the hit and twice on that
    /// chunk's elements, sequential searches included — they must be
    /// pure. A chain with a `peek` stage keeps the element-by-element
    /// loop, so an observer never runs speculatively.
    // Inlined into the search leaf so its visitor closure devirtualizes.
    // Out of line, streambench's `find_first` sequential rung measured
    // 1.1–1.6× the hand loop instead of 1.0× (2-vCPU AMD EPYC).
    #[inline]
    fn fused_search(&mut self, visit: &mut dyn FnMut(&U) -> bool) -> Option<(bool, u64)> {
        let (items, step) = self.source.try_as_strided()?;
        let chain = &self.chain;
        let run = if step == 1 && !chain.exact() && !chain.observes() {
            let survivor_free = |chunk: &&[B]| {
                !chunk
                    .iter()
                    .fold(false, |any, x| chain.fold(x.clone(), any, |_, _| true))
            };
            let skipped = items.chunks(SCAN_CHUNK).take_while(survivor_free).count();
            &items[(skipped * SCAN_CHUNK).min(items.len())..]
        } else {
            items
        };
        // A stop flag beside the sink, tested after each element: folding
        // `visit`'s answer out of the chain and stopping through
        // `Iterator::any` instead measured up to 3.4× slower on
        // dense-survivor searches (2-vCPU avx512 Xeon).
        let stopped = Cell::new(false);
        let mut delivered: u64 = 0;
        let mut sink = |(), u: U| {
            if !stopped.get() {
                delivered += 1;
                if visit(&u) {
                    stopped.set(true);
                }
            }
        };
        if step == 1 {
            for x in run {
                chain.fold(x.clone(), (), &mut sink);
                if stopped.get() {
                    break;
                }
            }
        } else {
            for x in run.iter().step_by(step) {
                chain.fold(x.clone(), (), &mut sink);
                if stopped.get() {
                    break;
                }
            }
        }
        let stopped = stopped.get();
        if !stopped {
            self.source.mark_drained();
        }
        Some((stopped, delivered))
    }
}

impl<B, S, K, U> Spliterator<U> for FusedSpliterator<B, S, K, U>
where
    B: Clone,
    S: Spliterator<B>,
    K: FusedStage<B, U>,
{
    fn try_split(&mut self) -> Option<Self> {
        let prefix = self.source.try_split()?;
        Some(self.with_source(prefix))
    }

    fn try_split_prefix(&mut self) -> Option<Self> {
        let prefix = self.source.try_split_prefix()?;
        Some(self.with_source(prefix))
    }

    fn characteristics(&self) -> Characteristics {
        self.source.characteristics().without(self.chain.drops())
    }

    // Splitting splits the source, so split/encounter geometry is the
    // source's too.
    fn prefix_splits(&self) -> bool {
        self.source.prefix_splits()
    }

    // An exact (filter-free) chain delivers exactly one element per
    // source element, in source order, so source ranks are pipeline
    // ranks. A filtering chain breaks the j-th-delivered ↔ j-th-source
    // correspondence and must not claim ranks.
    fn encounter_rank(&self) -> Option<(usize, usize)> {
        if self.chain.exact() {
            self.source.encounter_rank()
        } else {
            None
        }
    }
}

/// Decomposes a pipeline spliterator into `(underlying source, pending
/// chain)` so `Stream::map`/`filter`/`peek` *extend* the chain instead
/// of nesting adapters.
///
/// Every concrete spliterator in this crate implements it as the
/// identity (`Src = Self`, `Chain = IdentityStage`);
/// [`FusedSpliterator`] returns its parts, which is what keeps a chain
/// of `.map(..).filter(..)` calls flat. Custom spliterator types opt in
/// with the same one-line identity implementation.
pub trait FusePipe<T>: Spliterator<T> {
    /// Element type produced by the underlying source.
    type Base: Clone + Send + 'static;
    /// The underlying source spliterator.
    type Src: Spliterator<Self::Base> + 'static;
    /// The pending per-element chain from `Base` to `T`.
    type Chain: FusedStage<Self::Base, T>;

    /// Splits this pipeline into its source and pending chain.
    fn decompose(self) -> (Self::Src, Self::Chain);
}

/// Implements the identity [`FusePipe`] (`Src = Self`,
/// `Chain = IdentityStage`) for a concrete source spliterator type.
macro_rules! identity_fuse_pipe {
    ($t:ty => $elem:ty where $($bound:tt)*) => {
        impl<$($bound)*> FusePipe<$elem> for $t {
            type Base = $elem;
            type Src = Self;
            type Chain = IdentityStage;

            fn decompose(self) -> (Self, IdentityStage) {
                (self, IdentityStage)
            }
        }
    };
}

identity_fuse_pipe!(SliceSpliterator<T> => T where T: Clone + Send + Sync + 'static);
identity_fuse_pipe!(TieSpliterator<T> => T where T: Clone + Send + Sync + 'static);
identity_fuse_pipe!(ZipSpliterator<T> => T where T: Clone + Send + Sync + 'static);
identity_fuse_pipe!(PowerSpliterator<T> => T where T: Clone + Send + Sync + 'static);

impl<T, L> FusePipe<T> for HookedZipSpliterator<T, L>
where
    T: Clone + Send + Sync + 'static,
    L: Send + 'static,
{
    type Base = T;
    type Src = Self;
    type Chain = IdentityStage;

    fn decompose(self) -> (Self, IdentityStage) {
        (self, IdentityStage)
    }
}

// Truncation adapters participate as chain *sources*: a `map` after
// `limit` starts a fresh chain over the truncated source. Their empty
// `LeafAccess` keeps every fused-borrow attempt refused (allowance
// math needs exact per-element counting), so such pipelines stay on
// the cloning drain.
impl<T, S> FusePipe<T> for LimitSpliterator<S>
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

impl<T, S> FusePipe<T> for SkipSpliterator<S>
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

// The chain-extending case: a fused pipeline decomposes into its own
// parts, so the next `map`/`filter` call composes one longer chain over
// the same untouched source.
impl<B, S, K, U> FusePipe<U> for FusedSpliterator<B, S, K, U>
where
    B: Clone + Send + 'static,
    S: Spliterator<B> + 'static,
    K: FusedStage<B, U>,
{
    type Base = B;
    type Src = S;
    type Chain = K;

    fn decompose(self) -> (S, K) {
        (self.source, self.chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{ReduceCollector, VecCollector};
    use crate::spliterator::SliceSpliterator;
    use powerlist::tabulate;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn drain<T, S: ItemSource<T>>(s: &mut S) -> Vec<T> {
        let mut out = vec![];
        s.for_each_remaining(&mut |x| out.push(x));
        out
    }

    type TimesTen = MapStage<IdentityStage, fn(i32) -> i32, i32>;

    fn fused_map_times_10(
        data: Vec<i32>,
    ) -> FusedSpliterator<i32, SliceSpliterator<i32>, TimesTen, i32> {
        FusedSpliterator::new(
            SliceSpliterator::new(data),
            MapStage::new(IdentityStage, |x: i32| x * 10),
        )
    }

    #[test]
    fn fused_map_traverses_and_splits() {
        let mut s = fused_map_times_10(vec![1, 2, 3, 4]);
        assert_eq!(s.estimate_size(), 4);
        let mut prefix = s.try_split().expect("splittable");
        assert_eq!(drain(&mut prefix), vec![10, 20]);
        assert_eq!(drain(&mut s), vec![30, 40]);
    }

    #[test]
    fn peek_observes_everything() {
        let seen = Arc::new(AtomicUsize::new(0));
        let s2 = Arc::clone(&seen);
        let mut s = FusedSpliterator::new(
            SliceSpliterator::new((0..9i64).collect::<Vec<_>>()),
            InspectStage::new(IdentityStage, move |_: &i64| {
                s2.fetch_add(1, Ordering::Relaxed);
            }),
        );
        let out = drain(&mut s);
        assert_eq!(out.len(), 9);
        assert_eq!(seen.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn fused_filter_try_advance_skips_failures() {
        let chain = FilterStage::new(IdentityStage, |x: &i32| x % 2 == 0);
        let mut s = FusedSpliterator::new(SliceSpliterator::new(vec![1, 2, 3, 4, 5]), chain);
        let mut seen = vec![];
        while s.try_advance(&mut |x| seen.push(x)) {}
        assert_eq!(seen, vec![2, 4]);
        assert!(!s.try_advance(&mut |_| {}));
    }

    /// Runs `s` as one observed leaf (`run_leaf` under a recorder) and
    /// returns its accumulator with the item count its fused-borrow
    /// event reported.
    fn observed_fused_leaf<U, S, C>(s: &mut S, collector: &C) -> (C::Acc, u64)
    where
        S: Spliterator<U>,
        C: Collector<U>,
    {
        let _serial = crate::test_serial::exclusive();
        let (acc, report) = plobs::recorded(|| crate::collect::run_leaf(s, collector));
        assert_eq!(report.routes.fused_borrow.leaves, 1);
        assert_eq!(report.routes.cloning_drain.leaves, 0);
        (acc, report.routes.fused_borrow.items)
    }

    #[test]
    fn fused_leaf_drives_chain_over_borrowed_run() {
        let collector = ReduceCollector::new(0i32, |a, b| a + b);
        let mut s = fused_map_times_10(vec![1, 2, 3]);
        assert_eq!(s.fused_leaf(&collector), Some(60));
        // The source was marked drained.
        assert_eq!(drain(&mut s), Vec::<i32>::new());
        let mut s = fused_map_times_10(vec![1, 2, 3]);
        let (acc, n) = observed_fused_leaf(&mut s, &collector);
        assert_eq!(acc, 60);
        assert_eq!(n, 3);
        assert_eq!(drain(&mut s), Vec::<i32>::new());
    }

    #[test]
    fn fused_leaf_reports_survivor_counts_not_borrow_lengths() {
        let source = || {
            let chain =
                FilterStage::new(MapStage::new(IdentityStage, |x: i64| x * 2), |x: &i64| {
                    x % 4 == 0
                });
            FusedSpliterator::new(SliceSpliterator::new((0..10).collect()), chain)
        };
        assert_eq!(
            source().fused_leaf(&VecCollector),
            Some(vec![0, 4, 8, 12, 16])
        );
        let (acc, n) = observed_fused_leaf(&mut source(), &VecCollector);
        assert_eq!(acc, vec![0, 4, 8, 12, 16]);
        assert_eq!(
            n, 5,
            "items must count survivors, not the 10-element borrow"
        );
    }

    #[test]
    fn fused_leaf_covers_strided_residues() {
        // A zip split yields stride-2 residue classes; the fused chain
        // must walk exactly that class.
        let evens = || {
            let mut z = ZipSpliterator::over(tabulate(8, |i| i as i64).unwrap());
            let prefix = z.try_split().unwrap();
            FusedSpliterator::new(prefix, MapStage::new(IdentityStage, |x| x + 100))
        };
        assert_eq!(
            evens().fused_leaf(&VecCollector),
            Some(vec![100, 102, 104, 106])
        );
        let (acc, n) = observed_fused_leaf(&mut evens(), &VecCollector);
        assert_eq!(acc, vec![100, 102, 104, 106]);
        assert_eq!(n, 4);
    }

    /// Runs `fused_search` over `0..n` under a filter keeping `keep`,
    /// with a visitor that stops at `stop_at`. Returns the search's
    /// answer, the survivors `visit` saw, how often the filter ran, and
    /// whether the source was left drained.
    fn counted_search(
        n: usize,
        keep: impl Fn(i64) -> bool + Send + Sync + 'static,
        stop_at: Option<i64>,
    ) -> ((bool, u64), Vec<i64>, usize, bool) {
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let chain = FilterStage::new(IdentityStage, move |x: &i64| {
            counter.fetch_add(1, Ordering::Relaxed);
            keep(*x)
        });
        let mut s = FusedSpliterator::new(SliceSpliterator::new((0..n as i64).collect()), chain);
        let mut seen = vec![];
        let answer = s
            .fused_search(&mut |x| {
                seen.push(*x);
                Some(*x) == stop_at
            })
            .expect("a contiguous run takes the fused route");
        let calls = calls.load(Ordering::Relaxed);
        (answer, seen, calls, drain(&mut s).is_empty())
    }

    #[test]
    fn fused_search_skips_survivor_free_chunks() {
        let c = SCAN_CHUNK;
        let n = 4 * c;
        for p in [0, c - 1, c, c + 1, n - 1] {
            let needle = p as i64;
            let (answer, seen, calls, _) = counted_search(n, move |x| x == needle, Some(needle));
            assert_eq!(answer, (true, 1), "needle at {p}");
            assert_eq!(seen, vec![needle], "needle at {p}");
            // Every chunk up to the needle's is tested whole, then the
            // needle's chunk is replayed up to the needle.
            assert_eq!(calls, (p / c + 1) * c + p % c + 1, "needle at {p}");
        }
        let (answer, seen, calls, drained) = counted_search(n, |_| false, None);
        assert_eq!(answer, (false, 0));
        assert!(seen.is_empty());
        assert_eq!(calls, n);
        assert!(drained);
    }

    #[test]
    fn fused_search_replays_at_most_one_chunk() {
        // Survivors in every chunk, and a visitor that does not stop on
        // them: only the first survivor chunk runs the chain twice.
        let c = SCAN_CHUNK;
        let n = 8 * c;
        let evens: Vec<i64> = (0..n as i64).filter(|x| x % 2 == 0).collect();
        let (answer, seen, calls, drained) = counted_search(n, |x| x % 2 == 0, None);
        assert_eq!(answer, (false, evens.len() as u64));
        assert_eq!(seen, evens);
        assert_eq!(calls, n + c);
        assert!(drained);

        // Sparse survivors that first appear in the fourth chunk.
        let keep = |x: i64| x >= 3 * SCAN_CHUNK as i64 && x % 64 == 0;
        let kept: Vec<i64> = (0..n as i64).filter(|&x| keep(x)).collect();
        let (answer, seen, calls, _) = counted_search(n, keep, None);
        assert_eq!(answer, (false, kept.len() as u64));
        assert_eq!(seen, kept);
        assert_eq!(calls, n + c);

        // A stop past the first survivor chunk runs no closure past it.
        let stop = 5 * c as i64 + 2;
        let (answer, seen, calls, _) = counted_search(n, |x| x % 2 == 0, Some(stop));
        assert_eq!(answer, (true, stop as u64 / 2 + 1));
        assert_eq!(seen, evens[..=stop as usize / 2]);
        assert_eq!(calls, c + stop as usize + 1);
    }

    #[test]
    fn fused_leaf_refuses_without_borrowed_access() {
        // A filtering fused chain has no borrowed run of its own, so a
        // chain over one cannot borrow and must answer None (-> cloning
        // drain).
        let inner = FusedSpliterator::new(
            SliceSpliterator::new((0..8i64).collect()),
            FilterStage::new(IdentityStage, |x: &i64| x % 2 == 0),
        );
        let mut s = FusedSpliterator::new(inner, MapStage::new(IdentityStage, |x| x + 1));
        assert!(s.fused_leaf(&VecCollector).is_none());
        assert_eq!(drain(&mut s), vec![1, 3, 5, 7]);
    }

    #[test]
    fn exactness_tracks_filters_only() {
        let map = MapStage::new(IdentityStage, |x: i32| x + 1);
        assert!(FusedStage::<i32, i32>::exact(&map));
        let inspect = InspectStage::new(map.clone(), |_: &i32| {});
        assert!(FusedStage::<i32, i32>::exact(&inspect));
        let filt = FilterStage::new(map, |_: &i32| true);
        assert!(!FusedStage::<i32, i32>::exact(&filt));
    }

    // -----------------------------------------------------------------
    // Characteristics propagation matrix (map / filter / fused chains)
    // -----------------------------------------------------------------

    /// A slice-backed source that additionally advertises
    /// `SORTED|DISTINCT`, to observe the stages dropping them.
    struct SortedSource(SliceSpliterator<i64>);

    impl ItemSource<i64> for SortedSource {
        fn try_advance(&mut self, action: &mut dyn FnMut(i64)) -> bool {
            self.0.try_advance(action)
        }

        fn estimate_size(&self) -> usize {
            self.0.estimate_size()
        }
    }

    impl LeafAccess<i64> for SortedSource {}

    impl Spliterator<i64> for SortedSource {
        fn try_split(&mut self) -> Option<Self> {
            self.0.try_split().map(SortedSource)
        }

        fn characteristics(&self) -> Characteristics {
            self.0.characteristics()
                | Characteristics::SORTED
                | Characteristics::DISTINCT
                | Characteristics::POWER2
        }
    }

    fn sorted_source() -> SortedSource {
        SortedSource(SliceSpliterator::new(vec![1, 2, 3, 4]))
    }

    const STRUCTURAL: Characteristics = Characteristics::SIZED;

    #[test]
    fn characteristics_matrix_adapter_and_fused_agree() {
        let base = sorted_source().characteristics();
        assert!(base.contains(
            Characteristics::SORTED
                | Characteristics::DISTINCT
                | Characteristics::POWER2
                | Characteristics::SIZED
                | Characteristics::SUBSIZED
        ));

        // map: drops SORTED|DISTINCT, keeps SIZED|SUBSIZED|POWER2.
        let c = FusedSpliterator::new(sorted_source(), MapStage::new(IdentityStage, |x: i64| -x))
            .characteristics();
        assert!(!c.contains(Characteristics::SORTED), "{c:?}");
        assert!(!c.contains(Characteristics::DISTINCT), "{c:?}");
        assert!(c.contains(
            Characteristics::SIZED | Characteristics::SUBSIZED | Characteristics::POWER2
        ));
        assert!(c.contains(STRUCTURAL));

        // filter: drops SIZED|SUBSIZED|POWER2, keeps the rest.
        let c = FusedSpliterator::new(
            sorted_source(),
            FilterStage::new(IdentityStage, |_: &i64| true),
        )
        .characteristics();
        assert!(!c.contains(Characteristics::SIZED), "{c:?}");
        assert!(!c.contains(Characteristics::SUBSIZED), "{c:?}");
        assert!(!c.contains(Characteristics::POWER2), "{c:?}");
        assert!(c.contains(Characteristics::SORTED | Characteristics::DISTINCT));
        assert!(c.contains(Characteristics::ORDERED));

        // map ∘ filter chain: union of both drops.
        let chain = FilterStage::new(MapStage::new(IdentityStage, |x: i64| -x), |_: &i64| true);
        let c = FusedSpliterator::new(sorted_source(), chain).characteristics();
        for gone in [
            Characteristics::SORTED,
            Characteristics::DISTINCT,
            Characteristics::SIZED,
            Characteristics::SUBSIZED,
            Characteristics::POWER2,
        ] {
            assert!(!c.contains(gone), "{c:?} must drop {gone:?}");
        }
        assert!(c.contains(Characteristics::ORDERED));

        // inspect (peek) drops nothing.
        let chain = InspectStage::new(IdentityStage, |_: &i64| {});
        let c = FusedSpliterator::new(sorted_source(), chain).characteristics();
        assert_eq!(c, sorted_source().characteristics());
    }

    #[test]
    fn split_clones_chain_and_preserves_characteristics() {
        let chain = MapStage::new(IdentityStage, |x: i64| x * 3);
        let mut s = FusedSpliterator::new(
            ZipSpliterator::over(tabulate(8, |i| i as i64).unwrap()),
            chain,
        );
        let before = s.characteristics();
        let mut prefix = s.try_split().unwrap();
        // Both halves of an 8-element zip are 4-element zips: the split
        // prefix carries the same chain and the same characteristics.
        assert_eq!(prefix.characteristics(), before);
        assert_eq!(drain(&mut prefix), vec![0, 6, 12, 18]);
        assert_eq!(drain(&mut s), vec![3, 9, 15, 21]);
    }
}
