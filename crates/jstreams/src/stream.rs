//! The `Stream` pipeline type.
//!
//! A [`Stream`] couples a [`Spliterator`] source with an execution mode
//! (sequential / parallel, pool, leaf granularity) and offers the familiar
//! operation set: `map` / `filter` intermediates, `collect` / `reduce` /
//! `count` / `for_each` terminals. [`stream_support`] mirrors
//! `StreamSupport.stream(spliterator, parallel)` — the way the paper
//! creates a stream from a specialised spliterator.

use crate::collect::try_collect_with;
use crate::collector::{
    Collector, CountCollector, ExtremumCollector, ReduceCollector, VecCollector,
};
use crate::exec::{finish_infallible, ExecConfig, ExecError, ExecMode};
use crate::fused::{FilterStage, FusePipe, FusedSpliterator, InspectStage, MapStage};
use crate::search;
use crate::spliterator::Spliterator;
use crate::truncate::{LimitSpliterator, SkipSpliterator};
use forkjoin::{ForkJoinPool, SplitPolicy};
use std::sync::Arc;

/// The `for_each` terminal as a collector: side-effect-only
/// accumulation with unit state, shared by the infallible and fallible
/// entry points.
struct ForEach<F>(F);

impl<T, F: Fn(T) + Send + Sync> Collector<T> for ForEach<F> {
    type Acc = ();
    type Out = ();
    fn supplier(&self) {}
    fn accumulate(&self, _: &mut (), item: T) {
        (self.0)(item)
    }
    fn combine(&self, _: (), _: ()) {}
    fn finish(&self, _: ()) {}
}

/// A (possibly parallel) stream over a splittable source.
///
/// The execution knobs (mode, pool, split policy) are held as one
/// [`ExecConfig`]; the historical per-knob builders delegate to it, and
/// [`Stream::try_collect`] exposes the full fault-tolerant surface
/// (panic containment, cancellation, deadlines, graceful degradation).
pub struct Stream<T, S: Spliterator<T>> {
    source: S,
    cfg: ExecConfig,
    _marker: std::marker::PhantomData<fn() -> T>,
}

/// Creates a stream from a spliterator — `StreamSupport.stream(sp, par)`.
pub fn stream_support<T, S: Spliterator<T>>(spliterator: S, parallel: bool) -> Stream<T, S> {
    Stream {
        source: spliterator,
        cfg: if parallel {
            ExecConfig::par()
        } else {
            ExecConfig::seq()
        },
        _marker: std::marker::PhantomData,
    }
}

impl<T, S> Stream<T, S>
where
    T: Send + 'static,
    S: Spliterator<T> + 'static,
{
    /// Switches to sequential execution (Java's `sequential()`).
    pub fn sequential(mut self) -> Self {
        self.cfg = self.cfg.with_mode(ExecMode::Seq);
        self
    }

    /// Switches to parallel execution (Java's `parallel()`).
    pub fn parallel(mut self) -> Self {
        self.cfg = self.cfg.with_mode(ExecMode::Par);
        self
    }

    /// `true` when terminal operations will run in parallel.
    pub fn is_parallel(&self) -> bool {
        self.cfg.mode() == ExecMode::Par
    }

    /// Pins parallel execution to a specific pool (default: the global
    /// pool), like running a Java stream inside `pool.submit(...)`.
    pub fn with_pool(mut self, pool: Arc<ForkJoinPool>) -> Self {
        self.cfg = self.cfg.with_pool(pool);
        self
    }

    /// Overrides the leaf granularity (default: `len / (4 × workers)`)
    /// with a static threshold — shorthand for
    /// [`Stream::with_split_policy`] and [`SplitPolicy::Fixed`].
    pub fn with_leaf_size(mut self, leaf_size: usize) -> Self {
        self.cfg = self.cfg.with_leaf_size(leaf_size);
        self
    }

    /// Selects how the parallel collect decides to split: the static
    /// [`SplitPolicy::Fixed`] threshold (the paper-faithful default) or
    /// demand-driven [`SplitPolicy::Adaptive`] splitting from pool
    /// pressure.
    pub fn with_split_policy(mut self, policy: SplitPolicy) -> Self {
        self.cfg = self.cfg.with_split_policy(policy);
        self
    }

    /// Enables or disables the destination-passing placement collect
    /// route (default: enabled) — shorthand for
    /// [`ExecConfig::with_placement`].
    pub fn with_placement(mut self, enabled: bool) -> Self {
        self.cfg = self.cfg.with_placement(enabled);
        self
    }

    /// Attaches a shared [`pltune::PlanCache`] so the parallel collect
    /// resolves its split policy from calibrated plans: first sight of
    /// a pipeline shape runs a short candidate sweep and installs the
    /// winner; later sights (and later runs, if the cache is persisted)
    /// reuse it. An explicit [`Stream::with_split_policy`] /
    /// [`Stream::with_leaf_size`] always takes precedence — shorthand
    /// for [`ExecConfig::auto_tune`].
    pub fn with_auto_tuning(mut self, cache: Arc<pltune::PlanCache>) -> Self {
        self.cfg = self.cfg.auto_tune(cache);
        self
    }

    /// Replaces the stream's entire execution configuration at once.
    pub fn with_exec_config(mut self, cfg: ExecConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The stream's current execution configuration.
    pub fn exec_config(&self) -> &ExecConfig {
        &self.cfg
    }

    /// Direct access to the source spliterator's characteristics.
    pub fn characteristics(&self) -> crate::Characteristics {
        self.source.characteristics()
    }

    /// Exact/estimated element count of the source.
    pub fn estimate_size(&self) -> usize {
        self.source.estimate_size()
    }

    /// The element count when the source is `SIZED` (so its estimate is
    /// exact), `None` when the estimate is only an upper bound — e.g.
    /// after a `filter`. Mirrors
    /// [`Spliterator::exact_size`].
    pub fn exact_size(&self) -> Option<usize> {
        self.source.exact_size()
    }

    /// Dismantles the stream into its source spliterator, discarding
    /// the execution configuration — the inverse of [`stream_support`].
    /// Useful for handing a built-up fused pipeline to machinery that
    /// works on spliterators directly (e.g. the [`crate::search`] free
    /// functions).
    pub fn into_spliterator(self) -> S {
        self.source
    }

    /// Lazy element transformation (intermediate operation). Drops the
    /// `SORTED`/`DISTINCT` characteristics (a non-monotone,
    /// non-injective map breaks both) while keeping
    /// `SIZED|SUBSIZED|POWER2`.
    ///
    /// Builds onto the stream's *fused chain* — repeated `map`/`filter`
    /// calls extend one [`FusedSpliterator`] over the untouched source,
    /// so leaves can still take the zero-copy fused-borrow route
    /// (DESIGN.md §10) instead of the per-element cloning drain.
    #[allow(clippy::type_complexity)]
    pub fn map<U, F>(
        self,
        f: F,
    ) -> Stream<U, FusedSpliterator<S::Base, S::Src, MapStage<S::Chain, F, T>, U>>
    where
        S: FusePipe<T>,
        U: Send + 'static,
        F: Fn(T) -> U + Send + Sync + 'static,
    {
        let (src, chain) = self.source.decompose();
        Stream {
            source: FusedSpliterator::new(src, MapStage::new(chain, f)),
            cfg: self.cfg,
            _marker: std::marker::PhantomData,
        }
    }

    /// Lazy element filtering (intermediate operation). Drops the
    /// `POWER2`/`SIZED`/`SUBSIZED` characteristics, so the result no
    /// longer accepts PowerList collects. Extends the fused chain like
    /// [`Stream::map`].
    #[allow(clippy::type_complexity)]
    pub fn filter<P>(
        self,
        pred: P,
    ) -> Stream<T, FusedSpliterator<S::Base, S::Src, FilterStage<S::Chain, P>, T>>
    where
        S: FusePipe<T>,
        P: Fn(&T) -> bool + Send + Sync + 'static,
    {
        let (src, chain) = self.source.decompose();
        Stream {
            source: FusedSpliterator::new(src, FilterStage::new(chain, pred)),
            cfg: self.cfg,
            _marker: std::marker::PhantomData,
        }
    }

    /// Truncates the stream to its first `n` elements (Java's
    /// `limit`). Drops the `POWER2` characteristic.
    pub fn limit(self, n: usize) -> Stream<T, LimitSpliterator<S>> {
        Stream {
            source: LimitSpliterator::new(self.source, n),
            cfg: self.cfg,
            _marker: std::marker::PhantomData,
        }
    }

    /// Drops the first `n` elements (Java's `skip`). Drops the `POWER2`
    /// characteristic.
    pub fn skip(self, n: usize) -> Stream<T, SkipSpliterator<S>> {
        Stream {
            source: SkipSpliterator::new(self.source, n),
            cfg: self.cfg,
            _marker: std::marker::PhantomData,
        }
    }

    /// Observes each element as it flows past (Java's `peek`). The
    /// observer may run concurrently on a parallel stream. Drops no
    /// characteristics; extends the fused chain like [`Stream::map`].
    #[allow(clippy::type_complexity)]
    pub fn peek<F>(
        self,
        observer: F,
    ) -> Stream<T, FusedSpliterator<S::Base, S::Src, InspectStage<S::Chain, F>, T>>
    where
        S: FusePipe<T>,
        F: Fn(&T) + Send + Sync + 'static,
    {
        let (src, chain) = self.source.decompose();
        Stream {
            source: FusedSpliterator::new(src, InspectStage::new(chain, observer)),
            cfg: self.cfg,
            _marker: std::marker::PhantomData,
        }
    }

    /// Terminal: the minimum element under `Ord`, or `None` on an empty
    /// stream. Infallible shim over [`Stream::try_min`].
    pub fn min(self) -> Option<T>
    where
        T: Ord + Clone + Sync,
    {
        let cfg = self.cfg.clone();
        finish_infallible(self.try_min(&cfg), "min")
    }

    /// Terminal: the fallible minimum — [`Stream::min`] with the full
    /// [`ExecConfig`] surface (cancellation, deadlines, degradation).
    pub fn try_min(self, cfg: &ExecConfig) -> Result<Option<T>, ExecError>
    where
        T: Ord + Clone + Sync,
    {
        self.try_collect(ExtremumCollector::min(), cfg)
    }

    /// Terminal: the maximum element under `Ord`, or `None` on an empty
    /// stream. Infallible shim over [`Stream::try_max`].
    pub fn max(self) -> Option<T>
    where
        T: Ord + Clone + Sync,
    {
        let cfg = self.cfg.clone();
        finish_infallible(self.try_max(&cfg), "max")
    }

    /// Terminal: the fallible maximum — [`Stream::max`] with the full
    /// [`ExecConfig`] surface.
    pub fn try_max(self, cfg: &ExecConfig) -> Result<Option<T>, ExecError>
    where
        T: Ord + Clone + Sync,
    {
        self.try_collect(ExtremumCollector::max(), cfg)
    }

    /// Terminal: runs the full mutable reduction described by
    /// `collector` — the template method of the PowerList adaptation.
    ///
    /// Infallible shim over [`Stream::try_collect`] with the stream's
    /// own config: a contained panic is resumed on the caller, so
    /// behaviour matches the pre-session API; any other failure mode
    /// (cancellation, deadline) panics with a pointer at the fallible
    /// entry point, which is the only way to opt into those.
    pub fn collect<C>(self, collector: C) -> C::Out
    where
        C: Collector<T> + 'static,
        C::Acc: 'static,
    {
        let cfg = self.cfg.clone();
        finish_infallible(self.try_collect(collector, &cfg), "collect")
    }

    /// Terminal: the fallible mutable reduction. Runs under `cfg` —
    /// which replaces the stream's own configuration wholesale, so one
    /// stream can be driven with different pools, deadlines or cancel
    /// tokens per call — and returns the collector's output, or an
    /// [`ExecError`] describing why the run stopped: a contained user
    /// panic, a tripped [`CancelToken`](forkjoin::CancelToken), or an
    /// expired deadline.
    pub fn try_collect<C>(self, collector: C, cfg: &ExecConfig) -> Result<C::Out, ExecError>
    where
        C: Collector<T> + 'static,
        C::Acc: 'static,
    {
        try_collect_with(self.source, collector, cfg)
    }

    /// Terminal: reduction with an identity and an associative operator.
    /// Infallible shim over [`Stream::try_reduce`].
    pub fn reduce<Op>(self, identity: T, op: Op) -> T
    where
        T: Clone + Sync,
        Op: Fn(T, T) -> T + Send + Sync + 'static,
    {
        let cfg = self.cfg.clone();
        finish_infallible(self.try_reduce(identity, op, &cfg), "reduce")
    }

    /// Terminal: the fallible reduction — [`Stream::reduce`] with the
    /// full [`ExecConfig`] surface.
    pub fn try_reduce<Op>(self, identity: T, op: Op, cfg: &ExecConfig) -> Result<T, ExecError>
    where
        T: Clone + Sync,
        Op: Fn(T, T) -> T + Send + Sync + 'static,
    {
        self.try_collect(ReduceCollector::new(identity, op), cfg)
    }

    /// Terminal: number of elements. Infallible shim over
    /// [`Stream::try_count`].
    pub fn count(self) -> usize {
        let cfg = self.cfg.clone();
        finish_infallible(self.try_count(&cfg), "count")
    }

    /// Terminal: the fallible element count.
    pub fn try_count(self, cfg: &ExecConfig) -> Result<usize, ExecError> {
        self.try_collect(CountCollector, cfg)
    }

    /// Terminal: gathers the elements into a vector (encounter order).
    /// Infallible shim over [`Stream::try_to_vec`].
    pub fn to_vec(self) -> Vec<T>
    where
        T: Clone,
    {
        let cfg = self.cfg.clone();
        finish_infallible(self.try_to_vec(&cfg), "to_vec")
    }

    /// Terminal: the fallible vector collect.
    pub fn try_to_vec(self, cfg: &ExecConfig) -> Result<Vec<T>, ExecError>
    where
        T: Clone,
    {
        self.try_collect(VecCollector, cfg)
    }

    /// Terminal: applies `f` to every element. Runs through the collect
    /// machinery so parallel streams fan out; `f` must therefore be
    /// shareable. Infallible shim over [`Stream::try_for_each`].
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Send + Sync + 'static,
    {
        let cfg = self.cfg.clone();
        finish_infallible(self.try_for_each(f, &cfg), "for_each")
    }

    /// Terminal: the fallible `for_each` — a panicking `f` is contained
    /// and reported as [`ExecError::Panicked`]; cancellation and
    /// deadlines stop the traversal early (some elements may have been
    /// visited).
    pub fn try_for_each<F>(self, f: F, cfg: &ExecConfig) -> Result<(), ExecError>
    where
        F: Fn(T) + Send + Sync + 'static,
    {
        self.try_collect(ForEach(f), cfg)
    }

    /// Short-circuiting terminal: `true` iff some element satisfies
    /// `pred` (Java's `anyMatch`). The first hit trips the run's
    /// internal `Found` cancellation, so sibling subtrees stop at their
    /// next checkpoint instead of draining — see DESIGN.md §12.
    ///
    /// Speculation: leaves scan in chunks of 256 elements, so `pred` and
    /// the pipeline's `map`/`filter` closures may run on up to 255
    /// elements past the hit, and twice on the elements of one chunk
    /// per leaf — sequential searches included, unlike Java's
    /// sequential streams, which evaluate nothing past the hit. They
    /// must be pure; a panic there surfaces as [`ExecError::Panicked`],
    /// never as a wrong answer. `peek` observers never run
    /// speculatively (DESIGN.md §10).
    /// Infallible shim over [`Stream::try_any_match`].
    pub fn any_match<P>(self, pred: P) -> bool
    where
        P: Fn(&T) -> bool + Send + Sync + 'static,
    {
        let cfg = self.cfg.clone();
        finish_infallible(self.try_any_match(pred, &cfg), "any_match")
    }

    /// Short-circuiting terminal: the fallible `any_match`. A panicking
    /// predicate is contained ([`ExecError::Panicked`]); the caller's
    /// cancel token and deadline are observed at every checkpoint, while
    /// the `Found` short-circuit stays on a run-private token.
    pub fn try_any_match<P>(self, pred: P, cfg: &ExecConfig) -> Result<bool, ExecError>
    where
        P: Fn(&T) -> bool + Send + Sync + 'static,
    {
        search::try_any_match_with(self.source, pred, cfg)
    }

    /// Short-circuiting terminal: `true` iff every element satisfies
    /// `pred` (Java's `allMatch`; vacuously true when empty). One
    /// counterexample short-circuits. Infallible shim over
    /// [`Stream::try_all_match`].
    pub fn all_match<P>(self, pred: P) -> bool
    where
        P: Fn(&T) -> bool + Send + Sync + 'static,
    {
        let cfg = self.cfg.clone();
        finish_infallible(self.try_all_match(pred, &cfg), "all_match")
    }

    /// Short-circuiting terminal: the fallible `all_match`.
    pub fn try_all_match<P>(self, pred: P, cfg: &ExecConfig) -> Result<bool, ExecError>
    where
        P: Fn(&T) -> bool + Send + Sync + 'static,
    {
        search::try_all_match_with(self.source, pred, cfg)
    }

    /// Short-circuiting terminal: `true` iff no element satisfies
    /// `pred` (Java's `noneMatch`; vacuously true when empty).
    /// Infallible shim over [`Stream::try_none_match`].
    pub fn none_match<P>(self, pred: P) -> bool
    where
        P: Fn(&T) -> bool + Send + Sync + 'static,
    {
        let cfg = self.cfg.clone();
        finish_infallible(self.try_none_match(pred, &cfg), "none_match")
    }

    /// Short-circuiting terminal: the fallible `none_match`.
    pub fn try_none_match<P>(self, pred: P, cfg: &ExecConfig) -> Result<bool, ExecError>
    where
        P: Fn(&T) -> bool + Send + Sync + 'static,
    {
        search::try_none_match_with(self.source, pred, cfg)
    }

    /// Short-circuiting terminal: the first element in encounter order
    /// (Java's `findFirst`), deterministic under every execution mode
    /// and split geometry — sources with interleaving splits (zip
    /// decomposition) are ordered by their exact encounter ranks, and
    /// when a filter has erased those, the driver degrades to a
    /// sequential encounter-order scan rather than risk a misordered
    /// answer. Combine with `filter` to search: `.filter(p).find_first()`
    /// runs the predicate over borrowed source runs and prunes subtrees
    /// that sit past the best hit so far.
    ///
    /// Speculation: the same rule as [`Stream::any_match`] — the
    /// pipeline's `map`/`filter` closures may run on up to 255 elements
    /// past the hit (one 256-element scan chunk), sequential searches
    /// included, and twice on the elements of one chunk per leaf, so
    /// they must be pure; a panic there surfaces as
    /// [`ExecError::Panicked`], never as a wrong answer. Infallible shim
    /// over [`Stream::try_find_first`].
    pub fn find_first(self) -> Option<T>
    where
        T: Clone,
    {
        let cfg = self.cfg.clone();
        finish_infallible(self.try_find_first(&cfg), "find_first")
    }

    /// Short-circuiting terminal: the fallible `find_first`.
    pub fn try_find_first(self, cfg: &ExecConfig) -> Result<Option<T>, ExecError>
    where
        T: Clone,
    {
        search::try_find_first_with(self.source, cfg)
    }

    /// Short-circuiting terminal: some element of the stream (Java's
    /// `findAny`) — first-hit-wins, so which element you get is
    /// schedule-dependent on a parallel stream, in exchange for the
    /// strongest short-circuit (the first hit anywhere cancels all
    /// remaining work). Infallible shim over [`Stream::try_find_any`].
    pub fn find_any(self) -> Option<T>
    where
        T: Clone,
    {
        let cfg = self.cfg.clone();
        finish_infallible(self.try_find_any(&cfg), "find_any")
    }

    /// Short-circuiting terminal: the fallible `find_any`.
    pub fn try_find_any(self, cfg: &ExecConfig) -> Result<Option<T>, ExecError>
    where
        T: Clone,
    {
        search::try_find_any_with(self.source, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spliterator::SliceSpliterator;
    use crate::zip::ZipSpliterator;
    use crate::Characteristics;
    use powerlist::tabulate;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn ints(n: usize) -> SliceSpliterator<i64> {
        SliceSpliterator::new((0..n as i64).collect())
    }

    #[test]
    fn sequential_to_vec() {
        let _serial = crate::test_serial::shared();
        let v = stream_support(ints(10), false).to_vec();
        assert_eq!(v, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_to_vec_ordered() {
        let _serial = crate::test_serial::shared();
        let v = stream_support(ints(500), true).to_vec();
        assert_eq!(v, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn map_filter_reduce_pipeline() {
        let _serial = crate::test_serial::shared();
        let r = stream_support(ints(100), true)
            .map(|x| x * 2)
            .filter(|x| x % 4 == 0)
            .reduce(0, |a, b| a + b);
        // doubles of 0..100 divisible by 4 = 0,4,8,...,196 → sum = 4900
        assert_eq!(r, 4900);
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let _serial = crate::test_serial::shared();
        let seq = stream_support(ints(1000), false)
            .map(|x| x * x % 7)
            .reduce(0, |a, b| a + b);
        let par = stream_support(ints(1000), true)
            .map(|x| x * x % 7)
            .reduce(0, |a, b| a + b);
        assert_eq!(seq, par);
    }

    #[test]
    fn count_after_filter() {
        let _serial = crate::test_serial::shared();
        let c = stream_support(ints(100), true)
            .filter(|x| x % 3 == 0)
            .count();
        assert_eq!(c, 34);
    }

    #[test]
    fn for_each_visits_everything() {
        let _serial = crate::test_serial::shared();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        stream_support(ints(256), true).for_each(move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 256);
    }

    #[test]
    fn mode_toggles() {
        let _serial = crate::test_serial::shared();
        let s = stream_support(ints(4), false);
        assert!(!s.is_parallel());
        let s = s.parallel();
        assert!(s.is_parallel());
        let s = s.sequential();
        assert!(!s.is_parallel());
    }

    #[test]
    fn pinned_pool_is_used() {
        let _serial = crate::test_serial::shared();
        let pool = Arc::new(ForkJoinPool::new(2));
        let before = pool.metrics();
        let v = stream_support(ints(512), true)
            .with_pool(Arc::clone(&pool))
            .with_leaf_size(16)
            .to_vec();
        assert_eq!(v.len(), 512);
        let after = pool.metrics().since(&before);
        assert!(after.executed > 0, "work must run on the pinned pool");
    }

    #[test]
    fn limit_and_skip_pipeline() {
        let _serial = crate::test_serial::shared();
        let v = stream_support(ints(100), true).skip(10).limit(5).to_vec();
        assert_eq!(v, vec![10, 11, 12, 13, 14]);
        let v = stream_support(ints(100), false).limit(3).to_vec();
        assert_eq!(v, vec![0, 1, 2]);
    }

    #[test]
    fn peek_counts_elements() {
        let _serial = crate::test_serial::shared();
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        let v = stream_support(ints(64), true)
            .peek(move |_| {
                n2.fetch_add(1, Ordering::Relaxed);
            })
            .to_vec();
        assert_eq!(v.len(), 64);
        assert_eq!(n.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn min_max_terminals() {
        let _serial = crate::test_serial::shared();
        assert_eq!(stream_support(ints(100), true).min(), Some(0));
        assert_eq!(stream_support(ints(100), true).max(), Some(99));
        // Empty after an over-aggressive skip:
        assert_eq!(stream_support(ints(4), true).skip(10).min(), None);
        // After filtering:
        let m = stream_support(ints(100), true).filter(|x| x % 7 == 0).max();
        assert_eq!(m, Some(98));
    }

    #[test]
    fn adaptive_policy_agrees_with_fixed() {
        let _serial = crate::test_serial::shared();
        let fixed = stream_support(ints(1000), true)
            .with_leaf_size(16)
            .map(|x| x * 3)
            .reduce(0, |a, b| a + b);
        let adaptive = stream_support(ints(1000), true)
            .with_split_policy(SplitPolicy::adaptive())
            .map(|x| x * 3)
            .reduce(0, |a, b| a + b);
        assert_eq!(fixed, adaptive);
    }

    #[test]
    fn try_collect_uses_passed_config() {
        let _serial = crate::test_serial::shared();
        // The passed config replaces the stream's own (parallel) one.
        let sum = stream_support(ints(100), true)
            .map(|x| x + 1)
            .try_collect(ReduceCollector::new(0, |a, b| a + b), &ExecConfig::seq())
            .unwrap();
        assert_eq!(sum, 5050);
    }

    #[test]
    fn with_exec_config_replaces_knobs() {
        let _serial = crate::test_serial::shared();
        let s = stream_support(ints(8), true).with_exec_config(ExecConfig::seq());
        assert!(!s.is_parallel());
        let s = s.parallel();
        assert!(s.is_parallel());
        assert!(s.exec_config().pool().is_none());
    }

    #[test]
    fn with_auto_tuning_threads_the_cache_through_collects() {
        let _serial = crate::test_serial::exclusive();
        // One shared cache across two stream runs of the same pipeline
        // shape: the first calibrates, the second hits. A fused
        // map-over-slice pipeline exercises the fingerprint's adapter
        // summary.
        let cache = Arc::new(pltune::PlanCache::new());
        let run = |cache: Arc<pltune::PlanCache>| {
            stream_support(ints(2048), true)
                .with_auto_tuning(cache)
                .map(|x| x * 2)
                .reduce(0, |a, b| a + b)
        };
        let (sums, report) = plobs::recorded(|| (run(Arc::clone(&cache)), run(Arc::clone(&cache))));
        assert_eq!(sums.0, sums.1);
        assert_eq!(report.tune_calibrations, 1);
        assert_eq!(report.tune_hits, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn power2_characteristic_flows_through_map() {
        let _serial = crate::test_serial::shared();
        let z = ZipSpliterator::over(tabulate(8, |i| i as i64).unwrap());
        let s = stream_support(z, true).map(|x| x + 1);
        assert!(s.characteristics().contains(Characteristics::POWER2));
        assert_eq!(s.estimate_size(), 8);
        let s2 = s.filter(|_| true);
        assert!(!s2.characteristics().contains(Characteristics::POWER2));
    }
}
