//! The `collect` template method: the divide-and-conquer driver.
//!
//! This is the execution skeleton of the adaptation (paper, Section IV):
//! the spliterator directs the **descending/splitting phase**, the
//! collector's supplier+accumulator (or specialised `leaf`) implement the
//! **leaf phase**, and the combiner implements the **ascending/combining
//! phase**. The parallel route describes both as a subtree protocol for
//! the split-tree walker ([`crate::walk`]), which runs the two halves of
//! every split with [`forkjoin::join`], exactly as Java's `ForkJoinPool`
//! executes the stream's computation tree.
//!
//! Where the splitting stops is a [`SplitPolicy`] — the explicit
//! analogue of the JVM's implementation-defined granularity ("the
//! splitting is automatically stopped when a limit that depends on the
//! system is attained", Section V). [`SplitPolicy::Fixed`] reproduces
//! the static `leaf_size` threshold (and therefore the paper's tree
//! shapes exactly); [`SplitPolicy::Adaptive`] splits on demand from
//! pool pressure. The size-based stop only applies to sources that
//! advertise `SIZED`: for adapted sources whose estimate is an upper
//! bound (e.g. after `filter`), both policies descend to the depth cap
//! and let `try_split` refusal terminate instead — otherwise an
//! oversized "leaf" would silently serialize real work.
//!
//! Every entry point funnels through one **fallible driver**,
//! [`try_collect_with`], which executes under an [`ExecSession`]: user
//! code (leaves, combiners, the finisher) runs under panic containment,
//! and cooperative checkpoints at split, leaf-entry and combine points
//! observe cancellation and deadlines. The infallible
//! [`Stream::collect`](crate::stream::Stream::collect) is a shim that
//! resumes a contained panic on the caller.

use crate::characteristics::Characteristics;
use crate::collector::Collector;
use crate::exec::{ExecConfig, ExecError, ExecMode, ExecSession};
use crate::placement::{descend, fixed_leaves, OutputBuffer, PlacementSpec, Window, WindowRule};
use crate::spliterator::{ItemSource, Spliterator};
use crate::walk::{self, Combine, Terminal};
use forkjoin::{ForkJoinPool, SplitPolicy};
use plobs::{Event, LeafRoute};
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

/// Wraps an [`ItemSource`] to count the elements actually delivered to
/// the consuming collector — the only correct `items` figure for a leaf
/// of a non-SIZED pipeline, where `estimate_size` is an upper bound.
/// Only used while an observability sink is installed.
struct CountingSource<'a, T> {
    inner: &'a mut dyn ItemSource<T>,
    count: u64,
}

impl<T> ItemSource<T> for CountingSource<'_, T> {
    fn try_advance(&mut self, action: &mut dyn FnMut(T)) -> bool {
        let count = &mut self.count;
        self.inner.try_advance(&mut |x| {
            *count += 1;
            action(x);
        })
    }

    fn for_each_remaining(&mut self, action: &mut dyn FnMut(T)) {
        let count = &mut self.count;
        self.inner.for_each_remaining(&mut |x| {
            *count += 1;
            action(x);
        });
    }

    fn estimate_size(&self) -> usize {
        self.inner.estimate_size()
    }
}

/// Runs one leaf through the zero-copy path when both sides support it:
/// if the source exposes a borrowed strided run
/// ([`LeafAccess`](crate::spliterator::LeafAccess)) *and* the
/// collector has a matching kernel ([`Collector::leaf_strided`]), the
/// leaf is computed directly over the borrow and the source marked
/// drained; failing that, a fused adapter pipeline may take the
/// fused-borrow route
/// ([`LeafAccess::fused_leaf`](crate::spliterator::LeafAccess::fused_leaf)),
/// driving its chain over the *underlying* source's borrow; otherwise
/// the cloning drain ([`Collector::leaf`]) runs as before.
///
/// When an observability sink is installed (`plobs`), every leaf emits
/// one [`Event::Leaf`] tagged with the route taken; timing and size
/// queries are skipped entirely when no sink is listening.
pub fn run_leaf<T, S, C>(source: &mut S, collector: &C) -> C::Acc
where
    S: Spliterator<T>,
    C: Collector<T> + ?Sized,
{
    let observe = plobs::enabled();
    let start = if observe { Some(Instant::now()) } else { None };
    let done = source.try_as_strided().and_then(|(items, step)| {
        // Strided-run contract: the last element of `items` is covered,
        // so the leaf spans ceil(len / step) elements.
        let n = items.len().div_ceil(step) as u64;
        collector
            .leaf_strided(items, step)
            .map(|acc| (acc, LeafRoute::ZeroCopy, n))
    });
    // Fused-borrow route: a fused adapter pipeline exposes no borrowed
    // run of *transformed* elements, but can drive its chain over the
    // underlying source's borrow; `n` counts what reached the
    // accumulator (survivors, for filtering chains).
    let done = done.or_else(|| {
        source
            .fused_leaf(collector)
            .map(|(acc, n)| (acc, LeafRoute::FusedBorrow, n))
    });
    let (acc, route, items) = match done {
        Some((acc, route, n)) => {
            source.mark_drained();
            (acc, route, n)
        }
        // Cloning drain: the borrow length is not available, and for
        // non-SIZED sources `estimate_size` is only an upper bound — so
        // count what the collector actually receives (observed runs
        // only; the unobserved path stays wrapper-free).
        None if observe => {
            let mut counting = CountingSource {
                inner: source,
                count: 0,
            };
            let acc = collector.leaf(&mut counting);
            let n = counting.count;
            (acc, LeafRoute::CloningDrain, n)
        }
        None => (collector.leaf(source), LeafRoute::CloningDrain, 0),
    };
    if let Some(start) = start {
        plobs::emit(Event::Leaf {
            route,
            items,
            ns: start.elapsed().as_nanos() as u64,
        });
    }
    acc
}

/// Chooses a leaf granularity for a source of `len` elements on a pool of
/// `threads` workers: enough leaves for load balance (~4 per worker, the
/// ForkJoinPool heuristic), but never below 1.
pub fn default_leaf_size(len: usize, threads: usize) -> usize {
    (len / (4 * threads.max(1))).max(1)
}

/// The splice route's default leaf size for `source` on `threads`
/// workers, when no explicit or tuned policy applies.
///
/// A source that splits by prefix gets [`default_leaf_size`]. A source
/// whose `try_split` interleaves (`!prefix_splits()`, a zip view's
/// parity split) stops at one leaf per worker, `ceil(len / threads)`,
/// because bytes moved, not balance, set its cost. A parity leaf at
/// stride `2^d` over 8-byte elements touches every 64-byte line of the
/// whole span while `2^d ≤ 8`, so each leaf streams the entire input
/// and a call moves about `leaves × span` bytes: ~4 leaves per worker
/// would read a 32 MiB input 8 times on 2 workers, for a balance that
/// equal-sized parity classes do not need. The placement route keeps
/// [`default_leaf_size`]: its zip→zip cuts are contiguous blocks.
pub(crate) fn splice_leaf_size<T, S: Spliterator<T>>(source: &S, threads: usize) -> usize {
    let len = source.estimate_size();
    if source.prefix_splits() {
        default_leaf_size(len, threads)
    } else {
        len.div_ceil(threads.max(1)).max(1)
    }
}

/// The unified fallible driver behind
/// [`Stream::try_collect`](crate::stream::Stream::try_collect) and every
/// infallible collect.
///
/// Resolution order: `cfg.mode()` picks the route; the parallel route
/// takes `cfg`'s pool (default: the [global pool](forkjoin::global_pool))
/// and split policy (default: [`SplitPolicy::Fixed`] at
/// [`default_leaf_size`], or at one leaf per worker when the splice
/// route walks an interleaving source, see `splice_leaf_size`). Fault
/// handling:
///
/// * a panic in user code is contained at its leaf/combine, trips the
///   session's [`CancelToken`](forkjoin::CancelToken) so siblings
///   short-circuit at their next checkpoint, and surfaces as
///   [`ExecError::Panicked`] — the pool never unwinds and stays
///   reusable;
/// * a tripped caller token surfaces as [`ExecError::Cancelled`], an
///   expired deadline as [`ExecError::DeadlineExceeded`] (worst-case
///   overrun: one leaf, since checkpoints bracket every leaf);
/// * a shut-down pool, or a queued backlog past
///   `cfg.fallback_threshold()`, degrades to the sequential route and
///   records an `Event::Fallback` instead of failing.
pub fn try_collect_with<T, S, C>(
    source: S,
    collector: C,
    cfg: &ExecConfig,
) -> Result<C::Out, ExecError>
where
    T: Send + 'static,
    S: Spliterator<T> + 'static,
    C: Collector<T> + 'static,
    C::Acc: 'static,
    C::Out: 'static,
{
    let session = ExecSession::new(cfg);
    let collector = Arc::new(collector);
    let mut source = source;
    let pool = match cfg.mode() {
        ExecMode::Seq => None,
        ExecMode::Par => {
            let pool = walk::pool_of(cfg);
            match walk::fallback_reason(pool, cfg) {
                Some(reason) => {
                    plobs::emit(Event::Fallback { reason });
                    None
                }
                None => Some(pool),
            }
        }
    };
    let acc = match pool {
        // The guarded sequential route: the whole source as one
        // contained leaf (a placement leaf when eligible).
        None => {
            if let Some(out) = try_placement_single(&mut source, &*collector, cfg, &session) {
                return out;
            }
            session
                .check()
                .and_then(|()| session.run(|| run_leaf(&mut source, &*collector)))
        }
        Some(pool) => {
            let configured =
                walk::configured_policy(cfg, pool, &source, std::any::type_name::<C>());
            let policy = configured.unwrap_or_else(|| {
                SplitPolicy::Fixed(default_leaf_size(source.estimate_size(), pool.threads()))
            });
            // Destination-passing route: when the collector and
            // pipeline are eligible, allocate the output once and write
            // leaves straight into disjoint windows. Non-eligible
            // pipelines fall through to the splice route untouched.
            match try_placement_par(pool, source, &collector, policy, cfg, &session) {
                PlacementOutcome::Done(out) => return out,
                PlacementOutcome::Splice(source) => {
                    let policy = configured.unwrap_or_else(|| {
                        SplitPolicy::Fixed(splice_leaf_size(&source, pool.threads()))
                    });
                    let splice = Splice {
                        collector: Arc::clone(&collector),
                        session: session.clone(),
                        _source: PhantomData,
                    };
                    walk::submit(pool, Arc::new(splice), source, policy)
                }
            }
        }
    };
    match acc {
        Ok(acc) => session
            .run(|| collector.finish(acc))
            .map_err(|i| session.error_of(i)),
        Err(i) => Err(session.error_of(i)),
    }
}

/// The splice route's subtree protocol: a node is a spliterator, leaves
/// run the collector's kernels ([`run_leaf`]) and sibling results merge
/// through its combiner — encounter order is preserved
/// (`combine(left, right)` with `left` the split-off prefix).
struct Splice<T, S, C> {
    collector: Arc<C>,
    session: ExecSession,
    _source: PhantomData<fn(S) -> T>,
}

impl<T, S, C> Terminal for Splice<T, S, C>
where
    T: Send + 'static,
    S: Spliterator<T> + 'static,
    C: Collector<T> + 'static,
    C::Acc: 'static,
{
    type Node = S;
    type Out = C::Acc;
    type Cut = ();
    type Session = ExecSession;
    const COMBINE: Combine = Combine::Merge;

    fn session(&self) -> &ExecSession {
        &self.session
    }

    fn exact_size(&self, source: &S) -> Option<usize> {
        source.exact_size()
    }

    fn split(&self, mut source: S) -> Result<(S, S, ()), S> {
        match source.try_split() {
            Some(prefix) => Ok((prefix, source, ())),
            None => Err(source),
        }
    }

    fn leaf(&self, mut source: S) -> C::Acc {
        run_leaf(&mut source, &*self.collector)
    }

    fn combine(&self, (): (), left: C::Acc, right: C::Acc) -> C::Acc {
        self.collector.combine(left, right)
    }
}

/// What the root placement probe decided for an eligible pipeline.
struct PlacementPlan {
    spec: PlacementSpec,
    /// Exact element count of the source.
    n: usize,
    /// Measured slot count (non-`unit` collectors: joining bytes),
    /// excluding separator slots; `None` for unit collectors.
    measure: Option<usize>,
}

/// The root eligibility gate of the destination-passing route. `None`
/// falls back to the splice route. Eligibility requires:
///
/// * the config allows placement and the collector opts in;
/// * the source is `SIZED | SUBSIZED` with the exact size known and
///   non-zero (windows must stay exactly sized down the whole tree);
/// * the leaves can fill windows without a fallback: the source
///   exposes a borrowed strided run, or an exact (filter-free) fused
///   chain can push-fill
///   ([`LeafAccess::can_fused_fill`](crate::LeafAccess::can_fused_fill));
/// * an interleaving rule gets a power-of-two length (equal halves at
///   every level);
/// * non-`unit` collectors (joining) get a raw borrowed run to
///   measure — an adapter chain would change what is being measured.
fn placement_plan<T, S, C>(source: &S, collector: &C, cfg: &ExecConfig) -> Option<PlacementPlan>
where
    S: Spliterator<T>,
    C: Collector<T> + ?Sized,
{
    if !cfg.placement() {
        return None;
    }
    let spec = collector.placement_spec()?;
    if !source.has_characteristics(Characteristics::SIZED | Characteristics::SUBSIZED) {
        return None;
    }
    let n = source.exact_size()?;
    if n == 0 {
        return None;
    }
    if spec.rule == WindowRule::Interleave && !n.is_power_of_two() {
        return None;
    }
    if spec.unit {
        if source.try_as_strided().is_none() && !source.can_fused_fill() {
            return None;
        }
        Some(PlacementPlan {
            spec,
            n,
            measure: None,
        })
    } else {
        let (items, step) = source.try_as_strided()?;
        let measure = collector.placement_measure(items, step);
        Some(PlacementPlan {
            spec,
            n,
            measure: Some(measure),
        })
    }
}

/// Runs an eligible pipeline as **one** placement leaf over the whole
/// output window — the sequential mode and the saturation/shutdown
/// fallback. A single leaf has no combines, so non-`unit` collectors
/// get no separator slots (matching the splice route, where the
/// sequential leaf kernel never invokes the combiner).
fn try_placement_single<T, S, C>(
    source: &mut S,
    collector: &C,
    cfg: &ExecConfig,
    session: &ExecSession,
) -> Option<Result<C::Out, ExecError>>
where
    S: Spliterator<T>,
    C: Collector<T> + ?Sized,
{
    let plan = placement_plan(source, collector, cfg)?;
    let slots = plan.measure.unwrap_or(plan.n);
    let buf = collector.try_reserve(slots)?;
    let res = session
        .check()
        .and_then(|()| session.run(|| placement_leaf(source, &*buf, Window::root(slots))))
        .and_then(|_| session.run(|| buf.finish()));
    Some(res.map_err(|i| session.error_of(i)))
}

/// Outcome of the parallel placement attempt: either the route ran to
/// completion (or to a contained error), or the pipeline was handed
/// back untouched for the splice route.
enum PlacementOutcome<S, O> {
    Done(Result<O, ExecError>),
    Splice(S),
}

/// Parallel placement gate + driver. Beyond [`placement_plan`], the
/// parallel route needs the root allocation to budget combine-inserted
/// separator slots exactly, which requires the deterministic
/// [`SplitPolicy::Fixed`] tree shape — a `gap > 0` collector under an
/// adaptive policy falls back to splice.
fn try_placement_par<T, S, C>(
    pool: &ForkJoinPool,
    source: S,
    collector: &Arc<C>,
    policy: SplitPolicy,
    cfg: &ExecConfig,
    session: &ExecSession,
) -> PlacementOutcome<S, C::Out>
where
    T: Send + 'static,
    S: Spliterator<T> + 'static,
    C: Collector<T> + 'static,
    C::Out: 'static,
{
    let Some(plan) = placement_plan(&source, &**collector, cfg) else {
        return PlacementOutcome::Splice(source);
    };
    let gap_leaf = if plan.spec.gap == 0 {
        0
    } else {
        match policy {
            SplitPolicy::Fixed(leaf_size) => leaf_size,
            SplitPolicy::Adaptive(_) => return PlacementOutcome::Splice(source),
        }
    };
    let slots = match plan.measure {
        None => plan.n,
        Some(m) => m + (fixed_leaves(plan.n, gap_leaf) - 1) * plan.spec.gap,
    };
    let Some(buf) = collector.try_reserve(slots) else {
        return PlacementOutcome::Splice(source);
    };
    let place = Place {
        collector: Arc::clone(collector),
        buf: Arc::clone(&buf),
        spec: plan.spec,
        gap_leaf,
        session: session.clone(),
        _source: PhantomData,
    };
    let out = match walk::submit(pool, Arc::new(place), (source, Window::root(slots)), policy) {
        Ok(()) => session
            .run(|| buf.finish())
            .map_err(|i| session.error_of(i)),
        Err(i) => Err(session.error_of(i)),
    };
    PlacementOutcome::Done(out)
}

/// Slot count of the left sibling after a split — the descent's input.
/// Interleaving rules always halve; concatenating rules take the left
/// child's element count (unit collectors) or its measured slots plus
/// the separator budget of its own predicted subtree (joining).
fn left_slot_count<T, S, C>(
    prefix: &S,
    collector: &C,
    spec: PlacementSpec,
    gap_leaf: usize,
    w: Window,
) -> usize
where
    S: Spliterator<T>,
    C: Collector<T> + ?Sized,
{
    match spec.rule {
        WindowRule::Interleave => w.len / 2,
        WindowRule::Concat => {
            let m = prefix
                .exact_size()
                .unwrap_or_else(|| prefix.estimate_size());
            if spec.unit {
                m
            } else {
                let (items, step) = prefix
                    .try_as_strided()
                    .expect("placement split lost its strided run");
                let separators = if spec.gap == 0 {
                    0
                } else {
                    (fixed_leaves(m, gap_leaf) - 1) * spec.gap
                };
                collector.placement_measure(items, step) + separators
            }
        }
    }
}

/// One placement leaf: write the leaf's elements straight into its
/// window — via the borrowed strided run when the source has one, via
/// the fused push-fill otherwise — and record the
/// [`LeafRoute::Placement`] event.
fn placement_leaf<T, O, S>(source: &mut S, buf: &dyn OutputBuffer<T, O>, w: Window) -> u64
where
    S: Spliterator<T>,
{
    // Without a strided run the root gate verified `can_fused_fill`,
    // which is stable under splits — a refusal here is a driver bug,
    // and the panic is contained by the session wrapping every leaf.
    const LOST_FILL: &str = "placement leaf lost its borrowed-fill capability";
    let observe = plobs::enabled();
    let start = if observe { Some(Instant::now()) } else { None };
    let wrote = if let Some((items, step)) = source.try_as_strided() {
        buf.fill_run(w, items, step)
    } else if let Some(mut writer) = buf.writer(w) {
        // The typed route: the fused chain pushes straight into the
        // window's slot sink, one monomorphic loop per leaf.
        source.fused_fill(writer.sink(w.len)).expect(LOST_FILL);
        writer.count()
    } else {
        buf.fill_with(w, &mut |sink| {
            source.fused_fill(sink).expect(LOST_FILL);
        })
    };
    source.mark_drained();
    if let Some(start) = start {
        plobs::emit(Event::Leaf {
            route: LeafRoute::Placement,
            items: wrote,
            ns: start.elapsed().as_nanos() as u64,
        });
    }
    wrote
}

/// The placement route's subtree protocol: a node is a spliterator plus
/// its output window. The stop rule, checkpoints and events are the
/// walker's, as for [`Splice`], but leaves write into their window and
/// the ascend phase is the buffer's (constant-size) `combine` instead of
/// a splice.
struct Place<T, S, C: Collector<T>> {
    collector: Arc<C>,
    buf: Arc<dyn OutputBuffer<T, C::Out>>,
    spec: PlacementSpec,
    gap_leaf: usize,
    session: ExecSession,
    _source: PhantomData<fn(S)>,
}

impl<T, S, C> Terminal for Place<T, S, C>
where
    T: Send + 'static,
    S: Spliterator<T> + 'static,
    C: Collector<T> + 'static,
    C::Out: 'static,
{
    type Node = (S, Window);
    type Out = ();
    /// The parent window and its left child's slot count.
    type Cut = (Window, usize);
    type Session = ExecSession;
    const COMBINE: Combine = Combine::Placement;

    fn session(&self) -> &ExecSession {
        &self.session
    }

    fn exact_size(&self, (source, _): &(S, Window)) -> Option<usize> {
        source.exact_size()
    }

    /// The source's cut plus the window bookkeeping (including the
    /// non-unit measure of the left run). Running contained, a violated
    /// window invariant surfaces as `Panicked`, never as an unwind
    /// through the pool.
    fn split(
        &self,
        (mut source, w): (S, Window),
    ) -> Result<((S, Window), (S, Window), (Window, usize)), (S, Window)> {
        let spec = self.spec;
        // Matched zip→zip: the source splits by parity and the collector
        // recombines by interleaving, so the element at encounter rank r
        // lands in slot r whichever way the node is cut. Cutting an
        // encounter-order block (prefix split + `Concat` window) keeps
        // that identity and gives every leaf a contiguous input run and a
        // contiguous output window. A node whose source refuses the block
        // cut (`HookedZipSpliterator`: its hook is defined on parity
        // splits) takes its own split and the collector's rule, as do all
        // mismatched pairings — those are real permutations.
        let block = if spec.rule == WindowRule::Interleave && spec.unit && !source.prefix_splits() {
            source.try_split_prefix()
        } else {
            None
        };
        let rule = if block.is_some() {
            WindowRule::Concat
        } else {
            spec.rule
        };
        let Some(prefix) = block.or_else(|| source.try_split()) else {
            return Err((source, w));
        };
        let node_spec = PlacementSpec { rule, ..spec };
        let left_slots = left_slot_count(&prefix, &*self.collector, node_spec, self.gap_leaf, w);
        let (w_left, w_right) = descend(w, rule, left_slots, spec.gap);
        Ok(((prefix, w_left), (source, w_right), (w, left_slots)))
    }

    fn leaf(&self, (mut source, w): (S, Window)) {
        placement_leaf(&mut source, &*self.buf, w);
    }

    fn combine(&self, (w, left_slots): (Window, usize), (): (), (): ()) {
        self.buf.combine(w, left_slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{CountCollector, JoiningCollector, ReduceCollector, VecCollector};
    use crate::spliterator::SliceSpliterator;
    use crate::stream::stream_support;
    use crate::tie::TieSpliterator;
    use crate::zip::ZipSpliterator;
    use powerlist::tabulate;

    fn pool() -> ForkJoinPool {
        ForkJoinPool::new(3)
    }

    /// Sequential collect on the calling thread.
    fn seq<T, S, C>(s: S, c: C) -> C::Out
    where
        T: Send + 'static,
        S: Spliterator<T> + 'static,
        C: Collector<T> + 'static,
        C::Out: 'static,
    {
        try_collect_with(s, c, &ExecConfig::seq()).unwrap()
    }

    /// Splice collect on a fresh 3-thread pool, splitting to `leaf`.
    fn par<T, S, C>(s: S, c: C, leaf: usize) -> C::Out
    where
        T: Send + 'static,
        S: Spliterator<T> + 'static,
        C: Collector<T> + 'static,
        C::Out: 'static,
    {
        let cfg = ExecConfig::par()
            .with_pool(Arc::new(pool()))
            .with_leaf_size(leaf)
            .with_placement(false);
        try_collect_with(s, c, &cfg).unwrap()
    }

    #[test]
    fn seq_collect_to_vec() {
        let _serial = crate::test_serial::shared();
        let s = SliceSpliterator::new(vec![1, 2, 3, 4, 5]);
        assert_eq!(seq(s, VecCollector), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn par_collect_to_vec_preserves_order() {
        let _serial = crate::test_serial::shared();
        let s = SliceSpliterator::new((0..1000).collect());
        let out = par(s, VecCollector, 16);
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn par_reduce_matches_seq() {
        let _serial = crate::test_serial::shared();
        let data: Vec<i64> = (1..=100).collect();
        let seq = seq(
            SliceSpliterator::new(data.clone()),
            ReduceCollector::new(0, |a, b| a + b),
        );
        let par = par(
            SliceSpliterator::new(data),
            ReduceCollector::new(0, |a, b| a + b),
            8,
        );
        assert_eq!(seq, 5050);
        assert_eq!(par, 5050);
    }

    #[test]
    fn count_collector_parallel() {
        let _serial = crate::test_serial::shared();
        let s = SliceSpliterator::new(vec![0u8; 777]);
        assert_eq!(par(s, CountCollector, 10), 777);
    }

    #[test]
    fn tie_spliterator_vec_collect_is_identity() {
        let _serial = crate::test_serial::shared();
        let list = tabulate(64, |i| i as i32).unwrap();
        let s = TieSpliterator::over(list.clone());
        let out = par(s, VecCollector, 4);
        assert_eq!(out, list.into_vec());
    }

    #[test]
    fn zip_spliterator_with_vec_collector_scrambles() {
        let _serial = crate::test_serial::shared();
        // Deliberate negative test: zip decomposition + concatenating
        // combiner does NOT reconstruct the source (the Section IV.A
        // observation that motivates zipAll). With leaf_size 1 on length
        // 4, concatenating the four residue classes gives the bit-
        // reversal permutation.
        let list = tabulate(4, |i| i).unwrap();
        let s = ZipSpliterator::over(list);
        let out = par(s, VecCollector, 1);
        assert_eq!(out, vec![0, 2, 1, 3]);
    }

    #[test]
    fn joining_collector_separator_at_merges_only() {
        let _serial = crate::test_serial::shared();
        let words: Vec<String> = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
        let s = SliceSpliterator::new(words);
        // leaf_size 1: every word is its own leaf; 3 combines insert 3
        // separators.
        let out = par(s, JoiningCollector::new(","), 1);
        assert_eq!(out, "a,b,c,d");
        // Sequential: no combiner, no separators (paper's remark).
        let s = SliceSpliterator::new(["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect());
        assert_eq!(seq(s, JoiningCollector::new(",")), "abcd");
    }

    #[test]
    fn leaf_size_equal_to_len_is_sequential() {
        let _serial = crate::test_serial::shared();
        let s = SliceSpliterator::new((0..32).collect::<Vec<_>>());
        let out = par(s, VecCollector, 32);
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn default_leaf_size_heuristic() {
        let _serial = crate::test_serial::shared();
        assert_eq!(default_leaf_size(1 << 20, 8), 1 << 15);
        assert_eq!(default_leaf_size(10, 8), 1);
        assert_eq!(default_leaf_size(0, 4), 1);
        assert_eq!(default_leaf_size(100, 0), 25);
    }

    #[test]
    fn singleton_source() {
        let _serial = crate::test_serial::shared();
        let s = SliceSpliterator::new(vec![42]);
        assert_eq!(par(s, VecCollector, 1), vec![42]);
    }

    #[test]
    fn try_collect_happy_paths_match_collect() {
        let _serial = crate::test_serial::shared();
        let data: Vec<i64> = (1..=512).collect();
        let seq = try_collect_with(
            SliceSpliterator::new(data.clone()),
            ReduceCollector::new(0, |a, b| a + b),
            &ExecConfig::seq(),
        )
        .unwrap();
        let par = try_collect_with(
            SliceSpliterator::new(data),
            ReduceCollector::new(0, |a, b| a + b),
            &ExecConfig::par()
                .with_pool(Arc::new(pool()))
                .with_leaf_size(16),
        )
        .unwrap();
        assert_eq!(seq, 512 * 513 / 2);
        assert_eq!(par, seq);
    }

    #[test]
    fn try_collect_contains_panics_as_errors() {
        let _serial = crate::test_serial::shared();
        let p = Arc::new(pool());
        let cfg = ExecConfig::par()
            .with_pool(Arc::clone(&p))
            .with_leaf_size(8);
        let err = try_collect_with(
            SliceSpliterator::new((0..256).collect::<Vec<i32>>()),
            ReduceCollector::new(0, |a, b| {
                if b == 200 {
                    panic!("poison element 200");
                }
                a + b
            }),
            &cfg,
        )
        .unwrap_err();
        assert_eq!(err.panic_message(), Some("poison element 200"));
        // The pool survives the contained panic and runs a clean collect.
        let ok = try_collect_with(
            SliceSpliterator::new((0..256).collect::<Vec<i32>>()),
            ReduceCollector::new(0, |a, b| a + b),
            &cfg,
        )
        .unwrap();
        assert_eq!(ok, 255 * 256 / 2);
    }

    #[test]
    fn try_collect_observes_pre_cancelled_token() {
        let _serial = crate::test_serial::shared();
        let token = forkjoin::CancelToken::new();
        token.cancel(forkjoin::CancelReason::User);
        let err = try_collect_with(
            SliceSpliterator::new((0..64).collect::<Vec<i32>>()),
            VecCollector,
            &ExecConfig::seq().with_cancel_token(token),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::Cancelled));
    }

    #[test]
    fn try_collect_degrades_to_seq_when_pool_is_shut_down() {
        let _serial = crate::test_serial::exclusive();
        let p = Arc::new(pool());
        p.shutdown();
        let cfg = ExecConfig::par().with_pool(p).with_leaf_size(4);
        let (out, report) = plobs::recorded(|| {
            try_collect_with(
                SliceSpliterator::new((0..100i64).collect()),
                ReduceCollector::new(0, |a, b| a + b),
                &cfg,
            )
        });
        assert_eq!(out.unwrap(), 99 * 100 / 2);
        assert_eq!(report.fallbacks_submit, 1);
        assert_eq!(report.splits, 0);
    }

    #[test]
    fn try_collect_degrades_to_seq_when_saturated() {
        let _serial = crate::test_serial::exclusive();
        // Wedge a 1-thread pool behind a gate so its backlog exceeds the
        // configured threshold of 0 at submission time.
        let p = Arc::new(ForkJoinPool::new(1));
        let gate = Arc::new(forkjoin::Latch::new());
        let g = Arc::clone(&gate);
        let entered = Arc::new(forkjoin::Latch::new());
        let e = Arc::clone(&entered);
        let p2 = Arc::clone(&p);
        let blocker = std::thread::spawn(move || {
            p2.install(move || {
                e.set();
                g.wait();
            })
        });
        entered.wait();
        // Park more work behind the wedged worker.
        let p3 = Arc::clone(&p);
        let queued = std::thread::spawn(move || p3.install(|| 1));
        while p.queued_tasks() == 0 {
            std::thread::yield_now();
        }
        let cfg = ExecConfig::par()
            .with_pool(Arc::clone(&p))
            .with_fallback_threshold(0)
            .with_leaf_size(4);
        let (out, report) = plobs::recorded(|| {
            try_collect_with(
                SliceSpliterator::new((0..100i64).collect()),
                ReduceCollector::new(0, |a, b| a + b),
                &cfg,
            )
        });
        assert_eq!(out.unwrap(), 99 * 100 / 2);
        assert_eq!(report.fallbacks_saturated, 1);
        gate.set();
        blocker.join().unwrap();
        assert_eq!(queued.join().unwrap(), 1);
    }

    /// Strips `SIZED | SUBSIZED` from a spliterator, turning its
    /// estimate into an upper bound — the shape of a `filter` chain.
    struct UnsizedUpperBound<S>(S);

    impl<T, S: ItemSource<T>> ItemSource<T> for UnsizedUpperBound<S> {
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

    impl<T, S: Spliterator<T>> crate::spliterator::LeafAccess<T> for UnsizedUpperBound<S> {}

    impl<T, S: Spliterator<T>> Spliterator<T> for UnsizedUpperBound<S> {
        fn try_split(&mut self) -> Option<Self> {
            self.0.try_split().map(UnsizedUpperBound)
        }
        fn characteristics(&self) -> crate::characteristics::Characteristics {
            use crate::characteristics::Characteristics;
            self.0
                .characteristics()
                .without(Characteristics::SIZED | Characteristics::SUBSIZED)
        }
    }

    #[test]
    fn non_sized_estimate_never_drives_the_size_cutoff() {
        let _serial = crate::test_serial::exclusive();
        // The wrapper's estimate (4096) is an upper bound, not a size.
        // A fixed leaf as large as the whole estimate must NOT make the
        // root a leaf: the driver has to keep splitting to the depth
        // cap, because the real survivor count is unknowable up front.
        let p = Arc::new(pool());
        let data: Vec<i64> = (0..4096).collect();
        let cfg = ExecConfig::par()
            .with_pool(Arc::clone(&p))
            .with_leaf_size(4096);
        let unsized_src = UnsizedUpperBound(SliceSpliterator::new(data.clone()));
        assert_eq!(unsized_src.exact_size(), None);
        let (out, report) = plobs::recorded(|| {
            try_collect_with(unsized_src, ReduceCollector::new(0, |a, b| a + b), &cfg)
        });
        assert_eq!(out.unwrap(), 4095 * 4096 / 2);
        let depth_cap = SplitPolicy::Fixed(4096).depth_cap(p.threads());
        assert_eq!(
            report.splits,
            (1 << depth_cap) - 1,
            "an unsized source must descend to the full depth cap"
        );
        // The same leaf on the SIZED original is sequential: its exact
        // size equals the leaf, so the root really is one leaf.
        let (out, report) = plobs::recorded(|| {
            try_collect_with(
                SliceSpliterator::new(data),
                ReduceCollector::new(0, |a, b| a + b),
                &cfg,
            )
        });
        assert_eq!(out.unwrap(), 4095 * 4096 / 2);
        assert_eq!(report.splits, 0);
    }

    #[test]
    fn adaptive_min_leaf_ignores_upper_bound_estimates() {
        let _serial = crate::test_serial::exclusive();
        // With `min_leaf` far above the estimate, a SIZED source stops
        // at the root, while the unsized wrapper of the same data must
        // still split (the cutoff cannot trust an upper bound).
        let p = Arc::new(pool());
        let tight = SplitPolicy::Adaptive(forkjoin::AdaptiveSplit {
            min_leaf: 1 << 20,
            ..forkjoin::AdaptiveSplit::default()
        });
        let data: Vec<i64> = (0..512).collect();
        let cfg = ExecConfig::par()
            .with_pool(Arc::clone(&p))
            .with_split_policy(tight);
        let (out, report) = plobs::recorded(|| {
            try_collect_with(
                SliceSpliterator::new(data.clone()),
                ReduceCollector::new(0, |a, b| a + b),
                &cfg,
            )
        });
        assert_eq!(out.unwrap(), 511 * 512 / 2);
        assert_eq!(report.splits, 0, "512 ≤ min_leaf: the sized root is a leaf");
        let (out, report) = plobs::recorded(|| {
            try_collect_with(
                UnsizedUpperBound(SliceSpliterator::new(data)),
                ReduceCollector::new(0, |a, b| a + b),
                &cfg,
            )
        });
        assert_eq!(out.unwrap(), 511 * 512 / 2);
        assert!(
            report.splits > 0,
            "the unsized estimate must not reach the min_leaf cutoff"
        );
    }

    #[test]
    fn submit_race_fallback_recomputes_cap_from_executing_pool() {
        let _serial = crate::test_serial::exclusive();
        // `walk::submit`'s shutdown-race fallback runs the walk on this
        // (external) thread, with joins migrating to the global pool. A
        // depth cap captured from the dead 1-thread target pool
        // (`ceil_log2(1) + 0 = 0` under zero slack) would stop an
        // adaptive descent at the root with zero splits; the cap must
        // instead budget the pool that executes.
        if forkjoin::global_pool().threads() < 2 {
            return; // single-core runner: both caps coincide
        }
        let dead = Arc::new(ForkJoinPool::new(1));
        dead.shutdown();
        let policy = SplitPolicy::Adaptive(forkjoin::AdaptiveSplit {
            min_leaf: 1,
            depth_slack: 0,
            ..forkjoin::AdaptiveSplit::default()
        });
        let splice = Splice {
            collector: Arc::new(ReduceCollector::new(0, |a, b| a + b)),
            session: ExecSession::new(&ExecConfig::par()),
            _source: PhantomData,
        };
        let (out, report) = plobs::recorded(|| {
            walk::submit(
                &dead,
                Arc::new(splice),
                SliceSpliterator::new((0..4096i64).collect()),
                policy,
            )
        });
        assert_eq!(out.unwrap(), 4095 * 4096 / 2);
        assert_eq!(report.fallbacks_submit, 1);
        assert!(
            report.splits >= 1,
            "fallback must split for the executing pool, not the dead target"
        );
    }

    #[test]
    fn auto_tuned_collect_calibrates_once_then_hits() {
        let _serial = crate::test_serial::exclusive();
        let cache = Arc::new(pltune::PlanCache::new());
        let cfg = ExecConfig::par()
            .with_pool(Arc::new(pool()))
            .auto_tune(Arc::clone(&cache));
        let ((), report) = plobs::recorded(|| {
            for _ in 0..3 {
                let out = try_collect_with(
                    SliceSpliterator::new((0..2048i64).collect()),
                    ReduceCollector::new(0, |a, b| a + b),
                    &cfg,
                )
                .unwrap();
                assert_eq!(out, 2047 * 2048 / 2);
            }
        });
        assert_eq!(report.tune_calibrations, 1, "first sight calibrates");
        assert_eq!(report.tune_hits, 2, "repeat sights reuse the plan");
        assert_eq!(report.tune_misses, 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn explicit_policy_bypasses_the_tuner() {
        let _serial = crate::test_serial::exclusive();
        let cache = Arc::new(pltune::PlanCache::new());
        let cfg = ExecConfig::par()
            .with_pool(Arc::new(pool()))
            .with_leaf_size(64)
            .auto_tune(Arc::clone(&cache));
        let (out, report) = plobs::recorded(|| {
            try_collect_with(
                SliceSpliterator::new((0..256i64).collect()),
                ReduceCollector::new(0, |a, b| a + b),
                &cfg,
            )
        });
        assert_eq!(out.unwrap(), 255 * 256 / 2);
        assert_eq!(
            report.tunes(),
            0,
            "explicit policies never consult the cache"
        );
        assert!(cache.is_empty());
    }

    #[test]
    fn tuner_fingerprints_unsized_pipelines_as_inexact() {
        let _serial = crate::test_serial::exclusive();
        // Same data, same collector: the SIZED source and its unsized
        // wrapper must occupy distinct cache slots (the `sized` flag is
        // part of the fingerprint), so a plan tuned for an exact size
        // is never served to an upper-bound pipeline of the same bucket.
        let cache = Arc::new(pltune::PlanCache::new());
        let cfg = ExecConfig::par()
            .with_pool(Arc::new(pool()))
            .auto_tune(Arc::clone(&cache));
        let data: Vec<i64> = (0..1024).collect();
        let ((), report) = plobs::recorded(|| {
            let a = try_collect_with(
                SliceSpliterator::new(data.clone()),
                ReduceCollector::new(0, |a, b| a + b),
                &cfg,
            )
            .unwrap();
            let b = try_collect_with(
                UnsizedUpperBound(SliceSpliterator::new(data)),
                ReduceCollector::new(0, |a, b| a + b),
                &cfg,
            )
            .unwrap();
            assert_eq!(a, b);
        });
        assert_eq!(
            report.tune_calibrations, 2,
            "sized and unsized are distinct"
        );
        assert_eq!(cache.len(), 2);
        let entries = cache.ready_entries();
        let flags: Vec<bool> = entries.iter().map(|(fp, _)| fp.sized).collect();
        assert!(flags.contains(&true) && flags.contains(&false));
    }

    #[test]
    fn legacy_shim_resumes_contained_panics() {
        let _serial = crate::test_serial::shared();
        // The infallible `Stream::collect` shim resumes a contained
        // panic on the caller.
        let p = Arc::new(pool());
        let ints = || stream_support(SliceSpliterator::new((0..64).collect::<Vec<i32>>()), true);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ints()
                .with_pool(Arc::clone(&p))
                .with_leaf_size(4)
                .collect(ReduceCollector::new(0, |_, _| -> i32 {
                    panic!("legacy bang")
                }))
        }));
        let payload = caught.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"legacy bang"));
        // The same pool still works afterwards.
        let count = ints()
            .with_pool(p)
            .with_leaf_size(4)
            .collect(CountCollector);
        assert_eq!(count, 64);
    }
}
