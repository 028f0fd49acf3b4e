//! Short-circuiting search over PowerLists: the quantifier terminals
//! (`any_match` / `all_match` / `none_match` / `find_first` /
//! `find_any`) for the executor framework.
//!
//! A [`PowerSearchFunction`] plays the role [`PowerFunction`] plays for
//! reductions: it carries the decomposition choice (tie or zip) and the
//! predicate; a [`SearchExecutor`] runs it. The fork-join strategy runs
//! on jstreams' split-tree walker ([`jstreams::walk`]) and reuses the
//! machinery of its search driver (DESIGN.md §12):
//!
//! * a run-private [`jstreams::SearchSession`] — a decisive hit trips
//!   its token with `CancelReason::Found` *after* the hit is recorded
//!   (record-before-cancel), and sibling subtrees observe the trip at
//!   their next node-entry checkpoint, counting one
//!   [`plobs::Event::EarlyExit`] per pruned subtree root;
//! * for `find_first`, a shared [`jstreams::FirstHit`] cell keyed by
//!   **physical index**. A `PowerView` addresses element `j` at physical
//!   index `start + j·incr`, and physical order *is* the original list's
//!   encounter order, so the minimal physical hit is the logical
//!   `find_first` answer under both decompositions — including zip,
//!   where the two halves interleave but every index in a view is still
//!   ≥ `view.start()`, which keeps the `bound ≤ start` pruning test
//!   sound.
//!
//! [`PowerFunction`]: crate::function::PowerFunction

use crate::executor::{finish, ExecConfig, ExecError, ForkJoinExecutor, SequentialExecutor};
use crate::function::Decomp;
use forkjoin::{CancelReason, CancelToken};
use jstreams::walk::{self, Combine, Terminal};
use jstreams::{FirstHit, Interrupt, SearchSession};
use parking_lot::Mutex;
use plobs::{Event, LeafRoute};
use powerlist::PowerView;
use std::sync::Arc;
use std::time::Instant;

/// A searchable predicate over PowerList elements, with the
/// decomposition choice that directs how the search tree splits (the
/// result is decomposition-independent; the traversal order is not).
pub trait PowerSearchFunction: Send + Sync + 'static {
    /// Element type of the searched PowerList.
    type Elem: Clone + Send + Sync + 'static;

    /// How the search deconstructs its input: `tie` (halves) or `zip`
    /// (interleave). Defaults to tie — contiguous halves give
    /// `find_first` the best pruning locality.
    fn decomposition(&self) -> Decomp {
        Decomp::Tie
    }

    /// The predicate.
    fn matches(&self, value: &Self::Elem) -> bool;
}

/// Logical negation of a search function: matches exactly when the
/// wrapped function does not. `all_match(f)` runs as
/// `!any_match(Not(f))`, so one counterexample short-circuits.
#[derive(Clone, Copy, Debug, Default)]
pub struct Not<F>(pub F);

impl<F: PowerSearchFunction> PowerSearchFunction for Not<F> {
    type Elem = F::Elem;

    fn decomposition(&self) -> Decomp {
        self.0.decomposition()
    }

    fn matches(&self, value: &Self::Elem) -> bool {
        !self.0.matches(value)
    }
}

/// Where hits land, and whether they are decisive.
enum PowerSink<T> {
    /// First-hit-wins (`find_any` and the quantifiers): the first
    /// recorded element cancels the whole run.
    Any(Mutex<Option<T>>),
    /// Encounter-order (`find_first`): hits only tighten the shared
    /// physical-index bound; pruning does the short-circuiting.
    First(FirstHit<T>),
}

impl<T: Clone> PowerSink<T> {
    /// Records a hit at physical index `idx`; returns `true` when the
    /// hit is decisive and should trip `Found`.
    fn hit(&self, idx: usize, value: &T) -> bool {
        match self {
            PowerSink::Any(slot) => {
                let mut slot = slot.lock();
                if slot.is_none() {
                    *slot = Some(value.clone());
                }
                true
            }
            PowerSink::First(cell) => {
                cell.offer(idx, value.clone());
                false
            }
        }
    }

    /// The pruning bound (`usize::MAX` disables pruning).
    fn bound(&self) -> usize {
        match self {
            PowerSink::Any(_) => usize::MAX,
            PowerSink::First(cell) => cell.bound(),
        }
    }

    /// The recorded answer, once the tree has quiesced.
    fn take(&self) -> Option<T> {
        match self {
            PowerSink::Any(slot) => slot.lock().take(),
            PowerSink::First(cell) => cell.take().map(|(_, v)| v),
        }
    }
}

/// Scans one view left to right, recording the first match. Returns the
/// number of elements scanned (for the leaf event).
fn scan_leaf<F>(f: &F, input: &PowerView<F::Elem>, sink: &PowerSink<F::Elem>) -> (u64, bool)
where
    F: PowerSearchFunction,
{
    let (start, incr) = (input.start(), input.incr());
    let mut scanned: u64 = 0;
    for (j, v) in input.iter().enumerate() {
        scanned += 1;
        if f.matches(v) {
            // Within a view, j (hence the physical index) is increasing,
            // so the first match is the view's earliest — no sink needs
            // the rest of the leaf.
            return (scanned, sink.hit(start + j * incr, v));
        }
    }
    (scanned, false)
}

/// One search leaf: a decisive hit trips `Found` on `token` strictly
/// after the sink recorded it. Callers run it under panic containment.
fn search_leaf<F>(f: &F, input: &PowerView<F::Elem>, sink: &PowerSink<F::Elem>, token: &CancelToken)
where
    F: PowerSearchFunction,
{
    let start = plobs::enabled().then(Instant::now);
    let (scanned, decisive) = scan_leaf(f, input, sink);
    if decisive {
        token.cancel(CancelReason::Found);
    }
    if let Some(start) = start {
        plobs::emit(Event::Leaf {
            route: LeafRoute::Template,
            items: scanned,
            ns: start.elapsed().as_nanos() as u64,
        });
    }
}

/// The guarded whole-input scan: the sequential strategy, and the
/// degradation target when the fork-join route's pool is unavailable.
fn try_search_sequential<F>(
    f: &F,
    input: &PowerView<F::Elem>,
    sink: &PowerSink<F::Elem>,
    session: &SearchSession,
) -> Result<(), Interrupt>
where
    F: PowerSearchFunction,
{
    if session.check()? {
        plobs::emit(Event::EarlyExit { leaves_pruned: 1 });
        return Ok(());
    }
    session.run(|| search_leaf(f, input, sink, session.token()))
}

/// The parallel search's subtree protocol for the split-tree walker
/// ([`jstreams::walk`]): the [`ForkJoinExecutor`]'s compute protocol
/// with the encounter-order bound as prune predicate and no combine
/// phase — the answer lives in the shared sink.
struct PowerSearch<F: PowerSearchFunction> {
    f: F,
    sink: Arc<PowerSink<F::Elem>>,
    session: SearchSession,
}

impl<F: PowerSearchFunction> Terminal for PowerSearch<F> {
    type Node = PowerView<F::Elem>;
    type Out = ();
    type Cut = ();
    type Session = SearchSession;
    const COMBINE: Combine = Combine::Skip;

    fn session(&self) -> &SearchSession {
        &self.session
    }

    fn exact_size(&self, input: &PowerView<F::Elem>) -> Option<usize> {
        Some(input.len())
    }

    /// Every physical index in a view is ≥ its start (incr ≥ 1), under
    /// zip interleaving too.
    fn prune(&self, input: &PowerView<F::Elem>) -> bool {
        self.sink.bound() <= input.start()
    }

    fn pruned(&self) {}

    #[allow(clippy::type_complexity)]
    fn split(
        &self,
        input: PowerView<F::Elem>,
    ) -> Result<(PowerView<F::Elem>, PowerView<F::Elem>, ()), PowerView<F::Elem>> {
        if input.is_singleton() {
            return Err(input);
        }
        let (l, r) = match self.f.decomposition() {
            Decomp::Tie => input.untie().expect("non-singleton"),
            Decomp::Zip => input.unzip().expect("non-singleton"),
        };
        Ok((l, r, ()))
    }

    fn leaf(&self, input: PowerView<F::Elem>) {
        search_leaf(&self.f, &input, &self.sink, self.session.token());
    }

    fn combine(&self, (): (), (): (), (): ()) {}
}

/// An execution strategy for [`PowerSearchFunction`]s: the quantifier
/// and find terminals over a `PowerView`, each in an infallible and a
/// fallible (`try_`) form. Only the two find primitives are
/// strategy-specific; the quantifiers are provided on top of them.
pub trait SearchExecutor {
    /// Fallible `find_first`: the logically-first matching element of
    /// the view, deterministic under every strategy and schedule.
    fn try_find_first<F>(
        &self,
        f: &F,
        input: &PowerView<F::Elem>,
        cfg: &ExecConfig,
    ) -> Result<Option<F::Elem>, ExecError>
    where
        F: PowerSearchFunction + Clone + Sync;

    /// Fallible `find_any`: some matching element, first-hit-wins —
    /// schedule-dependent under parallel execution, with the strongest
    /// short-circuit (the first hit anywhere cancels all remaining
    /// work).
    fn try_find_any<F>(
        &self,
        f: &F,
        input: &PowerView<F::Elem>,
        cfg: &ExecConfig,
    ) -> Result<Option<F::Elem>, ExecError>
    where
        F: PowerSearchFunction + Clone + Sync;

    /// Fallible `any_match`: `Ok(true)` iff some element matches.
    fn try_any_match<F>(
        &self,
        f: &F,
        input: &PowerView<F::Elem>,
        cfg: &ExecConfig,
    ) -> Result<bool, ExecError>
    where
        F: PowerSearchFunction + Clone + Sync,
    {
        self.try_find_any(f, input, cfg).map(|hit| hit.is_some())
    }

    /// Fallible `all_match`: `Ok(true)` iff every element matches
    /// (vacuously true on a singleton-free... never — PowerLists are
    /// non-empty, so this is `true` only when no counterexample exists).
    fn try_all_match<F>(
        &self,
        f: &F,
        input: &PowerView<F::Elem>,
        cfg: &ExecConfig,
    ) -> Result<bool, ExecError>
    where
        F: PowerSearchFunction + Clone + Sync,
    {
        self.try_any_match(&Not(f.clone()), input, cfg)
            .map(|any_fails| !any_fails)
    }

    /// Fallible `none_match`: `Ok(true)` iff no element matches.
    fn try_none_match<F>(
        &self,
        f: &F,
        input: &PowerView<F::Elem>,
        cfg: &ExecConfig,
    ) -> Result<bool, ExecError>
    where
        F: PowerSearchFunction + Clone + Sync,
    {
        self.try_any_match(f, input, cfg).map(|any| !any)
    }

    /// Infallible `find_first` (panics are resumed, like
    /// [`Executor::execute`](crate::executor::Executor::execute)).
    fn find_first<F>(&self, f: &F, input: &PowerView<F::Elem>) -> Option<F::Elem>
    where
        F: PowerSearchFunction + Clone + Sync,
    {
        finish(
            self.try_find_first(f, input, &ExecConfig::par()),
            "find_first",
        )
    }

    /// Infallible `find_any`.
    fn find_any<F>(&self, f: &F, input: &PowerView<F::Elem>) -> Option<F::Elem>
    where
        F: PowerSearchFunction + Clone + Sync,
    {
        finish(self.try_find_any(f, input, &ExecConfig::par()), "find_any")
    }

    /// Infallible `any_match`.
    fn any_match<F>(&self, f: &F, input: &PowerView<F::Elem>) -> bool
    where
        F: PowerSearchFunction + Clone + Sync,
    {
        finish(
            self.try_any_match(f, input, &ExecConfig::par()),
            "any_match",
        )
    }

    /// Infallible `all_match`.
    fn all_match<F>(&self, f: &F, input: &PowerView<F::Elem>) -> bool
    where
        F: PowerSearchFunction + Clone + Sync,
    {
        finish(
            self.try_all_match(f, input, &ExecConfig::par()),
            "all_match",
        )
    }

    /// Infallible `none_match`.
    fn none_match<F>(&self, f: &F, input: &PowerView<F::Elem>) -> bool
    where
        F: PowerSearchFunction + Clone + Sync,
    {
        finish(
            self.try_none_match(f, input, &ExecConfig::par()),
            "none_match",
        )
    }
}

impl SequentialExecutor {
    fn try_search<F>(
        &self,
        f: &F,
        input: &PowerView<F::Elem>,
        sink: &PowerSink<F::Elem>,
        cfg: &ExecConfig,
    ) -> Result<(), ExecError>
    where
        F: PowerSearchFunction,
    {
        let session = SearchSession::new(cfg);
        try_search_sequential(f, input, sink, &session).map_err(|i| session.error_of(i))
    }
}

impl SearchExecutor for SequentialExecutor {
    fn try_find_first<F>(
        &self,
        f: &F,
        input: &PowerView<F::Elem>,
        cfg: &ExecConfig,
    ) -> Result<Option<F::Elem>, ExecError>
    where
        F: PowerSearchFunction + Clone + Sync,
    {
        let sink = PowerSink::First(FirstHit::new());
        self.try_search(f, input, &sink, cfg)?;
        Ok(sink.take())
    }

    fn try_find_any<F>(
        &self,
        f: &F,
        input: &PowerView<F::Elem>,
        cfg: &ExecConfig,
    ) -> Result<Option<F::Elem>, ExecError>
    where
        F: PowerSearchFunction + Clone + Sync,
    {
        // A sequential scan's first hit is also the logically first.
        let sink = PowerSink::Any(Mutex::new(None));
        self.try_search(f, input, &sink, cfg)?;
        Ok(sink.take())
    }
}

impl ForkJoinExecutor {
    /// Shared driver for both find terminals: graceful degradation and
    /// pool submission exactly as
    /// [`Executor::try_execute`](crate::executor::Executor::try_execute),
    /// with the search recursion in place of the reduction.
    fn try_search<F>(
        &self,
        f: &F,
        input: &PowerView<F::Elem>,
        sink: Arc<PowerSink<F::Elem>>,
        cfg: &ExecConfig,
    ) -> Result<(), ExecError>
    where
        F: PowerSearchFunction + Clone + Sync,
    {
        let session = SearchSession::new(cfg);
        let result = match walk::fallback_reason(self.pool(), cfg) {
            Some(reason) => {
                plobs::emit(Event::Fallback { reason });
                try_search_sequential(f, input, &sink, &session)
            }
            None => {
                let policy = self.resolve_policy(std::any::type_name::<F>(), input.len());
                let search = PowerSearch {
                    f: f.clone(),
                    sink,
                    session: session.clone(),
                };
                walk::submit(self.pool(), Arc::new(search), input.clone(), policy)
            }
        };
        result.map_err(|i| session.error_of(i))
    }
}

impl SearchExecutor for ForkJoinExecutor {
    fn try_find_first<F>(
        &self,
        f: &F,
        input: &PowerView<F::Elem>,
        cfg: &ExecConfig,
    ) -> Result<Option<F::Elem>, ExecError>
    where
        F: PowerSearchFunction + Clone + Sync,
    {
        let sink = Arc::new(PowerSink::First(FirstHit::new()));
        self.try_search(f, input, Arc::clone(&sink), cfg)?;
        Ok(sink.take())
    }

    fn try_find_any<F>(
        &self,
        f: &F,
        input: &PowerView<F::Elem>,
        cfg: &ExecConfig,
    ) -> Result<Option<F::Elem>, ExecError>
    where
        F: PowerSearchFunction + Clone + Sync,
    {
        let sink = Arc::new(PowerSink::Any(Mutex::new(None)));
        self.try_search(f, input, Arc::clone(&sink), cfg)?;
        Ok(sink.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkjoin::ForkJoinPool;
    use powerlist::tabulate;

    /// Matches one specific value.
    #[derive(Clone)]
    struct Equals(i64, Decomp);

    impl PowerSearchFunction for Equals {
        type Elem = i64;

        fn decomposition(&self) -> Decomp {
            self.1
        }

        fn matches(&self, value: &i64) -> bool {
            *value == self.0
        }
    }

    fn fj() -> ForkJoinExecutor {
        ForkJoinExecutor::new(3, 16)
    }

    #[test]
    fn quantifiers_agree_with_sequential_under_both_decompositions() {
        let _serial = crate::test_serial::shared();
        let p = tabulate(1 << 10, |i| (i as i64 * 37) % 1009).unwrap();
        let seq = SequentialExecutor::new();
        let par = fj();
        for decomp in [Decomp::Tie, Decomp::Zip] {
            for needle in [0i64, 500, 1008, -7] {
                let f = Equals(needle, decomp);
                let v = p.clone().view();
                assert_eq!(seq.any_match(&f, &v), par.any_match(&f, &v));
                assert_eq!(seq.none_match(&f, &v), par.none_match(&f, &v));
            }
        }
        let all_pos = Equals(0, Decomp::Tie);
        let v = p.view();
        assert_eq!(
            seq.all_match(&Not(all_pos.clone()), &v),
            par.all_match(&Not(all_pos), &v)
        );
    }

    #[test]
    fn find_first_returns_the_minimal_physical_index_hit() {
        let _serial = crate::test_serial::shared();
        // v[i] = i % 19: the first multiple-free... matches of `== 7`
        // occur at i = 7, 26, 45, …; find_first must return the value
        // (7) from physical index 7 under both decompositions, even
        // though zip's left half sees index 26 before index 7's half
        // finishes.
        let p = tabulate(1 << 9, |i| (i % 19) as i64).unwrap();
        for decomp in [Decomp::Tie, Decomp::Zip] {
            let f = Equals(7, decomp);
            assert_eq!(fj().find_first(&f, &p.clone().view()), Some(7));
            assert_eq!(
                SequentialExecutor::new().find_first(&f, &p.clone().view()),
                Some(7)
            );
        }
        assert_eq!(fj().find_first(&Equals(100, Decomp::Tie), &p.view()), None);
    }

    #[test]
    fn find_any_returns_some_match_and_records_prunes() {
        let _serial = crate::test_serial::exclusive();
        let p = tabulate(1 << 12, |i| i as i64).unwrap();
        let exec = ForkJoinExecutor::new(3, 8);
        // Whether subtrees are still pending when Found trips is
        // schedule-dependent (one hardware thread can drain in pure DFS
        // order), so the pruning assertion accepts any of a few runs.
        // `cancels_found` counts checkpoints that observed the trip; in
        // an existence search each one prunes its subtree, so it equals
        // `early_exits` on every schedule (0 and 0 for a last-leaf hit).
        let mut pruned = false;
        for _ in 0..20 {
            let (hit, report) = plobs::recorded(|| {
                exec.try_find_any(
                    &Equals((1 << 12) - 3, Decomp::Tie),
                    &p.clone().view(),
                    &ExecConfig::par(),
                )
            });
            assert_eq!(hit.unwrap(), Some((1 << 12) - 3));
            assert_eq!(
                report.cancels_found, report.early_exits,
                "every Found observation prunes one subtree: {report:?}"
            );
            if report.early_exits >= 1 {
                pruned = true;
                break;
            }
        }
        assert!(pruned, "no schedule in 20 runs pruned on a late needle");
    }

    #[test]
    fn panicking_predicate_is_contained() {
        let _serial = crate::test_serial::shared();
        #[derive(Clone)]
        struct Poison;
        impl PowerSearchFunction for Poison {
            type Elem = i64;
            fn matches(&self, value: &i64) -> bool {
                assert!(*value != 97, "poisoned value {value}");
                false
            }
        }
        let p = tabulate(256, |i| i as i64).unwrap();
        let err = fj()
            .try_any_match(&Poison, &p.clone().view(), &ExecConfig::par())
            .expect_err("panic must surface as an error");
        assert_eq!(err.panic_message(), Some("poisoned value 97"));
        // The executor's pool survives for a follow-up search.
        assert!(fj().any_match(&Equals(9, Decomp::Tie), &p.view()));
    }

    #[test]
    fn shut_down_pool_degrades_to_sequential_scan() {
        let _serial = crate::test_serial::exclusive();
        let pool = Arc::new(ForkJoinPool::new(1));
        let exec = ForkJoinExecutor::with_pool(Arc::clone(&pool), 16);
        pool.shutdown();
        let p = tabulate(64, |i| i as i64).unwrap();
        let (out, report) = plobs::recorded(|| {
            exec.try_any_match(&Equals(9, Decomp::Tie), &p.view(), &ExecConfig::par())
        });
        assert_eq!(out.ok(), Some(true));
        assert_eq!(report.fallbacks_submit, 1);
        assert_eq!(report.splits, 0, "fallback route must not fork");
    }
}
