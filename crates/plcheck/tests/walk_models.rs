//! plcheck models of the split-tree walker (`jstreams::walk`): the one
//! fork-join recursion that collect, placement, search and the JPLF
//! executors all run on, model-checked once for every terminal. Off a
//! pool, `forkjoin::join` runs its second half on a spawned model
//! thread, so the checker interleaves the halves of every split — and
//! with them the node-entry checkpoints, the interrupt merge and the
//! `Found` pruning. The n-ary adapter ([`walk::Fan`]) is checked the
//! same way: it is a binary terminal over runs of sibling nodes.

use forkjoin::SplitPolicy;
use jstreams::walk::{self, Combine, Fan, NaryTerminal, Terminal};
use jstreams::{ExecConfig, ExecSession, Interrupt, SearchSession};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once};

/// Unit leaves per model: a balanced tree of three splits.
const LEAVES: usize = 4;

/// The tests in this binary run one at a time: the search model records
/// a process-global plobs report.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Keeps the contained `leaf bang` panics of the poison model out of the
/// test output (thousands of schedules each print one otherwise).
fn quiet_leaf_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<&str>() != Some(&"leaf bang") {
                default(info);
            }
        }));
    });
}

/// A walk over the index range `[0, LEAVES)` split into unit leaves. The
/// leaf at `i` counts its runs in an oracle slot and yields `i`; the
/// `poison` leaf panics and the `needle` leaf (search) records a hit,
/// then trips `Found`.
struct Ranges<K> {
    session: K,
    runs: [AtomicUsize; LEAVES],
    poison: Option<usize>,
    needle: Option<usize>,
    hit: Mutex<Option<usize>>,
}

impl<K> Ranges<K> {
    fn new(session: K, poison: Option<usize>, needle: Option<usize>) -> Arc<Self> {
        Arc::new(Ranges {
            session,
            runs: Default::default(),
            poison,
            needle,
            hit: Mutex::new(None),
        })
    }

    #[allow(clippy::type_complexity)]
    fn halve(
        &self,
        (lo, hi): (usize, usize),
    ) -> Result<((usize, usize), (usize, usize), ()), (usize, usize)> {
        if hi - lo < 2 {
            return Err((lo, hi));
        }
        let mid = lo + (hi - lo) / 2;
        Ok(((lo, mid), (mid, hi), ()))
    }

    fn run_leaf(&self, (lo, _): (usize, usize)) -> usize {
        plcheck::yield_op("walk::leaf");
        self.runs[lo].fetch_add(1, Ordering::SeqCst);
        assert!(self.poison != Some(lo), "leaf bang");
        lo
    }

    fn runs(&self) -> Vec<usize> {
        self.runs.iter().map(|r| r.load(Ordering::SeqCst)).collect()
    }
}

impl Terminal for Ranges<ExecSession> {
    type Node = (usize, usize);
    type Out = usize;
    type Cut = ();
    type Session = ExecSession;
    const COMBINE: Combine = Combine::Merge;

    fn session(&self) -> &ExecSession {
        &self.session
    }

    fn exact_size(&self, (lo, hi): &(usize, usize)) -> Option<usize> {
        Some(hi - lo)
    }

    fn split(
        &self,
        node: (usize, usize),
    ) -> Result<((usize, usize), (usize, usize), ()), (usize, usize)> {
        self.halve(node)
    }

    fn leaf(&self, node: (usize, usize)) -> usize {
        self.run_leaf(node)
    }

    fn combine(&self, (): (), left: usize, right: usize) -> usize {
        left + right
    }
}

impl Terminal for Ranges<SearchSession> {
    type Node = (usize, usize);
    type Out = ();
    type Cut = ();
    type Session = SearchSession;
    const COMBINE: Combine = Combine::Skip;

    fn session(&self) -> &SearchSession {
        &self.session
    }

    fn exact_size(&self, (lo, hi): &(usize, usize)) -> Option<usize> {
        Some(hi - lo)
    }

    fn pruned(&self) {}

    fn split(
        &self,
        node: (usize, usize),
    ) -> Result<((usize, usize), (usize, usize), ()), (usize, usize)> {
        self.halve(node)
    }

    fn leaf(&self, node: (usize, usize)) {
        let i = self.run_leaf(node);
        if self.needle == Some(i) {
            // Record before cancel, as every search leaf does.
            *self.hit.lock().unwrap() = Some(i);
            self.session.found();
        }
    }

    fn combine(&self, (): (), (): (), (): ()) {}
}

/// The walk of a model: unit leaves under the static policy (exact
/// sizes: the depth cap is never consulted).
fn walk_all<T: Terminal<Node = (usize, usize)>>(t: &Arc<T>) -> Result<T::Out, Interrupt> {
    walk::walk(Arc::clone(t), (0, LEAVES), SplitPolicy::Fixed(1), 0)
}

/// Without interruptions, every leaf runs exactly once in every
/// interleaving of the forked halves, and the combines see them all.
#[test]
fn every_leaf_runs_exactly_once() {
    let _serial = serial();
    let report = plcheck::Explorer::exhaustive(5_000).run(|| {
        let t = Ranges::new(ExecSession::new(&ExecConfig::par()), None, None);
        let out = walk_all(&t).expect("an uninterrupted walk succeeds");
        assert_eq!(out, (0..LEAVES).sum::<usize>());
        assert_eq!(t.runs(), vec![1; LEAVES], "each leaf exactly once");
    });
    report.assert_ok();
}

/// A panic in one leaf trips the session; sibling subtrees that reach a
/// checkpoint afterwards stop with a cancellation. Whatever the
/// interleaving, the merged interrupt is the panic, no leaf runs twice —
/// and across the exploration some schedule really prunes a sibling.
#[test]
fn leaf_panic_outranks_the_cancels_it_causes() {
    let _serial = serial();
    quiet_leaf_panics();
    let pruned = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&pruned);
    let report = plcheck::Explorer::exhaustive(5_000).run(move || {
        // The rightmost leaf: its panic must win the merge even when the
        // left half comes back cancelled.
        let t = Ranges::new(ExecSession::new(&ExecConfig::par()), Some(LEAVES - 1), None);
        match walk_all(&t) {
            Err(Interrupt::Panicked(_)) => {}
            other => plcheck::fail(format!("expected the leaf panic, got {other:?}")),
        }
        let runs = t.runs();
        assert_eq!(runs[LEAVES - 1], 1, "the poison leaf ran");
        assert!(runs.iter().all(|&r| r <= 1), "no leaf runs twice: {runs:?}");
        if runs.contains(&0) {
            seen.fetch_add(1, Ordering::SeqCst);
        }
    });
    report.assert_ok();
    assert!(
        pruned.load(Ordering::SeqCst) > 0,
        "some interleaving must cancel a sibling leaf"
    );
}

/// A search leaf that trips `Found` ends the walk as success with its
/// hit recorded, in every interleaving. Each checkpoint that observes
/// the trip prunes exactly one subtree, so `cancels_found ==
/// early_exits` — there is no combine checkpoint to add unpaired ones.
#[test]
fn found_trip_ends_in_success_with_paired_prunes() {
    let _serial = serial();
    let report = plcheck::Explorer::exhaustive(5_000).run(|| {
        let t = Ranges::new(SearchSession::new(&ExecConfig::par()), None, Some(1));
        let (out, report) = plobs::recorded(|| walk_all(&t));
        assert!(out.is_ok(), "a Found trip is success: {out:?}");
        assert_eq!(*t.hit.lock().unwrap(), Some(1));
        let runs = t.runs();
        assert_eq!(runs[1], 1, "the needle leaf ran");
        assert!(runs.iter().all(|&r| r <= 1), "no leaf runs twice: {runs:?}");
        assert_eq!(
            report.cancels_found, report.early_exits,
            "every Found observation prunes one subtree: {report:?}"
        );
    });
    report.assert_ok();
}

/// Members of the n-ary model: the root splits into this many unit
/// members at once.
const ARITY: usize = 3;

/// An arity-3 [`NaryTerminal`] over `[0, ARITY)`: the root splits into
/// unit members, the member at `i` counts its runs and yields `i` (the
/// `poison` member panics), and `combine_n` records the parts it
/// receives.
struct FanModel {
    session: ExecSession,
    runs: [AtomicUsize; ARITY],
    poison: Option<usize>,
    combined: Mutex<Vec<Vec<usize>>>,
}

impl FanModel {
    fn new(poison: Option<usize>) -> Arc<Fan<Self>> {
        Arc::new(Fan(FanModel {
            session: ExecSession::new(&ExecConfig::par()),
            runs: Default::default(),
            poison,
            combined: Mutex::new(Vec::new()),
        }))
    }

    fn runs(&self) -> Vec<usize> {
        self.runs.iter().map(|r| r.load(Ordering::SeqCst)).collect()
    }
}

impl NaryTerminal for FanModel {
    type Node = (usize, usize);
    type Out = usize;
    type Cut = ();
    type Session = ExecSession;

    fn session(&self) -> &ExecSession {
        &self.session
    }

    fn exact_size(&self, (lo, hi): &(usize, usize)) -> Option<usize> {
        Some(hi - lo)
    }

    #[allow(clippy::type_complexity)]
    fn split_n(
        &self,
        (lo, hi): (usize, usize),
    ) -> Result<(Vec<(usize, usize)>, ()), (usize, usize)> {
        if hi - lo < 2 {
            return Err((lo, hi));
        }
        Ok(((lo..hi).map(|i| (i, i + 1)).collect(), ()))
    }

    fn leaf(&self, (lo, _): (usize, usize)) -> usize {
        plcheck::yield_op("walk::leaf");
        self.runs[lo].fetch_add(1, Ordering::SeqCst);
        assert!(self.poison != Some(lo), "leaf bang");
        lo
    }

    fn combine_n(&self, (): (), parts: Vec<usize>) -> usize {
        let sum = parts.iter().sum();
        self.combined.lock().unwrap().push(parts);
        sum
    }
}

/// The walk of the n-ary model: the root as a one-member run, unit
/// leaves under the static policy.
fn fan_all(t: &Arc<Fan<FanModel>>) -> Result<Vec<usize>, Interrupt> {
    walk::walk(Arc::clone(t), vec![(0, ARITY)], SplitPolicy::Fixed(1), 0)
}

/// Through the n-ary adapter, every member leaf runs exactly once in
/// every interleaving, and the one `combine_n` receives all the parts in
/// encounter order: the concatenating cut of the right run never
/// reorders them.
#[test]
fn fan_runs_every_member_once_and_combines_in_order() {
    let _serial = serial();
    let report = plcheck::Explorer::exhaustive(5_000).run(|| {
        let t = FanModel::new(None);
        let out = fan_all(&t).expect("an uninterrupted walk succeeds");
        assert_eq!(out, vec![(0..ARITY).sum::<usize>()], "one root result");
        assert_eq!(t.0.runs(), vec![1; ARITY], "each member exactly once");
        let combined = t.0.combined.lock().unwrap();
        assert_eq!(*combined, vec![(0..ARITY).collect::<Vec<_>>()]);
    });
    report.assert_ok();
}

/// A panic in one member trips the session, and the merged interrupt is
/// that panic whatever the siblings' cancels; no member runs twice, and
/// some schedule really prunes a sibling.
#[test]
fn fan_member_panic_outranks_the_cancels_it_causes() {
    let _serial = serial();
    quiet_leaf_panics();
    let pruned = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&pruned);
    let report = plcheck::Explorer::exhaustive(5_000).run(move || {
        let t = FanModel::new(Some(ARITY - 1));
        match fan_all(&t) {
            Err(Interrupt::Panicked(_)) => {}
            other => plcheck::fail(format!("expected the member panic, got {other:?}")),
        }
        let runs = t.0.runs();
        assert_eq!(runs[ARITY - 1], 1, "the poison member ran");
        assert!(
            runs.iter().all(|&r| r <= 1),
            "no member runs twice: {runs:?}"
        );
        assert!(t.0.combined.lock().unwrap().is_empty(), "no combine_n");
        if runs.contains(&0) {
            seen.fetch_add(1, Ordering::SeqCst);
        }
    });
    report.assert_ok();
    assert!(
        pruned.load(Ordering::SeqCst) > 0,
        "some interleaving must cancel a sibling member"
    );
}
