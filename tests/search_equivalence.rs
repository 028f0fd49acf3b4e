//! Differential route-equivalence for the short-circuiting search
//! terminals.
//!
//! Every quantifier (`any_match`, `all_match`, `none_match`,
//! `find_first`, `find_any`) must answer identically through every
//! route the repo implements:
//!
//! 1. the sequential specification (plain iterator quantifiers);
//! 2. the streams sequential driver (`stream_support(.., false)`);
//! 3. the streams parallel driver (`Found` cancellation +
//!    encounter-order pruning over the fork-join pool);
//! 4. the same parallel driver through a **fused** `map`/`filter`
//!    pipeline — a non-SIZED source whose estimates are upper bounds,
//!    exercising the virtual-encounter-index bookkeeping;
//! 5. the JPLF port (`SearchExecutor` over PowerList views), sequential
//!    and fork-join.
//!
//! Plus the failure contract (a panicking predicate surfaces as
//! `ExecError` through the short-circuiting driver) and the recorded
//! observability contract (a late needle prunes subtrees and counts
//! `Found` cancellations).

use forkjoin::ForkJoinPool;
use jplf::{Decomp, PowerSearchFunction, SearchExecutor};
use jstreams::{power_stream, stream_support, Decomposition, ExecConfig, SliceSpliterator};
use powerlist::PowerList;
use proptest::prelude::*;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The recorded test below installs a global plobs sink; everything
/// else takes the lock shared so its events never leak into a report.
static ROUTE_LOCK: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    ROUTE_LOCK.read().unwrap_or_else(|e| e.into_inner())
}

fn exclusive() -> RwLockWriteGuard<'static, ()> {
    ROUTE_LOCK.write().unwrap_or_else(|e| e.into_inner())
}

fn pool() -> Arc<ForkJoinPool> {
    Arc::new(ForkJoinPool::new(3))
}

/// Input vectors of power-of-two length (so the same data also feeds
/// the PowerList routes), values in a narrow band so needles both occur
/// and go missing across generated cases.
fn pow2_ints(max_k: u32) -> impl Strategy<Value = Vec<i64>> {
    (0..=max_k).prop_flat_map(|k| proptest::collection::vec(-40i64..40, 1 << k as usize))
}

#[derive(Clone)]
struct Matches {
    needle: i64,
    decomp: Decomp,
}

impl PowerSearchFunction for Matches {
    type Elem = i64;

    fn decomposition(&self) -> Decomp {
        self.decomp
    }

    fn matches(&self, value: &i64) -> bool {
        *value == self.needle
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The three boolean quantifiers: spec = seq stream = par stream =
    /// fused par stream = JPLF (seq + fork-join, tie + zip).
    #[test]
    fn boolean_quantifiers_agree(v in pow2_ints(9), needle in -40i64..40,
                                 leaf in 1usize..64, zip in any::<bool>()) {
        let _shared = shared();
        let pred = move |x: &i64| *x == needle;
        let spec_any = v.iter().any(&pred);
        let spec_all = v.iter().all(&pred);
        let p = pool();

        // Streams: sequential, parallel, and fused-parallel routes.
        let seq = stream_support(SliceSpliterator::new(v.clone()), false);
        prop_assert_eq!(seq.any_match(pred), spec_any);
        let seq = stream_support(SliceSpliterator::new(v.clone()), false);
        prop_assert_eq!(seq.all_match(pred), spec_all);
        let seq = stream_support(SliceSpliterator::new(v.clone()), false);
        prop_assert_eq!(seq.none_match(pred), !spec_any);

        let par = || stream_support(SliceSpliterator::new(v.clone()), true)
            .with_pool(Arc::clone(&p))
            .with_leaf_size(leaf);
        prop_assert_eq!(par().any_match(pred), spec_any);
        prop_assert_eq!(par().all_match(pred), spec_all);
        prop_assert_eq!(par().none_match(pred), !spec_any);

        // Fused non-SIZED pipeline: shift then filter to odd survivors;
        // quantify over the survivors. Estimates become upper bounds.
        let spec_fused_any = v.iter().map(|x| x * 2 + 1).filter(|x| x % 3 != 0).any(|x| x == needle);
        let fused = stream_support(SliceSpliterator::new(v.clone()), true)
            .with_pool(Arc::clone(&p))
            .with_leaf_size(leaf)
            .map(|x: i64| x * 2 + 1)
            .filter(|x: &i64| x % 3 != 0)
            .any_match(move |x: &i64| *x == needle);
        prop_assert_eq!(fused, spec_fused_any);

        // JPLF routes over the same buffer.
        let f = Matches { needle, decomp: if zip { Decomp::Zip } else { Decomp::Tie } };
        let pl = PowerList::from_vec(v.clone()).unwrap();
        let seq_exec = jplf::SequentialExecutor::new();
        let fj = jplf::ForkJoinExecutor::new(2, leaf);
        let view = pl.view();
        prop_assert_eq!(seq_exec.any_match(&f, &view), spec_any);
        prop_assert_eq!(fj.any_match(&f, &view), spec_any);
        prop_assert_eq!(seq_exec.all_match(&f, &view), spec_all);
        prop_assert_eq!(fj.all_match(&f, &view), spec_all);
        prop_assert_eq!(seq_exec.none_match(&f, &view), !spec_any);
        prop_assert_eq!(fj.none_match(&f, &view), !spec_any);
    }

    /// `find_first` is the encounter-order minimum on every route, and
    /// `find_any` returns a matching element exactly when one exists.
    #[test]
    fn find_terminals_agree(v in pow2_ints(9), needle in -40i64..40, leaf in 1usize..64) {
        let _shared = shared();
        let pred = move |x: &i64| *x == needle;
        let spec_first = v.iter().copied().find(|x| pred(x));
        let p = pool();

        let seq_first = stream_support(SliceSpliterator::new(v.clone()), false)
            .filter(pred)
            .find_first();
        prop_assert_eq!(seq_first, spec_first);

        let par_first = stream_support(SliceSpliterator::new(v.clone()), true)
            .with_pool(Arc::clone(&p))
            .with_leaf_size(leaf)
            .filter(pred)
            .find_first();
        prop_assert_eq!(par_first, spec_first);

        // Fused chain with a transform before the filter: first
        // survivor of the *mapped* pipeline, in encounter order.
        let spec_mapped_first = v.iter().map(|x| x * 3).find(|x| *x == needle);
        let fused_first = stream_support(SliceSpliterator::new(v.clone()), true)
            .with_pool(Arc::clone(&p))
            .with_leaf_size(leaf)
            .map(|x: i64| x * 3)
            .filter(move |x: &i64| *x == needle)
            .find_first();
        prop_assert_eq!(fused_first, spec_mapped_first);

        let par_any = stream_support(SliceSpliterator::new(v.clone()), true)
            .with_pool(Arc::clone(&p))
            .with_leaf_size(leaf)
            .filter(pred)
            .find_any();
        match par_any {
            Some(x) => prop_assert!(pred(&x) && spec_first.is_some()),
            None => prop_assert!(spec_first.is_none()),
        }

        // JPLF: find_first is the minimal *physical* index under tie.
        let f = Matches { needle, decomp: Decomp::Tie };
        let pl = PowerList::from_vec(v.clone()).unwrap();
        let view = pl.view();
        prop_assert_eq!(jplf::SequentialExecutor::new().find_first(&f, &view), spec_first);
        prop_assert_eq!(jplf::ForkJoinExecutor::new(2, leaf).find_first(&f, &view), spec_first);
        let jplf_any = jplf::ForkJoinExecutor::new(2, leaf).find_any(&f, &view);
        prop_assert_eq!(jplf_any.is_some(), spec_first.is_some());
        if let Some(x) = jplf_any {
            prop_assert!(pred(&x));
        }
    }

    /// Zip decomposition interleaves halves at every split (the
    /// split-off "prefix" is the even positions, not an encounter-order
    /// prefix), so find_first cannot rely on split structure for
    /// ordering. The ranked keyspace (bare/mapped zip) and the
    /// sequential degradation (filtered zip, where ranks are forfeited)
    /// must both still answer the encounter-order minimum, matching the
    /// streams sequential route exactly.
    #[test]
    fn zip_power_stream_search_agrees(v in pow2_ints(9), needle in -40i64..40,
                                      leaf in 1usize..64) {
        let _shared = shared();
        let pred = move |x: &i64| *x == needle;
        let spec_any = v.iter().any(&pred);
        let spec_first = v.iter().copied().find(|x| pred(x));
        let p = pool();
        let pl = PowerList::from_vec(v.clone()).unwrap();

        let par = || power_stream(pl.clone(), Decomposition::Zip)
            .with_pool(Arc::clone(&p))
            .with_leaf_size(leaf);
        prop_assert_eq!(par().any_match(pred), spec_any);
        prop_assert_eq!(par().filter(pred).find_first(), spec_first);
        let seq_first = power_stream(pl.clone(), Decomposition::Zip)
            .sequential()
            .filter(pred)
            .find_first();
        prop_assert_eq!(seq_first, spec_first);

        // A mapped-then-filtered chain over zip: the filter forfeits
        // the physical ranks, so this is the opaque degradation route.
        let spec_mapped = v.iter().map(|x| x * 3).find(|x| *x == needle);
        let mapped = par()
            .map(|x: i64| x * 3)
            .filter(move |x: &i64| *x == needle)
            .find_first();
        prop_assert_eq!(mapped, spec_mapped);
    }

    /// A panicking predicate surfaces as `ExecError` with its payload
    /// intact, on the sized and the fused (non-SIZED) parallel routes.
    #[test]
    fn predicate_panics_surface_as_errors(k in 6u32..10, at in 0usize..64, leaf in 1usize..64) {
        let _shared = shared();
        let n = 1usize << k;
        let trap = (at * (n / 64)) as i64;
        let v: Vec<i64> = (0..n as i64).collect();
        let p = pool();
        let cfg = ExecConfig::par().with_pool(Arc::clone(&p)).with_leaf_size(leaf);

        let pred = move |x: &i64| {
            if *x == trap {
                panic!("trapped predicate");
            }
            false
        };
        let err = stream_support(SliceSpliterator::new(v.clone()), true)
            .try_any_match(pred, &cfg)
            .unwrap_err();
        prop_assert_eq!(err.panic_message(), Some("trapped predicate"));

        let err = stream_support(SliceSpliterator::new(v.clone()), true)
            .map(|x: i64| x)
            .filter(|_| true)
            .try_any_match(pred, &cfg)
            .unwrap_err();
        prop_assert_eq!(err.panic_message(), Some("trapped predicate"));
    }
}

/// Regression: parallel `find_first` over a filtered zip power stream
/// with single-element leaves returned `Some(2)` on some schedules
/// while the sequential route returned `Some(1)` — the driver's
/// virtual-index pruning assumed prefix-order splits, which zip's
/// parity decomposition violates. Repeated to cover schedules.
#[test]
fn zip_filtered_find_first_is_deterministic() {
    let _shared = shared();
    let pl = PowerList::from_vec((0..16i64).collect()).unwrap();
    let p = pool();
    for _ in 0..50 {
        let par = power_stream(pl.clone(), Decomposition::Zip)
            .with_pool(Arc::clone(&p))
            .with_leaf_size(1)
            .filter(|x: &i64| *x == 1 || *x == 2)
            .find_first();
        assert_eq!(par, Some(1));
    }
}

/// The observability contract on recorded runs: every checkpoint that
/// observes the `Found` trip prunes its subtree (`cancels_found ==
/// early_exits` on every schedule), and on at least one schedule a
/// needle deep in the suffix leaves subtrees behind it to prune.
/// Whether anything is still pending at trip time is schedule-dependent
/// (a lone hardware thread drains leaves in pure DFS order), hence the
/// bounded retry.
#[test]
fn late_needle_records_found_and_prunes() {
    let _exclusive = exclusive();
    let n = 1usize << 14;
    let v: Vec<i64> = (0..n as i64).collect();
    let needle = (n as i64 / 16) * 13;
    let p = pool();
    let mut pruned = false;
    for _ in 0..20 {
        let (hit, report) = plobs::recorded(|| {
            stream_support(SliceSpliterator::new(v.clone()), true)
                .with_pool(Arc::clone(&p))
                .with_leaf_size(n / 64)
                .any_match(move |x: &i64| *x == needle)
        });
        assert!(hit, "the planted needle must be found");
        assert_eq!(
            report.cancels_found, report.early_exits,
            "every Found observation prunes one subtree: {report:?}"
        );
        if report.early_exits >= 1 && report.leaves_pruned >= 1 {
            pruned = true;
            break;
        }
    }
    assert!(
        pruned,
        "no schedule in 20 runs pruned a subtree on a late needle"
    );
}
