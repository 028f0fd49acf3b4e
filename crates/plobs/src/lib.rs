//! # plobs — unified observability for the divide-and-conquer tree
//!
//! The paper's evaluation (Section V, Figure 3) argues from *where* a
//! PowerList computation spends its time: the descending/splitting
//! phase, the leaf phase, the ascending/combining phase, and — for the
//! parallel executors — how evenly the scheduler spreads that work.
//! This crate is the cross-cutting instrumentation layer that makes
//! those claims measurable on every execution route the repository
//! implements:
//!
//! * [`Event`] — one structured event per interesting occurrence:
//!   splits (with tree depth), leaves (with the [`LeafRoute`] the
//!   collect driver dispatched to), combines, fork-join pool activity
//!   (per-worker executes, steals, parks, join dispositions),
//!   [`SharedState`](https://docs.rs/) lock contention, and MPI-sim
//!   message traffic;
//! * [`EventSink`] — where events go. Installation is process-global
//!   ([`install`] / [`uninstall`]); when no sink is installed, every
//!   emission short-circuits on one relaxed atomic load
//!   (the **zero-cost-when-disabled contract** — see DESIGN.md);
//! * [`RunRecorder`] — the standard sink: lock-cheap per-thread shards
//!   of relaxed atomic counters, merged on [`RunRecorder::finish`] into
//!   a [`RunReport`];
//! * [`RunReport`] — the aggregate: split-depth histogram, leaf-route
//!   histogram, phase shares (`descend_share`/`leaf_share`/
//!   `ascend_share`), per-worker steal ratios, per-rank message counts,
//!   and a self-describing JSON rendering for `BENCH_*.json` trajectory
//!   rows.
//!
//! The convenience wrapper [`recorded`] serialises recording sections
//! process-wide (installation is global, so overlapping recordings
//! would cross-talk), making it safe to assert on reports from
//! concurrently running tests:
//!
//! ```
//! use plobs::{recorded, Event, LeafRoute};
//!
//! let (value, report) = recorded(|| {
//!     plobs::emit(Event::Split { depth: 0, adaptive: false });
//!     plobs::emit(Event::Leaf { route: LeafRoute::ZeroCopy, items: 8, ns: 120 });
//!     plobs::emit(Event::Leaf { route: LeafRoute::ZeroCopy, items: 8, ns: 110 });
//!     plobs::emit(Event::Combine { depth: 0, ns: 40, placement: false });
//!     42
//! });
//! assert_eq!(value, 42);
//! assert_eq!(report.splits, 1);
//! assert_eq!(report.routes.zero_copy.leaves, 2);
//! assert_eq!(report.routes.zero_copy.items, 16);
//! assert!(plobs::json::validate(&report.to_json()).is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod json;
pub mod recorder;
pub mod report;

pub use event::{CancelReason, Event, FallbackReason, LeafRoute, StealSource, TuneOutcome};
pub use recorder::RunRecorder;
pub use report::{RankStats, RouteHistogram, RouteStats, RunReport, WorkerStats};

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Anything that consumes [`Event`]s. Implementations must be cheap and
/// non-blocking on the record path — they are called from pool workers
/// and MPI-sim rank threads.
pub trait EventSink: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: &Event);
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn EventSink>>> = RwLock::new(None);

/// `true` while a sink is installed. Instrumentation sites use this to
/// skip *measurement* work (`Instant::now`, size queries) entirely when
/// nobody is listening — the zero-cost-when-disabled contract.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Emits one event to the installed sink, if any. When no sink is
/// installed this is a single relaxed atomic load and a branch.
#[inline]
pub fn emit(event: Event) {
    if enabled() {
        emit_slow(&event);
    }
}

#[cold]
fn emit_slow(event: &Event) {
    // Poisoning is transparent: a sink that panicked while recording
    // must not wedge every later emission.
    let sink = SINK.read().unwrap_or_else(PoisonError::into_inner);
    if let Some(sink) = sink.as_ref() {
        sink.record(event);
    }
}

/// Installs `sink` as the process-global event sink, replacing any
/// previous one. Prefer [`recorded`], which serialises concurrent
/// recording sections and guarantees uninstallation.
pub fn install(sink: Arc<dyn EventSink>) {
    *SINK.write().unwrap_or_else(PoisonError::into_inner) = Some(sink);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Removes the global sink; subsequent emissions short-circuit.
pub fn uninstall() {
    ENABLED.store(false, Ordering::Relaxed);
    *SINK.write().unwrap_or_else(PoisonError::into_inner) = None;
}

/// Forwards to the globally installed sink. Lets code that takes an
/// explicit `&dyn EventSink` (the JPLF instrumented recursion) publish
/// to whatever [`install`]ed sink is active.
pub struct GlobalSink;

impl EventSink for GlobalSink {
    fn record(&self, event: &Event) {
        emit(*event);
    }
}

/// Serialises [`recorded`] sections: installation is process-global, so
/// two overlapping recordings would observe each other's events.
static RECORD_GUARD: Mutex<()> = Mutex::new(());

/// Runs `f` with a fresh [`RunRecorder`] installed as the global sink
/// and returns `f`'s result together with the merged [`RunReport`].
///
/// Recording sections are mutually exclusive process-wide (a global
/// lock), so concurrent tests asserting on reports cannot cross-talk;
/// the sink is uninstalled even if `f` panics.
pub fn recorded<R>(f: impl FnOnce() -> R) -> (R, RunReport) {
    let _serial = RECORD_GUARD.lock();
    let recorder = Arc::new(RunRecorder::new());
    install(Arc::clone(&recorder) as Arc<dyn EventSink>);
    // Uninstall on unwind too, or a panicking section would leave the
    // sink (and its recorder) live for unrelated code.
    struct Uninstall;
    impl Drop for Uninstall {
        fn drop(&mut self) {
            uninstall();
        }
    }
    let guard = Uninstall;
    let out = f();
    drop(guard);
    (out, recorder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_emissions_are_dropped() {
        let _serial = RECORD_GUARD.lock();
        assert!(!enabled());
        emit(Event::Split {
            depth: 3,
            adaptive: false,
        }); // must not panic or store
    }

    #[test]
    fn recorded_scopes_install_and_uninstall() {
        let ((), report) = recorded(|| {
            assert!(enabled());
            emit(Event::Leaf {
                route: LeafRoute::CloningDrain,
                items: 5,
                ns: 10,
            });
        });
        assert!(!enabled());
        assert_eq!(report.routes.cloning_drain.leaves, 1);
        assert_eq!(report.routes.cloning_drain.items, 5);
    }

    #[test]
    fn recorded_uninstalls_on_panic() {
        let r = std::panic::catch_unwind(|| {
            recorded(|| -> i32 { panic!("section bang") });
        });
        assert!(r.is_err());
        assert!(!enabled(), "panicking section must uninstall the sink");
        // And the lock was released: a fresh section still works.
        let (v, _) = recorded(|| 7);
        assert_eq!(v, 7);
    }

    #[test]
    fn events_from_other_threads_reach_the_recorder() {
        let ((), report) = recorded(|| {
            let hs: Vec<_> = (0..4)
                .map(|w| {
                    std::thread::spawn(move || {
                        for _ in 0..10 {
                            emit(Event::PoolExecute { worker: w });
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
        });
        assert_eq!(report.executed, 40);
        assert_eq!(report.per_worker.len(), 4);
        assert!(report.per_worker.iter().all(|w| w.executed == 10));
    }

    #[test]
    fn global_sink_forwards() {
        let ((), report) = recorded(|| {
            let fwd = GlobalSink;
            fwd.record(&Event::Combine {
                depth: 2,
                ns: 99,
                placement: false,
            });
        });
        assert_eq!(report.combines, 1);
        assert_eq!(report.ascend_ns, 99);
    }
}
