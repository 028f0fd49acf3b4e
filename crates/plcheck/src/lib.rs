//! # plcheck — a deterministic concurrency checker for the fork-join runtime
//!
//! The shared-state channel, the fork-join pool and the cancel/deadline
//! machinery of this workspace all rest on hand-vendored concurrency
//! primitives (`crossbeam-deque`, `parking_lot`, `crossbeam-channel`).
//! Ordinary tests only ever see the interleavings the OS scheduler
//! happens to produce; `plcheck` explores interleavings *on purpose*, in
//! the style of [loom](https://github.com/tokio-rs/loom):
//!
//! * a **cooperative scheduler** ([`Explorer`]) serialises N model
//!   threads and picks, at every yield point, which one runs next —
//!   from a seeded RNG (fuzzing) or a depth-first enumeration of the
//!   schedule tree (bounded exhaustive mode, for ≤ 3-thread models);
//! * the vendored primitives carry **instrumentation shims** — every
//!   deque push/pop/steal, every `parking_lot` lock acquisition, every
//!   condvar park/notify and every `CancelToken`/`Deadline` operation is
//!   a scheduling point when (and only when) it executes on a model
//!   thread; production threads never pay more than a thread-local read;
//! * **checkers** ride on top: a deadlock/lost-wakeup detector built
//!   into the scheduler (no runnable thread + no armed timer = report),
//!   a livelock step bound, the exactly-once [`TaskAccount`] oracle for
//!   the deque, and model assertions via [`fail`];
//! * time is **virtual**: timed waits and [`forkjoin`-style deadlines]
//!   resolve against a logical clock that jumps when every thread is
//!   parked, so timeout paths run deterministically and instantly.
//!
//! [`forkjoin`-style deadlines]: virtual_now_ns
//!
//! Every failing schedule prints its identity — a `u64` seed in random
//! mode, a branch-choice list in exhaustive mode — and
//! [`Explorer::replay_seed`] / [`Explorer::replay_choices`] re-run
//! exactly that interleaving, because a schedule is a pure function of
//! its choices and the (deterministic) model body.
//!
//! ## Writing a model
//!
//! A model is a closure run once per schedule on model thread 0; it
//! spawns siblings with [`spawn`] and joins them with
//! [`JoinHandle::join`]. Inside a model, the instrumented primitives
//! (`parking_lot::Mutex`/`Condvar`, the `crossbeam-deque` types,
//! `forkjoin::{Latch, CountLatch, CancelToken, Deadline}`,
//! `jstreams::SharedState`) interleave under the checker; `std::sync`
//! primitives do **not** and are reserved for oracle bookkeeping.
//! Models must not spawn raw OS threads or touch wall-clock time, and
//! should drive the *primitives* directly rather than a live
//! `ForkJoinPool` (pool workers are real threads outside the model).
//! `forkjoin::join` called off-pool on a model thread runs its second
//! half on a spawned model thread, so divide-and-conquer code built on
//! it (the `jstreams::walk` split-tree walker) can be modelled as is.
//!
//! ```
//! use std::sync::Arc;
//!
//! let report = plcheck::Explorer::exhaustive(1_000).run(|| {
//!     let account = Arc::new(plcheck::TaskAccount::new());
//!     let w = crossbeam_deque::Worker::new_lifo();
//!     let s = w.stealer();
//!     w.push(1u64);
//!     w.push(2);
//!     account.produced(1);
//!     account.produced(2);
//!     let acc = Arc::clone(&account);
//!     let thief = plcheck::spawn(move || {
//!         if let Some(t) = s.steal().success() {
//!             acc.claimed(t);
//!         }
//!     });
//!     while let Some(t) = w.pop() {
//!         account.claimed(t);
//!     }
//!     thief.join();
//!     // A task may still sit in the deque only if the thief lost the
//!     // race entirely; drain the remainder before balancing.
//!     while let Some(t) = w.pop() {
//!         account.claimed(t);
//!     }
//!     account.assert_balanced();
//! });
//! report.assert_ok();
//! ```

#![warn(missing_docs)]

mod explore;
mod oracle;
mod rng;
mod sched;

pub use explore::{Explorer, Failure, Report, ScheduleSpec};
pub use oracle::TaskAccount;
pub use sched::{
    active, block_on, fail, notify, park, release, spawn, virtual_now_ns, yield_now, yield_op,
    JoinHandle, WakeReason,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn hooks_are_inert_off_model() {
        assert!(!active());
        assert_eq!(virtual_now_ns(), None);
        yield_op("noop");
        yield_now();
        block_on(1, "noop");
        release(1);
        notify(1, true);
        assert_eq!(park(1, None, "noop"), WakeReason::Notified);
    }

    #[test]
    fn single_thread_model_runs_once_exhaustively() {
        let runs = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&runs);
        let report = Explorer::exhaustive(100).run(move || {
            r.fetch_add(1, Ordering::SeqCst);
            yield_now();
            yield_now();
        });
        report.assert_ok();
        // No branching points: the schedule tree has exactly one leaf.
        assert_eq!(report.schedules, 1);
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn two_thread_model_explores_both_orders() {
        // Record which thread reaches the shared cell first; both
        // orders must occur across the enumeration.
        let first: Arc<std::sync::Mutex<Vec<usize>>> = Arc::default();
        let f = Arc::clone(&first);
        let report = Explorer::exhaustive(1_000).run(move || {
            let cell = Arc::new(std::sync::Mutex::new(None::<usize>));
            let c = Arc::clone(&cell);
            let t = spawn(move || {
                yield_now();
                c.lock().unwrap().get_or_insert(1);
            });
            yield_now();
            cell.lock().unwrap().get_or_insert(0);
            t.join();
            f.lock().unwrap().push(cell.lock().unwrap().unwrap());
        });
        report.assert_ok();
        assert!(report.schedules >= 2, "saw {} schedules", report.schedules);
        let seen = first.lock().unwrap();
        assert!(
            seen.contains(&0) && seen.contains(&1),
            "orders seen: {seen:?}"
        );
    }

    #[test]
    fn deadlock_is_detected_and_reported() {
        // A thread that parks forever with nobody to notify it.
        let report = Explorer::exhaustive(10).run(|| {
            park(0xDEAD, None, "orphan-park");
        });
        let f = report.expect_failure("orphaned park");
        assert!(f.message.contains("deadlock"), "message: {}", f.message);
        assert!(f.trace.contains("orphan-park"), "trace: {}", f.trace);
    }

    #[test]
    fn livelock_hits_the_step_bound() {
        let report = Explorer::exhaustive(10).with_max_steps(50).run(|| loop {
            yield_now();
        });
        let f = report.expect_failure("livelock");
        assert!(f.message.contains("step bound"), "message: {}", f.message);
    }

    #[test]
    fn timed_park_wakes_via_virtual_clock() {
        let report = Explorer::exhaustive(10).run(|| {
            let before = virtual_now_ns().unwrap();
            let why = park(7, Some(std::time::Duration::from_micros(50)), "timed-park");
            assert_eq!(why, WakeReason::TimedOut);
            let after = virtual_now_ns().unwrap();
            assert!(
                after >= before + 50_000,
                "clock must jump: {before} -> {after}"
            );
        });
        report.assert_ok();
    }

    #[test]
    fn fail_aborts_all_threads() {
        let report = Explorer::exhaustive(10).run(|| {
            let _t = spawn(|| {
                // Never notified; teardown must still unwind it.
                park(9, None, "victim-park");
            });
            yield_now();
            fail("model says no");
        });
        let f = report.expect_failure("explicit fail");
        assert!(f.message.contains("model says no"));
    }

    #[test]
    fn random_mode_is_deterministic_per_seed() {
        let model = || {
            let t = spawn(|| {
                yield_now();
            });
            yield_now();
            t.join();
        };
        let a = Explorer::replay_seed(0x1234).run(model);
        let b = Explorer::replay_seed(0x1234).run(model);
        a.assert_ok();
        b.assert_ok();
    }
}
