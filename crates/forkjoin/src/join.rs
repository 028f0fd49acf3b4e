//! The `join` primitive: potentially-parallel execution of two halves.
//!
//! `join(a, b)` is the fork-join kernel every divide-and-conquer operator
//! in this repository bottoms out in. Semantics match rayon/ForkJoinPool:
//!
//! * `b` is **forked** (queued on the local deque, available to thieves);
//! * `a` runs immediately on the calling thread (work-first);
//! * after `a`, the caller tries to **claim `b` back**; if a thief got it,
//!   the caller *helps* run other tasks until `b`'s latch sets.
//!
//! Called off-pool, the computation migrates onto the [global
//! pool](crate::global_pool) first.
//!
//! Panics in either half are captured and re-thrown on the joining thread
//! after both halves have come to rest, so no task is leaked mid-flight.

use crate::latch::Latch;
use crate::metrics::Counters;
use crate::pool::{current_worker, help_until, push_local, PoolState};
use crate::task::{run_captured, Job, TaskResult, TaskSlot};
use crate::ForkJoinPool;
use parking_lot::Mutex;
use std::sync::Arc;

/// Runs `a` and `b`, potentially in parallel, returning both results.
///
/// On a pool worker this forks `b` to the local deque; off-pool it
/// migrates to the [global pool](crate::global_pool). Panics are
/// propagated (if both halves panic, `a`'s payload wins, like rayon).
///
/// ```
/// let (x, y) = forkjoin::join(|| 2 + 2, || 3 * 3);
/// assert_eq!((x, y), (4, 9));
/// ```
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send + 'static,
    B: FnOnce() -> RB + Send + 'static,
    RA: Send + 'static,
    RB: Send + 'static,
{
    match current_worker() {
        Some((state, index)) => join_in_worker(&state, index, a, b),
        None if plcheck::active() => join_in_model(a, b),
        None => crate::global_pool().install(move || join(a, b)),
    }
}

/// `join` on a plcheck model thread: pool workers are real threads
/// outside the model, so `b` runs on a spawned model thread and `a`
/// inline, and the checker interleaves the two halves. Panics resolve as
/// on a worker, after both halves are at rest.
fn join_in_model<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send + 'static,
    B: FnOnce() -> RB + Send + 'static,
    RA: Send + 'static,
    RB: Send + 'static,
{
    // A std mutex: result hand-off only, not a model scheduling point.
    let b_result: Arc<std::sync::Mutex<Option<TaskResult<RB>>>> = Arc::default();
    let slot = Arc::clone(&b_result);
    let handle = plcheck::spawn(move || {
        *slot.lock().unwrap() = Some(run_captured(b));
    });
    let ra = run_captured(a);
    handle.join();
    let rb = b_result
        .lock()
        .unwrap()
        .take()
        .expect("joined model thread stored its result");
    match (ra, rb) {
        (Ok(xa), Ok(xb)) => (xa, xb),
        (Err(pa), _) => std::panic::resume_unwind(pa),
        (_, Err(pb)) => std::panic::resume_unwind(pb),
    }
}

/// `join` variant pinned to a specific pool. Off that pool's workers the
/// whole join is installed onto it.
pub fn join_on<A, B, RA, RB>(pool: &ForkJoinPool, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send + 'static,
    B: FnOnce() -> RB + Send + 'static,
    RA: Send + 'static,
    RB: Send + 'static,
{
    if let Some((state, index)) = current_worker() {
        if Arc::ptr_eq(&state, pool.state()) {
            return join_in_worker(&state, index, a, b);
        }
    }
    pool.install(move || join(a, b))
}

fn join_in_worker<A, B, RA, RB>(state: &Arc<PoolState>, index: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send + 'static,
    B: FnOnce() -> RB + Send + 'static,
    RA: Send + 'static,
    RB: Send + 'static,
{
    Counters::bump(&state.counters.joins);

    let b_latch = Arc::new(Latch::new());
    let b_result: Arc<Mutex<Option<TaskResult<RB>>>> = Arc::new(Mutex::new(None));
    let slot = TaskSlot::new(b);

    // Queue a stub that claims and runs `b` if it gets there first.
    let stub: Job = {
        let slot = Arc::clone(&slot);
        let b_latch = Arc::clone(&b_latch);
        let b_result = Arc::clone(&b_result);
        Box::new(move || {
            if let Some(f) = slot.claim() {
                let r = run_captured(f);
                *b_result.lock() = Some(r);
                b_latch.set();
            }
        })
    };
    push_local(state, stub);

    // Work-first: run `a` here and now.
    let ra = run_captured(a);

    // Try to take `b` back; otherwise help until the thief finishes it.
    let rb: TaskResult<RB> = match slot.claim() {
        Some(f) => {
            Counters::bump(&state.counters.joins_inline);
            plobs::emit(plobs::Event::PoolJoin { stolen: false });
            run_captured(f)
        }
        None => {
            Counters::bump(&state.counters.joins_stolen);
            plobs::emit(plobs::Event::PoolJoin { stolen: true });
            help_until(state, index, &b_latch);
            b_result
                .lock()
                .take()
                .expect("b latch set implies result stored")
        }
    };

    // Resolve panics only after both halves are at rest; `a` has
    // priority, matching rayon's join.
    match (ra, rb) {
        (Ok(xa), Ok(xb)) => (xa, xb),
        (Err(pa), _) => std::panic::resume_unwind(pa),
        (_, Err(pb)) => std::panic::resume_unwind(pb),
    }
}

/// Convenience: recursive parallel map over an index range using `join`,
/// splitting until `grain` indices remain. Used by tests and by the
/// simulator validation harness.
pub fn par_for_each_index(len: usize, grain: usize, f: impl Fn(usize) + Send + Sync + 'static) {
    fn go(lo: usize, hi: usize, grain: usize, f: Arc<dyn Fn(usize) + Send + Sync>) {
        if hi - lo <= grain {
            for i in lo..hi {
                f(i);
            }
            return;
        }
        let mid = lo + (hi - lo) / 2;
        let f2 = Arc::clone(&f);
        let f3 = Arc::clone(&f);
        join(
            move || go(lo, mid, grain, f2),
            move || go(mid, hi, grain, f3),
        );
    }
    go(0, len, grain.max(1), Arc::new(f));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn join_returns_both_values() {
        let pool = ForkJoinPool::new(2);
        let (a, b) = join_on(&pool, || 1 + 1, || "two");
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }

    #[test]
    fn join_works_off_pool_via_global() {
        let (a, b) = join(|| 10, || 20);
        assert_eq!((a, b), (10, 20));
    }

    #[test]
    fn deep_recursion_single_thread_pool() {
        // The help-while-waiting discipline must keep a 1-thread pool
        // deadlock-free on deeply nested joins.
        let pool = ForkJoinPool::new(1);
        fn sum(lo: u64, hi: u64) -> u64 {
            if hi - lo <= 8 {
                return (lo..hi).sum();
            }
            let mid = lo + (hi - lo) / 2;
            let (a, b) = join(move || sum(lo, mid), move || sum(mid, hi));
            a + b
        }
        let r = pool.install(|| sum(0, 4096));
        assert_eq!(r, 4096 * 4095 / 2);
    }

    #[test]
    fn deep_recursion_multi_thread_pool() {
        let pool = ForkJoinPool::new(4);
        fn fib(n: u64) -> u64 {
            if n < 10 {
                // sequential base case
                let (mut a, mut b) = (0u64, 1u64);
                for _ in 0..n {
                    let t = a + b;
                    a = b;
                    b = t;
                }
                return a;
            }
            let (x, y) = join(move || fib(n - 1), move || fib(n - 2));
            x + y
        }
        assert_eq!(pool.install(|| fib(20)), 6765);
        let m = pool.metrics();
        assert!(m.joins >= 1, "joins counted: {m:?}");
    }

    #[test]
    fn join_propagates_panic_from_a() {
        let pool = ForkJoinPool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            join_on(&pool, || panic!("left bang"), || 2)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn join_propagates_panic_from_b() {
        let pool = ForkJoinPool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            join_on(&pool, || 1, || -> i32 { panic!("right bang") })
        }));
        assert!(r.is_err());
        assert_eq!(pool.install(|| 3), 3); // pool survives
    }

    #[test]
    fn par_for_each_index_covers_range() {
        let pool = ForkJoinPool::new(3);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        pool.install(move || {
            par_for_each_index(1000, 16, move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn join_counts_inline_or_stolen() {
        let pool = ForkJoinPool::new(2);
        let before = pool.metrics();
        let _ = join_on(&pool, || 1, || 2);
        let after = pool.metrics().since(&before);
        assert_eq!(after.joins, 1);
        assert_eq!(after.joins_inline + after.joins_stolen, 1);
    }
}
