//! # pltune — self-tuning split-policy calibration with a plan cache
//!
//! The paper's Figure 3 shows speedup is acutely sensitive to leaf
//! granularity, yet a fixed `n / (4 × threads)` heuristic (or the
//! demand-driven adaptive policy) rediscovers its configuration from
//! scratch on every collect. This crate closes the loop the ROADMAP
//! names ("fast as the hardware allows", caching): it measures which
//! [`SplitPolicy`] actually wins for a pipeline *shape* and remembers
//! the answer across runs — and, via JSON persistence, across
//! processes.
//!
//! * [`Fingerprint`] — identifies a pipeline by source/fused-chain type
//!   summary, collector type summary, size bucket (`⌊log2 n⌋`), whether
//!   the size is exact (`SIZED`), and pool width;
//! * [`PlanCache`] — a concurrent, `Arc`-shared map from fingerprint to
//!   [`Plan`]. A miss claims a [`CalibrationTicket`] under the lock, so
//!   exactly one thread calibrates a given fingerprint while racers
//!   proceed untuned ([`Lookup::Busy`]); plans for other pool widths
//!   are invalidated when the width changes;
//! * [`run_sweep`] / [`candidate_policies`] — the first-sight
//!   calibration: a short sweep over fixed leaf sizes and the adaptive
//!   policy, timed on a synthetic divide-and-conquer reduce built
//!   directly on [`forkjoin::join`] that takes the split-tree walker's
//!   decisions (the same [`SplitPolicy::stop`], the same depth caps);
//! * [`resolve`] — the one-call driver used by `jstreams` /`jplf`:
//!   hit → cached policy (emits [`TuneOutcome::Hit`]); vacant → claim,
//!   sweep, install, use the winner (emits [`TuneOutcome::Calibrate`]);
//!   busy → `None`, caller falls back to its default (emits
//!   [`TuneOutcome::Miss`]).
//!
//! Calibration times candidates with `Instant` rather than nesting
//! [`plobs::recorded`]: recorded sections hold a non-reentrant
//! process-global guard, so a tuner that re-entered it from inside a
//! benchmark's recorded section would deadlock. Tune outcomes still
//! reach whatever sink is installed through ordinary [`plobs::emit`],
//! which is how `RunReport::tune_*` counters prove a warmed cache
//! skipped calibration.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod calibrate;
pub mod fingerprint;
pub mod plan;

pub use cache::{CalibrationTicket, Lookup, PlanCache};
pub use calibrate::{candidate_policies, probe_reduce, probe_size, run_sweep};
pub use fingerprint::{size_bucket, summarize_type, Fingerprint};
pub use plan::Plan;

use forkjoin::{ForkJoinPool, SplitPolicy};
use plobs::{Event, TuneOutcome};
use std::sync::Arc;

/// Resolves a split policy for `fp` against `cache`, calibrating on
/// `pool` when this thread claims a vacant slot. Returns `None` when
/// another thread is already calibrating this fingerprint — the caller
/// should proceed with its default policy rather than wait.
///
/// Emits one [`Event::Tune`] per call with the outcome.
pub fn resolve(
    cache: &Arc<PlanCache>,
    pool: &ForkJoinPool,
    fp: &Fingerprint,
) -> Option<SplitPolicy> {
    match cache.lookup(fp) {
        Lookup::Hit(plan) => {
            plobs::emit(Event::Tune {
                outcome: TuneOutcome::Hit,
            });
            Some(plan.policy)
        }
        Lookup::Busy => {
            plobs::emit(Event::Tune {
                outcome: TuneOutcome::Miss,
            });
            None
        }
        Lookup::Claimed(ticket) => {
            plobs::emit(Event::Tune {
                outcome: TuneOutcome::Calibrate,
            });
            let n = probe_size(fp.size_bucket);
            let plan = run_sweep(pool, n, &candidate_policies(n, pool.threads()));
            let policy = plan.policy;
            // A panic inside the sweep drops the ticket uninstalled,
            // reverting the slot to vacant for a later retry.
            ticket.install(plan);
            Some(policy)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_calibrates_once_then_hits() {
        let cache = Arc::new(PlanCache::new());
        let pool = Arc::new(ForkJoinPool::new(2));
        let fp = Fingerprint::new("probe<u64>", "sum", 1 << 12, true, pool.threads());

        let ((), report) = plobs::recorded(|| {
            let first = resolve(&cache, &pool, &fp).expect("first sight calibrates");
            let second = resolve(&cache, &pool, &fp).expect("second sight hits");
            assert_eq!(first, second, "the installed winner must be served back");
        });
        assert_eq!(report.tune_calibrations, 1);
        assert_eq!(report.tune_hits, 1);
        assert_eq!(report.tune_misses, 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn resolve_misses_while_a_ticket_is_held() {
        let cache = Arc::new(PlanCache::new());
        let pool = Arc::new(ForkJoinPool::new(1));
        let fp = Fingerprint::new("p", "c", 64, true, pool.threads());
        let ticket = match cache.lookup(&fp) {
            Lookup::Claimed(t) => t,
            _ => panic!("fresh cache must claim"),
        };
        let ((), report) = plobs::recorded(|| {
            assert!(resolve(&cache, &pool, &fp).is_none(), "busy slot → default");
        });
        assert_eq!(report.tune_misses, 1);
        drop(ticket);
        // The abandoned ticket reverted the slot: next sight calibrates.
        assert!(matches!(cache.lookup(&fp), Lookup::Claimed(_)));
    }
}
