//! Split-granularity policies for divide-and-conquer drivers.
//!
//! The paper leaves leaf granularity to the JVM ("the splitting is
//! automatically stopped when a limit that depends on the system is
//! attained", Section V). This module makes that limit an explicit,
//! selectable policy shared by every recursive driver in the repository:
//! [`SplitPolicy::stop`] is the one stop rule of the jstreams split-tree
//! walker (collect, placement, search, and the JPLF fork-join executor)
//! and of the pltune calibration probe.
//!
//! * [`SplitPolicy::Fixed`] — the original static threshold: stop
//!   splitting once a node's size drops to `leaf_size`. Deterministic
//!   tree shape, kept as the mode that reproduces the paper's Figure 3.
//! * [`SplitPolicy::Adaptive`] — demand-driven splitting from pool
//!   pressure, the analogue of guiding forks by
//!   `ForkJoinTask::getSurplusQueuedTaskCount`: a node keeps splitting
//!   while the local worker's deque is (nearly) empty or steals are
//!   being observed, bounded by a depth cap of `log2(threads) + slack`
//!   and a minimum sequential cutoff so leaves stay large enough for the
//!   zero-copy leaf kernels to pay off.
//!
//! The pressure inputs come from [`WorkerProbe`](crate::WorkerProbe)
//! (local queue depth, pool-wide steal count), both a handful of cheap
//! loads on the hot path.

use crate::pool::current_probe;

/// Depth slack over `log2(threads)` used when a policy does not carry
/// its own: the cap allows `2^slack` leaves per worker, enough slack for
/// stealing to balance skewed subtrees.
pub const DEFAULT_DEPTH_SLACK: u32 = 4;

/// `ceil(log2(n))` for `n ≥ 1` (0 for `n ≤ 1`) — the fork depth at
/// which every worker of an `n`-thread pool can own a subtree.
pub fn ceil_log2(n: usize) -> u32 {
    n.max(1).next_power_of_two().trailing_zeros()
}

/// Tuning knobs of the demand-driven policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveSplit {
    /// Sequential cutoff: nodes of an exactly-sized source at or below
    /// this many elements are never split further, keeping leaves large
    /// enough that per-leaf dispatch (and the zero-copy kernels behind
    /// it) stays profitable.
    pub min_leaf: usize,
    /// Extra depth over `log2(threads)` the splitter may descend while
    /// demand persists.
    pub depth_slack: u32,
    /// Surplus-task threshold: keep splitting while the local deque
    /// holds at most this many queued tasks (the
    /// `getSurplusQueuedTaskCount` heuristic).
    pub surplus: usize,
}

impl Default for AdaptiveSplit {
    fn default() -> Self {
        AdaptiveSplit {
            min_leaf: 1024,
            depth_slack: DEFAULT_DEPTH_SLACK,
            surplus: 2,
        }
    }
}

/// How a divide-and-conquer driver decides whether to split a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitPolicy {
    /// Stop splitting once a node's (exact) size drops to the given
    /// leaf size — today's static behaviour, the Figure-3 reproduction
    /// mode. Sources without an exact size split to the depth cap
    /// instead (their size estimate is only an upper bound).
    Fixed(usize),
    /// Demand-driven splitting from pool pressure; see [`AdaptiveSplit`].
    Adaptive(AdaptiveSplit),
}

impl SplitPolicy {
    /// The adaptive policy with default tuning.
    pub fn adaptive() -> SplitPolicy {
        SplitPolicy::Adaptive(AdaptiveSplit::default())
    }

    /// `true` for [`SplitPolicy::Adaptive`].
    pub fn is_adaptive(&self) -> bool {
        matches!(self, SplitPolicy::Adaptive(_))
    }

    /// Hard bound on split depth for a pool of `threads` workers:
    /// `log2(threads) + slack`. Applies to adaptive descent always and
    /// to fixed descent over sources without an exact size.
    pub fn depth_cap(&self, threads: usize) -> u32 {
        let slack = match self {
            SplitPolicy::Fixed(_) => DEFAULT_DEPTH_SLACK,
            SplitPolicy::Adaptive(a) => a.depth_slack,
        };
        ceil_log2(threads) + slack
    }

    /// The stop rule of every binary divide-and-conquer driver: whether
    /// a node at `depth` becomes a leaf, given its `exact` size and the
    /// run's depth `cap`. Returns `(stop, steals_now)`; callers thread
    /// `steals_now` into the node's children (see [`demand_split`]).
    ///
    /// `exact` is `Some` iff the source is SIZED. The size-based stop is
    /// only sound on an exact size: an upper-bound estimate (a `filter`
    /// chain) would serialize surviving work into one oversized leaf, so
    /// such nodes descend to the depth cap and let the source's own
    /// split refusal terminate. A [`SplitPolicy::Fixed`] node of exact
    /// size ignores the cap (the static tree shape of the paper's
    /// Figure 3). An adaptive node stops at the cap or at `min_leaf`,
    /// and otherwise asks the calling worker's pressure probe.
    pub fn stop(
        &self,
        exact: Option<usize>,
        depth: u32,
        cap: u32,
        steals_seen: u64,
    ) -> (bool, u64) {
        match *self {
            SplitPolicy::Fixed(leaf_size) => {
                let stop = match exact {
                    Some(size) => size <= leaf_size,
                    None => depth >= cap,
                };
                (stop, steals_seen)
            }
            SplitPolicy::Adaptive(a) => {
                if depth >= cap || exact.is_some_and(|size| size <= a.min_leaf) {
                    (true, steals_seen)
                } else {
                    let (wants_split, now) = demand_split(a.surplus, steals_seen);
                    (!wants_split, now)
                }
            }
        }
    }
}

/// One demand-driven split decision, taken from the calling worker's
/// pressure probe: split while the local deque holds at most `surplus`
/// tasks **or** pool-wide steals have advanced past `steals_seen` (a
/// thief is draining queued work, so feeding it is worthwhile).
///
/// Returns `(wants_split, steals_now)`; callers thread `steals_now`
/// into child nodes so each level compares against its parent's
/// observation.
///
/// **Off-pool contract**: a caller with no worker context (an external
/// thread, e.g. a shutdown-race fallback or a calibration probe run
/// before install) always splits and leaves `steals_seen` untouched.
/// This is correct — not over-eager — because an off-worker `join`
/// migrates both halves onto the global pool, where the split buys real
/// parallelism; once the halves land on workers, their own probes take
/// over the decision. What off-pool callers must NOT reuse is a depth
/// cap computed for some *other* pool's width: the cap has to budget
/// the pool that will execute the joins (the caller's own pool for a
/// worker thread, the global pool otherwise). Pinned by the
/// `demand_split_off_pool_always_splits_deterministically` plcheck
/// model and the drivers' fallback tests.
pub fn demand_split(surplus: usize, steals_seen: u64) -> (bool, u64) {
    match current_probe() {
        Some(probe) => {
            let now = probe.steal_pressure();
            (probe.queue_depth() <= surplus || now > steals_seen, now)
        }
        None => (true, steals_seen),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ForkJoinPool;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }

    #[test]
    fn depth_cap_grows_with_threads_and_slack() {
        assert_eq!(SplitPolicy::Fixed(64).depth_cap(1), DEFAULT_DEPTH_SLACK);
        assert_eq!(SplitPolicy::Fixed(64).depth_cap(8), 3 + DEFAULT_DEPTH_SLACK);
        let tight = SplitPolicy::Adaptive(AdaptiveSplit {
            depth_slack: 1,
            ..AdaptiveSplit::default()
        });
        assert_eq!(tight.depth_cap(4), 3);
    }

    #[test]
    fn adaptive_constructor_uses_defaults() {
        let p = SplitPolicy::adaptive();
        assert!(p.is_adaptive());
        assert_eq!(p, SplitPolicy::Adaptive(AdaptiveSplit::default()));
        assert!(!SplitPolicy::Fixed(16).is_adaptive());
    }

    #[test]
    fn fixed_stops_on_exact_size_and_inexact_at_the_cap() {
        let fixed = SplitPolicy::Fixed(64);
        // Exact sizes stop on the leaf threshold alone, at any depth.
        assert_eq!(fixed.stop(Some(64), 0, 3, 5), (true, 5));
        assert_eq!(fixed.stop(Some(65), 0, 3, 5), (false, 5));
        assert_eq!(
            fixed.stop(Some(65), 9, 3, 5),
            (false, 5),
            "exact ignores the cap"
        );
        // An upper-bound estimate never stops on size: only the cap.
        assert_eq!(fixed.stop(None, 2, 3, 5), (false, 5));
        assert_eq!(fixed.stop(None, 3, 3, 5), (true, 5));
    }

    #[test]
    fn adaptive_stops_at_cap_and_min_leaf_and_ignores_estimates() {
        let adaptive = SplitPolicy::Adaptive(AdaptiveSplit {
            min_leaf: 100,
            ..AdaptiveSplit::default()
        });
        assert_eq!(
            adaptive.stop(Some(1 << 20), 4, 4, 7),
            (true, 7),
            "at the cap"
        );
        assert_eq!(adaptive.stop(Some(100), 0, 4, 7), (true, 7), "at min_leaf");
        assert_eq!(
            adaptive.stop(None, 4, 4, 7),
            (true, 7),
            "inexact at the cap"
        );
        // An upper bound below `min_leaf` is not a size: off-pool, the
        // node keeps splitting.
        assert_eq!(adaptive.stop(None, 0, 4, 7), (false, 7));
    }

    #[test]
    fn stop_off_pool_always_splits_below_the_cap() {
        // No worker context: demand is assumed, the snapshot is kept.
        let adaptive = SplitPolicy::adaptive();
        assert_eq!(adaptive.stop(Some(1 << 20), 0, 8, 3), (false, 3));
        assert_eq!(adaptive.stop(None, 7, 8, 3), (false, 3));
    }

    #[test]
    fn demand_split_off_pool_always_splits() {
        let (wants, now) = demand_split(0, 7);
        assert!(wants);
        assert_eq!(now, 7, "off-pool callers keep their snapshot");
    }

    #[test]
    fn demand_split_on_idle_worker_splits() {
        let pool = ForkJoinPool::new(2);
        let (wants, _) = pool.install(|| demand_split(2, u64::MAX));
        // A freshly-installed task sees an empty local deque.
        assert!(wants);
    }
}
