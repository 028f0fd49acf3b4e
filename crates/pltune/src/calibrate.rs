//! First-sight calibration: the candidate grid and the synthetic probe
//! that times it.
//!
//! The probe is a self-contained recursive reduce built directly on
//! [`forkjoin::join`] that takes the split-tree walker's decisions: the
//! same stop rule ([`SplitPolicy::stop`]: `Fixed` stops on exact size,
//! `Adaptive` on depth cap / `min_leaf` / pool demand), the same
//! `depth_cap(threads)` bound. It deliberately measures the *machine ×
//! pool × granularity* trade-off rather than the user's workload — the
//! user's source is consumed by the collect and cannot be re-run, but
//! split/fork overhead versus leaf amortisation is a property of the
//! pool, which is exactly what a split policy tunes.
//!
//! Candidates are timed with `Instant`, not a nested
//! [`plobs::recorded`] section: recording installs a process-global
//! sink behind a non-reentrant guard, so re-entering it from inside a
//! benchmark's recorded run would deadlock. When a sink *is* installed,
//! the probe's own splits/joins flow into it like any other pool work —
//! calibration overhead stays visible in the outer report.

use crate::plan::Plan;
use forkjoin::{ForkJoinPool, SplitPolicy};
use std::time::Instant;

/// Hard bound on probe recursion depth, over any policy's cap.
const MAX_PROBE_DEPTH: u32 = 40;

/// Probe sizes are clamped to `2^10 ..= 2^20` elements: small enough
/// that a full sweep stays in the low milliseconds, large enough that
/// split overhead is measurable against leaf work.
pub fn probe_size(size_bucket: u32) -> usize {
    1usize << size_bucket.clamp(10, 20)
}

/// The candidate grid for an input of `n` elements on `threads`
/// workers: the driver's default fixed leaf, a 4× finer and a 4×
/// coarser fixed leaf, and the default adaptive policy.
pub fn candidate_policies(n: usize, threads: usize) -> Vec<SplitPolicy> {
    let default_leaf = (n / (4 * threads.max(1))).max(1);
    let raw = [
        SplitPolicy::Fixed(default_leaf),
        SplitPolicy::Fixed((default_leaf / 4).max(1)),
        SplitPolicy::Fixed(default_leaf.saturating_mul(4).min(n.max(1))),
        SplitPolicy::adaptive(),
    ];
    let mut out: Vec<SplitPolicy> = Vec::with_capacity(raw.len());
    for p in raw {
        if !out.contains(&p) {
            out.push(p);
        }
    }
    out
}

/// Times one synthetic reduce of `n` elements under `policy` on `pool`,
/// in nanoseconds.
pub fn probe_reduce(pool: &ForkJoinPool, n: usize, policy: SplitPolicy) -> u64 {
    let cap = policy.depth_cap(pool.threads());
    let t0 = Instant::now();
    let run = move || reduce_node(0, n as u64, 0, cap, policy, 0);
    let result = match pool.try_install(run) {
        Ok(v) => v,
        // Shutdown race: the closure never ran; execute it here (its
        // joins migrate to the global pool off-worker).
        Err(f) => f(),
    };
    std::hint::black_box(result);
    t0.elapsed().as_nanos() as u64
}

/// Runs the calibration sweep: one warm-up, then each candidate timed
/// twice (best of two, to shave scheduler noise). Returns the winning
/// plan.
pub fn run_sweep(pool: &ForkJoinPool, probe_n: usize, candidates: &[SplitPolicy]) -> Plan {
    assert!(!candidates.is_empty(), "empty candidate grid");
    // Warm-up wakes parked workers so the first candidate is not
    // charged for thread spin-up.
    let _ = probe_reduce(pool, probe_n, candidates[0]);
    let mut best = candidates[0];
    let mut best_ns = u64::MAX;
    for &cand in candidates {
        let ns = probe_reduce(pool, probe_n, cand).min(probe_reduce(pool, probe_n, cand));
        if ns < best_ns {
            best_ns = ns;
            best = cand;
        }
    }
    Plan {
        policy: best,
        score_ns: best_ns,
        candidates: candidates.len() as u32,
    }
}

/// Per-element probe work: an LCG scramble, roughly the cost of a cheap
/// map + reduce step, so leaf amortisation resembles the benchmarked
/// pipelines.
fn leaf_sum(start: u64, len: u64) -> u64 {
    let mut acc = 0u64;
    for i in start..start + len {
        let x = i
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        acc = acc.wrapping_add(x ^ (x >> 29));
    }
    acc
}

/// The probe recursion: the drivers' stop rule ([`SplitPolicy::stop`])
/// over an exactly-sized synthetic range — the same decisions the
/// split-tree walker takes over a SIZED source. It keeps its own `join`
/// because `pltune` sits below `jstreams` in the dependency graph.
fn reduce_node(
    start: u64,
    len: u64,
    depth: u32,
    cap: u32,
    policy: SplitPolicy,
    steals_seen: u64,
) -> u64 {
    let (stop, steals_next) = if len < 2 || depth >= MAX_PROBE_DEPTH {
        (true, steals_seen)
    } else {
        policy.stop(Some(len as usize), depth, cap, steals_seen)
    };
    if stop {
        return leaf_sum(start, len);
    }
    let half = len / 2;
    let (a, b) = forkjoin::join(
        move || reduce_node(start, half, depth + 1, cap, policy, steals_next),
        move || {
            reduce_node(
                start + half,
                len - half,
                depth + 1,
                cap,
                policy,
                steals_next,
            )
        },
    );
    a.wrapping_add(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn probe_sizes_are_clamped() {
        assert_eq!(probe_size(0), 1 << 10);
        assert_eq!(probe_size(14), 1 << 14);
        assert_eq!(probe_size(26), 1 << 20);
    }

    #[test]
    fn candidate_grid_is_deduped_and_covers_adaptive() {
        let c = candidate_policies(1 << 16, 4);
        assert!(c.len() >= 2);
        assert!(c.iter().any(|p| p.is_adaptive()));
        assert!(c.iter().any(|p| matches!(p, SplitPolicy::Fixed(_))));
        let mut seen = Vec::new();
        for p in &c {
            assert!(!seen.contains(p), "duplicate candidate {p:?}");
            seen.push(*p);
        }
        // Tiny inputs collapse the fixed candidates onto leaf 1.
        let tiny = candidate_policies(2, 64);
        assert!(tiny.len() >= 2);
    }

    #[test]
    fn probe_result_is_policy_independent() {
        // The reduce must compute the same sum regardless of where the
        // tree stops splitting — the probe times work, not answers.
        let n = 1u64 << 12;
        let whole = reduce_node(0, n, 0, 10, SplitPolicy::Fixed(n as usize), 0);
        let split = reduce_node(0, n, 0, 10, SplitPolicy::Fixed(64), 0);
        let adaptive = reduce_node(0, n, 0, 4, SplitPolicy::adaptive(), 0);
        assert_eq!(whole, split);
        assert_eq!(whole, adaptive);
        assert_eq!(whole, leaf_sum(0, n));
    }

    #[test]
    fn sweep_returns_a_candidate_with_a_finite_score() {
        let pool = Arc::new(ForkJoinPool::new(2));
        let candidates = candidate_policies(1 << 12, pool.threads());
        let plan = run_sweep(&pool, 1 << 12, &candidates);
        assert!(candidates.contains(&plan.policy));
        assert!(plan.score_ns > 0 && plan.score_ns < u64::MAX);
        assert_eq!(plan.candidates as usize, candidates.len());
    }

    #[test]
    fn probe_survives_a_shut_down_pool() {
        let pool = Arc::new(ForkJoinPool::new(1));
        pool.shutdown();
        // try_install fails; the probe must still complete on the
        // caller (joins migrate to the global pool).
        let ns = probe_reduce(&pool, 1 << 10, SplitPolicy::Fixed(256));
        assert!(ns > 0);
    }
}
