//! # streambench — one benchmark for the PowerList streams stack
//!
//! The binary times four workloads from outside the library, through
//! public `jstreams`/`forkjoin`/`plalgo`/`plobs` calls only:
//!
//! | workload | pipeline | n |
//! |---|---|---|
//! | `poly_eval` | Eq. 4 `PolynomialCollector` over a hooked zip view | 2^22 f64 |
//! | `map_zip_collect` | zip view `.map(3x+1)` → `PowerListCollector(Zip)` | 2^21 i64 |
//! | `small_filter_reduce` | tie view `.map(x²+1).filter(odd).reduce(+)` | 2^14 i64 |
//! | `find_first` | tie view over a permutation, `.filter(==needle).find_first()` | 2^20 i64 |
//!
//! Each workload runs a ladder of rungs — a hand-written loop, the
//! sequential stream, the parallel driver on a 1-worker pool, and on an
//! `nproc`-worker pool — in interleaved rounds, so the cost of each
//! layer is the difference between two adjacent rungs. A separate
//! `--trace 1` run adds per-layer probes, recorded `plobs` run reports
//! and a Chrome trace of benchmark-side spans. `README.md` beside this
//! crate lists every metric and which end-to-end metric each layer
//! metric should move.
//!
//! This library holds what the binary and its tests share: the metric
//! tables ([`END_TO_END`], [`PER_LAYER`], [`WORKLOADS`]), order
//! statistics ([`stats`]), seeded inputs ([`rng`]), the span log
//! ([`trace`]) and the counting allocator behind `peak_heap_mib`
//! ([`heap`]).

#![warn(missing_docs)]

pub mod heap;
pub mod rng;
pub mod stats;
pub mod trace;

use stats::{Better, Bound};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "poly_eval",
    "map_zip_collect",
    "small_filter_reduce",
    "find_first",
];

/// An end-to-end metric: what a user of the streams library sees. Call
/// times are in units of the hand-written loop's time on the same
/// input, measured in the same rounds: the cost of the library over
/// writing the loop by hand, with the shared host's drifting speed
/// cancelled out.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// How far it may worsen before a change counts as a regression.
    pub bound: Bound,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, rel: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound: Bound {
            rel,
            abs_floor: 0.0,
        },
    }
}

/// The end-to-end metrics, reported by every untraced run.
pub const END_TO_END: [EndToEnd; 5] = [
    // Set-up is repeated within a run and its first quartile reported;
    // it gets the widest bound, plus a floor (used by `compare`) so
    // sub-millisecond set-ups are not judged on scheduler noise.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound {
            rel: 0.25,
            abs_floor: 0.02,
        },
    },
    e2e("par_over_hand", "ratio", Better::Lower, 0.25),
    e2e("par_p90_over_p50", "ratio", Better::Lower, 0.20),
    e2e("seq_over_hand", "ratio", Better::Lower, 0.25),
    e2e("peak_heap_mib", "MiB", Better::Lower, 0.10),
];

/// A per-layer metric, reported by `--trace 1` runs. It has no bound.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    /// Metric name (`<layer>.<metric>`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics, reported by every `--trace 1` run, every
/// workload (a metric whose layer a workload does not reach reads 0).
pub const PER_LAYER: [Layer; 36] = [
    layer("ladder.hand_ms_p50", "ms", Lower),
    layer("ladder.seq_ms_p50", "ms", Lower),
    layer("ladder.par1_ms_p50", "ms", Lower),
    layer("ladder.parn_ms_p50", "ms", Lower),
    layer("ladder.parn_ms_p90", "ms", Lower),
    layer("ladder.stream_overhead_ms", "ms", Lower),
    layer("ladder.driver_overhead_ms", "ms", Lower),
    layer("ladder.scaling_eff", "ratio", Higher),
    layer("ladder.speedup", "ratio", Higher),
    layer("ladder.twin_ms_p50", "ms", Lower),
    layer("ladder.parn_over_twin", "ratio", Lower),
    layer("placement.leaf_frac", "ratio", Higher),
    layer("placement.splice_combines_per_call", "count", Lower),
    layer("forkjoin.install_us_p50", "us", Lower),
    layer("forkjoin.executed_per_call", "count", Lower),
    layer("forkjoin.steals_per_call", "count", Lower),
    layer("forkjoin.parks_per_call", "count", Lower),
    layer("forkjoin.joins_stolen_frac", "ratio", Higher),
    layer("spliterator.split_us", "us", Lower),
    layer("spliterator.leaves_per_call", "count", Lower),
    layer("leaf.ns_per_elem", "ns", Lower),
    layer("leaf.computed_gbps", "GB/s", Higher),
    layer("mem.read_gbps", "GB/s", Higher),
    layer("leaf.bw_frac", "ratio", Higher),
    layer("collect.leaf_share", "ratio", Higher),
    layer("collect.descend_share", "ratio", Lower),
    layer("collect.ascend_share", "ratio", Lower),
    layer("collect.combine_us", "us", Lower),
    layer("search.leaves_pruned_per_call", "count", Higher),
    layer("search.found_cancels_per_call", "count", Higher),
    layer("search.items_per_hit", "ratio", Lower),
    layer("search.absent_ms_p50", "ms", Lower),
    layer("shared.contention_ratio", "ratio", Lower),
    layer("exec.fallbacks_per_call", "count", Lower),
    layer("exec.cancels_per_call", "count", Lower),
    layer("plobs.trace_overhead", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS);
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        };
        assert!(names.iter().all(|n| ok(n)), "{names:?}");
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn setup_has_the_widest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        assert_eq!(setup.better, Better::Lower);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.rel <= setup.bound.rel && m.bound.rel <= 0.25));
    }
}
