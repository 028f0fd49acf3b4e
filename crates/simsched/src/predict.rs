//! Workload predictions for the paper's figures.
//!
//! Combines the [`MachineModel`] cost calibration, the D&C DAG builder
//! and the greedy scheduler into per-experiment predictions:
//! [`predict_poly`] models the polynomial-evaluation benchmark of
//! Figures 3–4 (sequential stream vs parallel PowerList collect), and
//! [`predict_poly_sweep`] produces the whole 2^20..2^26 series.
//!
//! The `jvm_artifact` switch reproduces the paper's observed anomaly:
//! "the sequential execution time for the value 2^24 is almost 3 times
//! less than the sequential execution time for 2^23" — i.e. the JIT made
//! the 2^24 sequential baseline ~6× faster per element, which is what
//! produced the speedup dropout in Figure 3. The model applies that
//! factor to the sequential side only, at exactly that size, mirroring
//! the paper's explanation rather than inventing one.

use crate::dnc::{build_dnc, FnCosts};
use crate::machine::MachineModel;
use crate::schedule::simulate;

/// The factor by which the JIT sped up the 2^24 sequential run: time was
/// a third of the 2^23 time at double the size → per-element factor 6.
pub const JVM_ARTIFACT_FACTOR: f64 = 6.0;

/// The size at which the paper observed the artifact.
pub const JVM_ARTIFACT_SIZE: usize = 1 << 24;

/// One row of the Figure 3/4 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolyPrediction {
    /// Coefficient count (polynomial degree + 1).
    pub n: usize,
    /// Predicted sequential time (ms).
    pub seq_ms: f64,
    /// Predicted parallel time on `machine.cores` cores (ms).
    pub par_ms: f64,
    /// `seq_ms / par_ms` — the quantity Figure 3 plots.
    pub speedup: f64,
    /// Scheduler utilisation of the parallel run (diagnostic).
    pub utilisation: f64,
}

/// Predicts the polynomial-evaluation benchmark at size `n`.
///
/// `leaf_size` defaults (like the library) to `n / (4 × cores)`.
pub fn predict_poly(
    machine: &MachineModel,
    n: usize,
    leaf_size: Option<usize>,
    jvm_artifact: bool,
) -> PolyPrediction {
    assert!(n >= 1);
    // Sequential baseline: a tight multiply-add loop over n coefficients.
    let mut seq_ns = n as f64 * machine.seq_elem_ns;
    if jvm_artifact && n == JVM_ARTIFACT_SIZE {
        seq_ns /= JVM_ARTIFACT_FACTOR;
    }

    // Parallel run: D&C DAG at the requested granularity, scheduled
    // greedily onto the model's cores.
    let leaf = leaf_size
        .unwrap_or_else(|| (n / (4 * machine.cores)).max(1))
        .max(1);
    let split_ns = machine.split_ns;
    let par_elem_ns = machine.par_elem_ns;
    let combine_ns = machine.combine_ns;
    let costs = FnCosts {
        split: move |_level, _size| split_ns,
        leaf: move |size| size as f64 * par_elem_ns,
        combine: move |_level, _size| combine_ns,
    };
    let (dag, _root) = build_dnc(n, leaf, &costs);
    let schedule = simulate(&dag, machine.cores);
    let par_ns = schedule.makespan + machine.submit_ns;

    PolyPrediction {
        n,
        seq_ms: seq_ns / 1e6,
        par_ms: par_ns / 1e6,
        speedup: seq_ns / par_ns,
        utilisation: schedule.utilisation(),
    }
}

/// `ceil(log2(n))` for `n ≥ 1` (0 for `n ≤ 1`) — kept local because this
/// crate depends only on `plobs`; semantics match `forkjoin::ceil_log2`.
fn ceil_log2(n: usize) -> u32 {
    n.max(1).next_power_of_two().trailing_zeros()
}

/// The leaf size an ideal demand-driven (adaptive) splitter converges to
/// on a uniform workload of `n` elements: under sustained demand every
/// node splits until the depth cap `log2(cores) + depth_slack`, floored
/// at the sequential cutoff `min_leaf`. This is the equilibrium of the
/// steal-pressure heuristic, not a wall-clock model of its transient.
pub fn adaptive_leaf_size(n: usize, cores: usize, depth_slack: u32, min_leaf: usize) -> usize {
    let cap = ceil_log2(cores) + depth_slack;
    (n >> cap.min(usize::BITS - 1)).max(min_leaf.max(1))
}

/// Predicts the polynomial benchmark under the adaptive split policy by
/// running [`predict_poly`] at the policy's equilibrium granularity
/// ([`adaptive_leaf_size`]). On a uniform workload the prediction
/// differs from the default fixed policy only through leaf granularity,
/// which is exactly what the `split_policy` ledger rows measure.
pub fn predict_poly_adaptive(
    machine: &MachineModel,
    n: usize,
    depth_slack: u32,
    min_leaf: usize,
    jvm_artifact: bool,
) -> PolyPrediction {
    let leaf = adaptive_leaf_size(n, machine.cores, depth_slack, min_leaf);
    predict_poly(machine, n, Some(leaf), jvm_artifact)
}

/// Predicts the full sweep `2^lo ..= 2^hi` (the figures use lo=20,
/// hi=26).
pub fn predict_poly_sweep(
    machine: &MachineModel,
    lo_exp: u32,
    hi_exp: u32,
    jvm_artifact: bool,
) -> Vec<PolyPrediction> {
    (lo_exp..=hi_exp)
        .map(|k| predict_poly(machine, 1usize << k, None, jvm_artifact))
        .collect()
}

/// Cost model for the tie-vs-zip map ablation (Ablation A): the same
/// map computed under linear (tie) or cyclic (zip) data distribution.
#[derive(Debug, Clone, Copy)]
pub struct MapCostModel {
    /// Per-element map cost on contiguous data (ns).
    pub elem_ns: f64,
    /// Multiplier on leaf work when the leaf walks a strided residue
    /// class (cache-hostile cyclic distribution).
    pub strided_penalty: f64,
    /// Per-element cost of the combiner's container copy (ns).
    pub copy_ns: f64,
    /// Multiplier on combine copies for `zip_all` (interleaving writes)
    /// relative to `tie_all` (append).
    pub zip_combine_factor: f64,
    /// Split/fork cost (ns).
    pub split_ns: f64,
}

impl Default for MapCostModel {
    fn default() -> Self {
        MapCostModel {
            elem_ns: 2.5,
            strided_penalty: 2.2,
            copy_ns: 1.2,
            zip_combine_factor: 1.6,
            split_ns: 1_000.0,
        }
    }
}

/// Predicted times (ms) of a collect-based map on `cores` cores, for the
/// tie and zip decompositions — the simulated counterpart of the
/// `tie_vs_zip` bench.
pub fn predict_map_collect(
    cores: usize,
    n: usize,
    leaf_size: usize,
    model: &MapCostModel,
) -> (f64, f64) {
    let mk = |strided: bool| {
        let leaf_mult = if strided { model.strided_penalty } else { 1.0 };
        let combine_mult = if strided {
            model.zip_combine_factor
        } else {
            1.0
        };
        let (elem, copy, split) = (model.elem_ns, model.copy_ns, model.split_ns);
        let costs = FnCosts {
            split: move |_l, _s| split,
            leaf: move |s| s as f64 * elem * leaf_mult,
            // A combine at a node of size s copies the s merged elements.
            combine: move |_l, s| s as f64 * copy * combine_mult,
        };
        let (dag, _) = build_dnc(n, leaf_size.max(1), &costs);
        simulate(&dag, cores).makespan / 1e6
    };
    (mk(false), mk(true))
}

/// Predicted speedup as a function of core count at fixed size — the
/// scaling view used by the MPI ablation.
pub fn predict_scaling(machine: &MachineModel, n: usize, cores: &[usize]) -> Vec<(usize, f64)> {
    cores
        .iter()
        .map(|&c| {
            let m = (*machine).with_cores(c);
            let p = predict_poly(&m, n, None, false);
            (c, p.speedup)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m8() -> MachineModel {
        MachineModel::paper_8core()
    }

    #[test]
    fn speedup_is_near_core_count_for_large_inputs() {
        // The paper's Figure 3: "the speed-up is very good in most of
        // the considered cases, attaining for some of them almost the
        // maximum value 8".
        for k in 20..=26 {
            let p = predict_poly(&m8(), 1 << k, None, false);
            assert!(
                p.speedup > 6.0 && p.speedup <= 8.0,
                "k={k}: speedup {}",
                p.speedup
            );
        }
    }

    #[test]
    fn small_inputs_do_not_pay_off() {
        // Overheads dominate tiny collects — parallel loses.
        let p = predict_poly(&m8(), 64, None, false);
        assert!(p.speedup < 1.0, "speedup {}", p.speedup);
    }

    #[test]
    fn artifact_creates_the_dropout() {
        let clean = predict_poly_sweep(&m8(), 20, 26, false);
        let dipped = predict_poly_sweep(&m8(), 20, 26, true);
        for (c, d) in clean.iter().zip(&dipped) {
            if c.n == JVM_ARTIFACT_SIZE {
                // Sequential ~6× faster → speedup ~6× lower, and the
                // paper's "3 times less than 2^23" relation holds.
                assert!(
                    d.speedup < c.speedup / 5.0,
                    "{} vs {}",
                    d.speedup,
                    c.speedup
                );
                let prev = dipped.iter().find(|p| p.n == (1 << 23)).unwrap();
                let ratio = prev.seq_ms / d.seq_ms;
                assert!((2.5..3.5).contains(&ratio), "seq(2^23)/seq(2^24) = {ratio}");
            } else {
                assert_eq!(c.speedup, d.speedup, "artifact must only touch 2^24");
            }
        }
    }

    #[test]
    fn times_grow_with_size() {
        let sweep = predict_poly_sweep(&m8(), 20, 26, false);
        for w in sweep.windows(2) {
            assert!(w[1].seq_ms > w[0].seq_ms);
            assert!(w[1].par_ms > w[0].par_ms);
        }
        // Doubling n roughly doubles both times.
        let r = sweep[1].seq_ms / sweep[0].seq_ms;
        assert!((1.9..2.1).contains(&r));
    }

    #[test]
    fn scaling_is_monotone_and_saturating() {
        let s = predict_scaling(&m8(), 1 << 22, &[1, 2, 4, 8, 16]);
        for w in s.windows(2) {
            assert!(w[1].1 >= w[0].1 * 0.95, "{s:?}");
        }
        let (_, s1) = s[0];
        let (_, s16) = s[4];
        assert!(s1 <= 1.0 + 1e-9);
        assert!(s16 > 8.0, "16 cores should beat 8: {s16}");
    }

    #[test]
    fn explicit_leaf_size_respected() {
        // Far too coarse a leaf: only one task → no speedup.
        let p = predict_poly(&m8(), 1 << 20, Some(1 << 20), false);
        assert!(p.speedup <= 1.0 + 1e-9);
        // Finer leaves approach the default.
        let q = predict_poly(&m8(), 1 << 20, Some(1 << 14), false);
        assert!(q.speedup > 5.0);
    }

    #[test]
    fn tie_beats_zip_in_the_map_model() {
        let m = MapCostModel::default();
        let (tie, zip) = predict_map_collect(8, 1 << 20, 1 << 15, &m);
        assert!(tie < zip, "tie {tie} ms vs zip {zip} ms");
        // The gap reflects the strided penalty, bounded by it.
        assert!(zip / tie <= m.strided_penalty.max(m.zip_combine_factor) + 0.5);
    }

    #[test]
    fn map_model_times_positive_and_scale() {
        let m = MapCostModel::default();
        let (t1, z1) = predict_map_collect(8, 1 << 16, 1 << 12, &m);
        let (t2, z2) = predict_map_collect(8, 1 << 17, 1 << 13, &m);
        assert!(t1 > 0.0 && z1 > 0.0);
        assert!(t2 > t1 && z2 > z1);
    }

    #[test]
    fn utilisation_is_a_fraction() {
        let p = predict_poly(&m8(), 1 << 22, None, false);
        assert!(p.utilisation > 0.5 && p.utilisation <= 1.0);
    }

    #[test]
    fn adaptive_leaf_size_equilibrium() {
        // 2^20 elements on 8 cores, slack 4: cap = 3 + 4 = 7 → leaves of
        // 2^13, floored at min_leaf.
        assert_eq!(adaptive_leaf_size(1 << 20, 8, 4, 1024), 1 << 13);
        assert_eq!(adaptive_leaf_size(1 << 10, 8, 4, 1024), 1024);
        assert_eq!(adaptive_leaf_size(0, 1, 0, 0), 1);
    }

    #[test]
    fn adaptive_prediction_stays_within_depth_cap() {
        // Build the DAG the adaptive equilibrium implies and replay it:
        // its recorded split depth must respect log2(cores) + slack.
        let machine = m8();
        let (slack, min_leaf) = (4, 1024);
        let n = 1 << 20;
        let leaf = adaptive_leaf_size(n, machine.cores, slack, min_leaf);
        let costs = FnCosts {
            split: |_, _| 3.0,
            leaf: |s| s as f64,
            combine: |_, _| 5.0,
        };
        let (dag, _) = build_dnc(n, leaf, &costs);
        let report = crate::replay::replay_report(&dag, &simulate(&dag, machine.cores));
        let cap = ceil_log2(machine.cores) + slack;
        assert!(
            report.max_split_depth() < cap,
            "max depth {} must stay below cap {cap}",
            report.max_split_depth()
        );
        assert!(report.splits > 0);
    }

    #[test]
    fn adaptive_prediction_close_to_fixed_on_uniform_work() {
        // Uniform per-element cost: the adaptive equilibrium granularity
        // must land within 10% of the default fixed policy — the same
        // bound the live `split_policy` reduce-row acceptance uses.
        let machine = m8();
        let n = 1 << 22;
        let fixed = predict_poly(&machine, n, None, false);
        let adaptive = predict_poly_adaptive(&machine, n, 4, 1024, false);
        let ratio = adaptive.par_ms / fixed.par_ms;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "adaptive/fixed = {ratio} (adaptive {} ms, fixed {} ms)",
            adaptive.par_ms,
            fixed.par_ms
        );
    }

    #[test]
    fn zero_copy_leaves_improve_parallel_side_only() {
        let base = m8();
        let fast = base.with_zero_copy_leaves();
        let n = 1 << 22;
        let p = predict_poly(&base, n, None, false);
        let q = predict_poly(&fast, n, None, false);
        // Strictly a leaf-phase change: sequential baseline untouched,
        // parallel time down, speedup up.
        assert_eq!(p.seq_ms, q.seq_ms);
        assert!(q.par_ms < p.par_ms, "{} !< {}", q.par_ms, p.par_ms);
        assert!(q.speedup > p.speedup);
    }
}
