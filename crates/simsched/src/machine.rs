//! Machine cost models.
//!
//! The container this reproduction runs in has a single CPU, so the
//! paper's 8-core wall-clock behaviour is regenerated through a
//! calibrated cost model instead (see DESIGN.md's substitution table).
//! A [`MachineModel`] carries the per-operation costs the predictions
//! are built from; [`MachineModel::paper_8core`] is the calibration used
//! for the figures — chosen to land sequential times in the same
//! hundreds-of-milliseconds range the paper's Figure 4 plots for
//! degrees 2^20..2^26 on a 2010s-era 8-core JVM machine.

/// Per-operation execution costs (nanoseconds) plus the core count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineModel {
    /// Number of cores.
    pub cores: usize,
    /// Sequential per-coefficient cost of the polynomial loop (one
    /// multiply-add plus stream-iteration overhead).
    pub seq_elem_ns: f64,
    /// Per-coefficient cost inside a parallel leaf (same arithmetic, a
    /// touch more from spliterator bookkeeping).
    pub par_elem_ns: f64,
    /// Cost of one `trySplit` + task fork (including the hooked split's
    /// synchronized update).
    pub split_ns: f64,
    /// Cost of one combiner invocation (`x.powi` + add + container
    /// plumbing).
    pub combine_ns: f64,
    /// One-time submission overhead of a parallel collect (pool
    /// hand-off, latch wait).
    pub submit_ns: f64,
}

/// Per-element leaf-cost reduction measured after the borrowed-leaf
/// (zero-copy) collect path landed: leaves run their kernels over `&[T]`
/// slices of the shared storage instead of cloning every element through
/// a boxed callback. The frameworks bench's reduce row improved by more
/// than this on the reference container; the model uses the conservative
/// end so predictions stay honest across collectors whose leaf kernels
/// do more work per element.
pub const ZERO_COPY_LEAF_FACTOR: f64 = 3.0;

/// Per-element leaf-cost reduction of the *fused-borrow* leaf route:
/// an adapted pipeline (map/filter chain) whose leaf drives the fused
/// chain over the source's borrowed run instead of cloning
/// every element through nested adapter callbacks. Slightly below
/// [`ZERO_COPY_LEAF_FACTOR`] because the chain still executes its
/// per-element stages inside the loop — only the traversal machinery
/// (per-element virtual dispatch, clones, adapter bookkeeping)
/// disappears.
pub const FUSED_LEAF_FACTOR: f64 = 2.5;

impl MachineModel {
    /// The calibration used to regenerate Figures 3–4: an 8-core machine
    /// with JVM-ish per-element costs.
    pub fn paper_8core() -> Self {
        MachineModel {
            cores: 8,
            seq_elem_ns: 6.0,
            par_elem_ns: 6.5,
            split_ns: 1_200.0,
            combine_ns: 800.0,
            submit_ns: 30_000.0,
        }
    }

    /// Cost model with the zero-copy leaf path enabled: the per-element
    /// cost inside a parallel leaf drops by [`ZERO_COPY_LEAF_FACTOR`]
    /// (splitting, combining and submission costs are untouched — the
    /// change is strictly leaf-phase).
    pub fn with_zero_copy_leaves(self) -> Self {
        MachineModel {
            par_elem_ns: self.par_elem_ns / ZERO_COPY_LEAF_FACTOR,
            ..self
        }
    }

    /// Cost model with the fused-borrow leaf route enabled for adapted
    /// (map/filter) pipelines: the per-element cost inside a parallel
    /// leaf drops by [`FUSED_LEAF_FACTOR`]. As with
    /// [`MachineModel::with_zero_copy_leaves`], the change is strictly
    /// leaf-phase.
    pub fn with_fused_leaves(self) -> Self {
        MachineModel {
            par_elem_ns: self.par_elem_ns / FUSED_LEAF_FACTOR,
            ..self
        }
    }

    /// Same cost structure with a different core count (used by the
    /// scaling ablation).
    pub fn with_cores(self, cores: usize) -> Self {
        MachineModel {
            cores: cores.max(1),
            ..self
        }
    }
}

impl Default for MachineModel {
    fn default() -> Self {
        MachineModel::paper_8core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_is_8_cores() {
        let m = MachineModel::paper_8core();
        assert_eq!(m.cores, 8);
        assert!(m.seq_elem_ns > 0.0);
        assert!(m.par_elem_ns >= m.seq_elem_ns);
    }

    #[test]
    fn with_cores_overrides_only_cores() {
        let m = MachineModel::paper_8core().with_cores(4);
        assert_eq!(m.cores, 4);
        assert_eq!(m.split_ns, MachineModel::paper_8core().split_ns);
        assert_eq!(MachineModel::paper_8core().with_cores(0).cores, 1);
    }

    #[test]
    fn zero_copy_only_touches_leaf_cost() {
        let m = MachineModel::paper_8core();
        let z = m.with_zero_copy_leaves();
        assert_eq!(z.par_elem_ns, m.par_elem_ns / ZERO_COPY_LEAF_FACTOR);
        assert_eq!(z.seq_elem_ns, m.seq_elem_ns);
        assert_eq!(z.split_ns, m.split_ns);
        assert_eq!(z.combine_ns, m.combine_ns);
        assert_eq!(z.submit_ns, m.submit_ns);
        assert_eq!(z.cores, m.cores);
    }

    #[test]
    fn fused_only_touches_leaf_cost() {
        let m = MachineModel::paper_8core();
        let f = m.with_fused_leaves();
        assert_eq!(f.par_elem_ns, m.par_elem_ns / FUSED_LEAF_FACTOR);
        assert_eq!(f.seq_elem_ns, m.seq_elem_ns);
        assert_eq!(f.split_ns, m.split_ns);
        assert_eq!(f.combine_ns, m.combine_ns);
        assert_eq!(f.submit_ns, m.submit_ns);
        assert_eq!(f.cores, m.cores);
        // A fused leaf still runs the chain per element, so it cannot
        // beat the unadapted zero-copy kernel in the model.
        const { assert!(FUSED_LEAF_FACTOR < ZERO_COPY_LEAF_FACTOR) };
    }

    #[test]
    fn sequential_time_scale_matches_figure_4_range() {
        // 2^26 coefficients at ~6 ns each ≈ 0.4 s — the right order of
        // magnitude for the paper's largest sequential runs (hundreds of
        // ms).
        let m = MachineModel::paper_8core();
        let t_ms = (1u64 << 26) as f64 * m.seq_elem_ns / 1e6;
        assert!((100.0..2_000.0).contains(&t_ms), "t={t_ms}ms");
    }
}
