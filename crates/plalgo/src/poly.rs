//! Polynomial evaluation — the paper's central worked example and its
//! benchmark workload (Figures 3–4).
//!
//! Eq. 4 of the paper, for ascending coefficients `P(x) = Σ aᵢ xⁱ`:
//!
//! ```text
//! vp([a], x)    = a
//! vp(p ♮ q, x)  = vp(p, x²) + x · vp(q, x²)
//! ```
//!
//! The zip deconstruction sends even-index coefficients left and
//! odd-index right; the *descending phase does real work* (squaring the
//! point), which is exactly what makes this function the paper's stress
//! test for the streams adaptation.
//!
//! Three implementations, all verified against [`horner`]:
//!
//! * [`VpFunction`] — the JPLF template, carrying `x` down with
//!   `create_left`/`create_right` (both descend with `x²`);
//! * [`PolynomialCollector`] + [`poly_spliterator`] — the streams
//!   adaptation: a [`HookedZipSpliterator`] doubles a per-spliterator
//!   `x_degree` on every split and max-updates the shared one (the
//!   paper's synchronized inner-class mechanism); the collector's
//!   supplier reads the shared degree to know each leaf's stride;
//! * [`eval_seq_stream`] — "a simple stream based computation", the
//!   paper's sequential baseline.
//!
//! ### A note on the paper's combiner
//!
//! The paper's Java combiner (`pv1.val·x^{x_degree} + pv2.val` after
//! halving `x_degree`) is the mirror image of ours (`left + x^{s}·right`)
//! because the two are equivalent for the coefficient orderings each
//! assumes (descending vs ascending). We fix the ascending convention and
//! verify against Horner, which the paper's text (Eq. 4) also uses.

use jplf::{Decomp, PowerFunction};
use jstreams::{
    stream_support, Collector, HookedZipSpliterator, ItemSource, SharedState, Stream,
    ZipSpliterator,
};
use powerlist::PowerList;
use std::sync::Arc;

/// Sequential Horner evaluation of ascending coefficients — the
/// specification all parallel versions are tested against.
pub fn horner(coeffs: &[f64], x: f64) -> f64 {
    let mut acc = 0.0;
    for &c in coeffs.iter().rev() {
        acc = acc * x + c;
    }
    acc
}

/// Independent power chains in [`power_sum`]: enough to hide the
/// multiply/add latency of one chain on an in-cache run, and a whole
/// number of vectors on the contiguous path.
const LANES: usize = 16;

/// The leaf kernel of every polynomial route: `(Σ cₖ yᵏ, yᵐ)` over the
/// `m` elements `items[0], items[step], items[2·step], …`, the strided
/// run contract of [`jstreams::LeafAccess::try_as_strided`]
/// (`items.len() == (m−1)·step + 1`, or `items` empty).
///
/// A running-power loop (`acc += c·pw; pw *= y`) is one dependency
/// chain, so it runs at the multiply-add latency however fast memory
/// is. This kernel keeps `LANES` (16) chains instead: lane `j` starts at
/// `yʲ` and advances by `y^LANES`, over consecutive groups of `LANES`
/// elements. Steps 1 and 2 (a contiguous run, and a parity leaf of a
/// one-leaf-per-worker split on 2 workers) walk fixed-size groups that
/// vectorise across lanes; any other step walks
/// `chunks_exact(LANES·step)` with no per-element bounds check. The
/// tail continues lane 0's chain in encounter order, so `yᵐ` comes out
/// of the same chain.
///
/// # Panics
///
/// Panics if `step == 0`.
pub fn power_sum(items: &[f64], step: usize, y: f64) -> (f64, f64) {
    assert!(step > 0, "power_sum step must be at least 1");
    let (lanes, tail) = match step {
        1 => Lanes::fixed_groups::<LANES>(items, y),
        2 => Lanes::fixed_groups::<{ 2 * LANES }>(items, y),
        _ => Lanes::strided_groups(items, step, y),
    };
    let mut pw = lanes.pw[0];
    let mut rest = 0.0;
    for &c in tail.iter().step_by(step) {
        rest += c * pw;
        pw *= y;
    }
    (lanes.acc.iter().sum::<f64>() + rest, pw)
}

/// The [`LANES`] independent chains of [`power_sum`]. Each group walk
/// is its own out-of-line function, so its chains stay in registers
/// for the whole loop.
struct Lanes {
    acc: [f64; LANES],
    pw: [f64; LANES],
    /// `y^LANES`, one group's advance.
    y_lanes: f64,
}

impl Lanes {
    /// Empty chains; chain `j` starts at `yʲ`.
    #[inline(always)]
    fn new(y: f64) -> Self {
        let mut lanes = Lanes {
            acc: [0.0; LANES],
            pw: [0.0; LANES],
            y_lanes: 1.0,
        };
        for pw in &mut lanes.pw {
            *pw = lanes.y_lanes;
            lanes.y_lanes *= y;
        }
        lanes
    }

    /// Adds one group: its `j`-th item to chain `j`.
    #[inline(always)]
    fn add<'a>(&mut self, group: impl Iterator<Item = &'a f64>) {
        for ((acc, pw), &c) in self.acc.iter_mut().zip(&mut self.pw).zip(group) {
            *acc += c * *pw;
            *pw *= self.y_lanes;
        }
    }

    /// The chains over every whole group of a run whose step,
    /// `SPAN / LANES`, is a compile-time constant, and the items after
    /// the last group.
    #[inline(never)]
    fn fixed_groups<const SPAN: usize>(items: &[f64], y: f64) -> (Self, &[f64]) {
        let mut lanes = Self::new(y);
        let (groups, tail) = items.as_chunks::<SPAN>();
        for group in groups {
            lanes.add((0..LANES).map(|j| &group[j * (SPAN / LANES)]));
        }
        (lanes, tail)
    }

    /// [`Lanes::fixed_groups`] for a runtime `step`. A group spans
    /// `LANES·step` items and a run's last element sits at `(m−1)·step`,
    /// so a group that would end past the run is never whole: it is
    /// left in the remainder.
    #[inline(never)]
    fn strided_groups(items: &[f64], step: usize, y: f64) -> (Self, &[f64]) {
        let mut lanes = Self::new(y);
        let mut groups = items.chunks_exact(LANES * step);
        for group in &mut groups {
            lanes.add(group.iter().step_by(step));
        }
        (lanes, groups.remainder())
    }
}

/// [`power_sum`] over a view's logical elements.
fn view_power_sum(view: &powerlist::PowerView<f64>, y: f64) -> (f64, f64) {
    let storage = view.storage();
    let step = view.incr().max(1);
    let first = view.start();
    let last = first + (view.len() - 1) * step;
    power_sum(&storage.as_slice()[first..=last], step, y)
}

/// The paper's sequential baseline: polynomial evaluation as "a simple
/// stream based computation" — a sequential stream of (coefficient,
/// running power) folds.
pub fn eval_seq_stream(coeffs: PowerList<f64>, x: f64) -> f64 {
    // A sequential stream cannot carry the running power through reduce,
    // so evaluate with an indexed map + sum, as a plain Java stream user
    // would (`IntStream.range(...).mapToDouble(i -> a[i]*pow(x,i)).sum()`
    // is the shape; we keep the running-power optimisation since the
    // paper's baseline is a tuned sequential loop).
    let mut acc = 0.0;
    let mut pw = 1.0;
    let mut src = jstreams::SliceSpliterator::new(coeffs.into_vec());
    src.for_each_remaining(&mut |c: f64| {
        acc += c * pw;
        pw *= x;
    });
    acc
}

/// Eq. 4 as a JPLF PowerFunction: `vp(p ♮ q, x) = vp(p, x²) + x·vp(q, x²)`.
#[derive(Debug, Clone, Copy)]
pub struct VpFunction {
    /// The evaluation point at this node of the recursion.
    pub x: f64,
}

impl VpFunction {
    /// Evaluate at `x`.
    pub fn new(x: f64) -> Self {
        VpFunction { x }
    }
}

impl PowerFunction for VpFunction {
    type Elem = f64;
    type Out = f64;

    fn decomposition(&self) -> Decomp {
        Decomp::Zip
    }

    fn basic_case(&self, a: &f64) -> f64 {
        *a
    }

    /// Descending phase: both halves are evaluated at `x²` (the
    /// additional splitting-phase computation of Eq. 4).
    fn create_left(&self) -> Self {
        VpFunction { x: self.x * self.x }
    }

    fn create_right(&self) -> Self {
        VpFunction { x: self.x * self.x }
    }

    fn combine(&self, left: f64, right: f64) -> f64 {
        left + self.x * right
    }

    /// Leaf kernel: "the computation on these sublists could be defined
    /// as a sequential computation of a polynomial in a given point"
    /// (paper §V) — the sub-list at a node with point `x` is, by Eq. 4,
    /// a polynomial to be evaluated at that `x`.
    fn leaf_case(&self, view: &powerlist::PowerView<f64>) -> f64 {
        view_power_sum(view, self.x).0
    }
}

/// Accumulation container of the streams polynomial collector: a partial
/// value plus the stride (as a power of `x`) this partial is expressed
/// in. Mirrors the paper's `PolynomialValue` (x, val, x_degree).
#[derive(Debug, Clone, Copy)]
pub struct PolyAcc {
    /// Partial polynomial value.
    pub val: f64,
    /// Running power of `y = x^stride` used by the leaf accumulation.
    pw: f64,
    /// `y` itself.
    y: f64,
    /// The stride (paper: `x_degree`) this partial container works at.
    pub stride: u64,
}

/// The streams-adaptation polynomial evaluator (the paper's
/// `PolynomialValue` collector).
///
/// Holds the evaluation point and the **shared splitting state**: the
/// global `x_degree` that split hooks max-update and suppliers read —
/// the general mechanism of Section V rendered as [`SharedState`].
pub struct PolynomialCollector {
    x: f64,
    degree: SharedState<u64>,
}

impl PolynomialCollector {
    /// Collector evaluating at `x`, with a fresh shared degree of 1.
    pub fn new(x: f64) -> Self {
        PolynomialCollector {
            x,
            degree: SharedState::new(1),
        }
    }

    /// The shared splitting state, to be wired into the spliterator hook
    /// (the paper builds the spliterator *through* the collector object
    /// for exactly this reason).
    pub fn degree_state(&self) -> SharedState<u64> {
        self.degree.clone()
    }

    /// The evaluation point.
    pub fn x(&self) -> f64 {
        self.x
    }
}

impl Collector<f64> for PolynomialCollector {
    type Acc = PolyAcc;
    type Out = f64;

    /// "The supplier provides a new instance … created as a copy of the
    /// initial PolynomialValue instance": each leaf container snapshots
    /// the shared degree, which equals this leaf's stride only when
    /// depths are uniform (a [`SplitPolicy::Fixed`](jstreams::SplitPolicy)
    /// tree). Borrowed leaves ([`Collector::leaf_strided`]) do not use
    /// it.
    fn supplier(&self) -> PolyAcc {
        let stride = self.degree.get();
        PolyAcc {
            val: 0.0,
            pw: 1.0,
            y: self.x.powi(stride as i32),
            stride,
        }
    }

    /// Leaf phase: ascending accumulation in `y = x^stride` — the
    /// sequential polynomial evaluation on the leaf sub-list the paper
    /// suggests overriding `forEachRemaining` with.
    fn accumulate(&self, acc: &mut PolyAcc, c: f64) {
        acc.val += c * acc.pw;
        acc.pw *= acc.y;
    }

    /// Ascending phase: `left + x^{s}·right` with `s` the children's
    /// stride halved (the paper's `x_degree /= 2` step).
    ///
    /// # Panics
    ///
    /// Panics when the siblings' strides differ. Borrowed leaves take
    /// their stride from their own run, so this only happens on the
    /// per-element route (a mapped pipeline) over an uneven tree, whose
    /// supplier can only read the shared maximum degree; the panic
    /// surfaces as an `ExecError` instead of a wrong value.
    fn combine(&self, left: PolyAcc, right: PolyAcc) -> PolyAcc {
        assert_eq!(
            left.stride, right.stride,
            "sibling partials at different strides: an uneven tree on the per-element route"
        );
        let s = left.stride / 2;
        PolyAcc {
            val: left.val + self.x.powi(s as i32) * right.val,
            pw: 1.0,
            y: self.x.powi(s.max(1) as i32),
            stride: s,
        }
    }

    /// # Panics
    ///
    /// Panics unless the root partial is at stride 1, the other sign of
    /// leaves that evaluated at a shared degree deeper than their own.
    fn finish(&self, acc: PolyAcc) -> f64 {
        assert_eq!(acc.stride, 1, "root partial at stride {}", acc.stride);
        acc.val
    }

    /// Zero-copy leaf: the same ascending accumulation in `y = x^stride`,
    /// run directly over the borrowed coefficient run — a zip-split
    /// residue class arrives as the strided form.
    fn leaf_slice(&self, items: &[f64]) -> Option<PolyAcc> {
        self.leaf_strided(items, 1)
    }

    /// The leaf's stride is its run's own `step`, not the shared
    /// degree: an uneven tree (an adaptive or tuned policy) has leaves
    /// at different depths, and only the deepest reaches the shared
    /// maximum. The hooked spliterator is rooted at a contiguous list
    /// ([`poly_spliterator`]), so a leaf at depth `d` has `step == 2^d`.
    fn leaf_strided(&self, items: &[f64], step: usize) -> Option<PolyAcc> {
        let y = self.x.powi(step as i32);
        let (val, pw) = power_sum(items, step, y);
        Some(PolyAcc {
            val,
            pw,
            y,
            stride: step as u64,
        })
    }
}

/// Builds the specialised spliterator for [`PolynomialCollector`]: a
/// [`HookedZipSpliterator`] whose split hook doubles the local
/// `x_degree` and max-updates the collector's shared one — the paper's
/// `PZipSpliterator` inner class.
pub fn poly_spliterator(
    coeffs: PowerList<f64>,
    collector: &PolynomialCollector,
) -> HookedZipSpliterator<f64, u64> {
    let shared = collector.degree_state();
    let hook: Arc<dyn Fn(&mut u64) -> u64 + Send + Sync> = Arc::new(move |local| {
        *local *= 2; // "x_degree *= 2; // !!!!! updating the exponent"
        shared.update_max(*local); // the synchronized block
        *local
    });
    HookedZipSpliterator::new(ZipSpliterator::over(coeffs), 1, hook)
}

/// The **tupling transformation** of the paper's reference \[22\]
/// ("Transforming powerlist based divide&conquer programs for an
/// improved execution model"): polynomial evaluation rewritten as a
/// bottom-up **tie** reduction over `(value, power)` pairs, eliminating
/// the descending phase entirely.
///
/// For a sub-list of coefficients `c₀..c_{m-1}` the pair is
/// `(Σ cᵢ xⁱ, x^m)`; two adjacent sub-results combine as
///
/// ```text
/// (v₁, p₁) ⊙ (v₂, p₂) = (v₁ + p₁·v₂, p₁·p₂)
/// ```
///
/// — an associative operator, so no splitting-phase state (no hooked
/// spliterator, no shared `x_degree`) is needed: a plain
/// `TieSpliterator` + collector suffices. This is the ablation the
/// benchmark suite contrasts with the paper's hooked-spliterator
/// formulation (EXPERIMENTS.md, Ablation D).
#[derive(Debug, Clone, Copy)]
pub struct TupledVp {
    /// The evaluation point (never changes during descent — that is the
    /// point of the transformation).
    pub x: f64,
}

impl TupledVp {
    /// Evaluate at `x`.
    pub fn new(x: f64) -> Self {
        TupledVp { x }
    }
}

impl PowerFunction for TupledVp {
    type Elem = f64;
    type Out = (f64, f64); // (value, x^length)

    fn decomposition(&self) -> Decomp {
        Decomp::Tie
    }

    fn basic_case(&self, a: &f64) -> (f64, f64) {
        (*a, self.x)
    }

    fn create_left(&self) -> Self {
        *self
    }

    fn create_right(&self) -> Self {
        *self
    }

    fn combine(&self, left: (f64, f64), right: (f64, f64)) -> (f64, f64) {
        (left.0 + left.1 * right.0, left.1 * right.1)
    }

    /// Leaf kernel: evaluate the block and its total power in one pass.
    fn leaf_case(&self, view: &powerlist::PowerView<f64>) -> (f64, f64) {
        view_power_sum(view, self.x)
    }
}

/// The tupled evaluator as a stream collector: a plain tie-decomposed
/// mutable reduction over `(value, power)` — no shared split state.
pub struct TupledVpCollector {
    x: f64,
}

impl TupledVpCollector {
    /// Collector evaluating at `x`.
    pub fn new(x: f64) -> Self {
        TupledVpCollector { x }
    }
}

impl Collector<f64> for TupledVpCollector {
    type Acc = (f64, f64); // (value so far, x^count)
    type Out = f64;

    fn supplier(&self) -> (f64, f64) {
        (0.0, 1.0)
    }

    fn accumulate(&self, acc: &mut (f64, f64), c: f64) {
        acc.0 += c * acc.1;
        acc.1 *= self.x;
    }

    fn combine(&self, left: (f64, f64), right: (f64, f64)) -> (f64, f64) {
        (left.0 + left.1 * right.0, left.1 * right.1)
    }

    fn finish(&self, acc: (f64, f64)) -> f64 {
        acc.0
    }

    /// Zero-copy leaf: evaluate the block and its total power in one
    /// pass over the borrowed run.
    fn leaf_slice(&self, items: &[f64]) -> Option<(f64, f64)> {
        self.leaf_strided(items, 1)
    }

    fn leaf_strided(&self, items: &[f64], step: usize) -> Option<(f64, f64)> {
        Some(power_sum(items, step, self.x))
    }
}

/// End-to-end tupled evaluation through the streams adaptation (plain
/// `TieSpliterator`, parallel).
pub fn eval_tupled_stream(coeffs: PowerList<f64>, x: f64) -> f64 {
    let sp = jstreams::TieSpliterator::over(coeffs);
    stream_support(sp, true).collect(TupledVpCollector::new(x))
}

/// End-to-end parallel evaluation through the streams adaptation: builds
/// the collector, its hooked spliterator, the parallel stream, and runs
/// the collect — the code of the paper's final Section IV listing.
pub fn eval_par_stream(coeffs: PowerList<f64>, x: f64) -> f64 {
    eval_par_stream_with(coeffs, x, None, None)
}

/// [`eval_par_stream`] with an explicit pool / leaf size (used by the
/// benchmark harness to control parallelism degree).
pub fn eval_par_stream_with(
    coeffs: PowerList<f64>,
    x: f64,
    pool: Option<Arc<forkjoin::ForkJoinPool>>,
    leaf_size: Option<usize>,
) -> f64 {
    let collector = PolynomialCollector::new(x);
    let spliterator = poly_spliterator(coeffs, &collector);
    let mut stream: Stream<f64, _> = stream_support(spliterator, true);
    if let Some(p) = pool {
        stream = stream.with_pool(p);
    }
    if let Some(l) = leaf_size {
        stream = stream.with_leaf_size(l);
    }
    stream.collect(collector)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jplf::{Executor, ForkJoinExecutor, MpiExecutor, SequentialExecutor};
    use powerlist::tabulate;

    fn coeffs(n: usize) -> PowerList<f64> {
        tabulate(n, |i| ((i * 37 + 11) % 19) as f64 - 9.0).unwrap()
    }

    fn rel_close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn horner_basics() {
        assert_eq!(horner(&[3.0], 2.0), 3.0);
        // 1 + 2x + 3x² at x=2 → 1 + 4 + 12 = 17
        assert_eq!(horner(&[1.0, 2.0, 3.0], 2.0), 17.0);
        assert_eq!(horner(&[5.0, -1.0], 0.0), 5.0);
    }

    #[test]
    fn vp_function_matches_horner() {
        for k in 0..10 {
            let p = coeffs(1 << k);
            let x = 0.987;
            let expected = horner(p.as_slice(), x);
            let got = SequentialExecutor::new().execute(&VpFunction::new(x), &p.view());
            assert!(rel_close(got, expected), "k={k}: {got} vs {expected}");
        }
    }

    #[test]
    fn vp_function_parallel_executors() {
        let p = coeffs(1 << 12);
        let x = 1.0000001;
        let expected = horner(p.as_slice(), x);
        let v = p.view();
        let fj = ForkJoinExecutor::new(3, 64).execute(&VpFunction::new(x), &v);
        assert!(rel_close(fj, expected), "forkjoin: {fj} vs {expected}");
        let mpi = MpiExecutor::new(4).execute(&VpFunction::new(x), &v);
        assert!(rel_close(mpi, expected), "mpi: {mpi} vs {expected}");
    }

    #[test]
    fn seq_stream_baseline_matches_horner() {
        let p = coeffs(1 << 10);
        let x = -0.5;
        assert!(rel_close(
            eval_seq_stream(p.clone(), x),
            horner(p.as_slice(), x)
        ));
    }

    #[test]
    fn par_stream_matches_horner_various_sizes() {
        for k in [0usize, 1, 2, 4, 8, 12] {
            let p = coeffs(1 << k);
            let x = 0.9993;
            let expected = horner(p.as_slice(), x);
            let got = eval_par_stream(p, x);
            assert!(rel_close(got, expected), "k={k}: {got} vs {expected}");
        }
    }

    #[test]
    fn par_stream_various_leaf_sizes() {
        let p = coeffs(1 << 10);
        let x = 1.0001;
        let expected = horner(p.as_slice(), x);
        for leaf in [1usize, 2, 16, 256, 1024] {
            let got = eval_par_stream_with(p.clone(), x, None, Some(leaf));
            assert!(rel_close(got, expected), "leaf={leaf}: {got} vs {expected}");
        }
    }

    #[test]
    fn shared_degree_reaches_leaf_count() {
        let p = coeffs(1 << 8);
        let collector = PolynomialCollector::new(0.5);
        let state = collector.degree_state();
        let spliterator = poly_spliterator(p, &collector);
        let _ = stream_support(spliterator, true)
            .with_leaf_size(16) // 256 / 16 = 16 leaves
            .collect(collector);
        assert_eq!(state.get(), 16, "global x_degree = number of leaves");
    }

    #[test]
    fn negative_and_zero_points() {
        let p = coeffs(64);
        for x in [-1.5, -1.0, 0.0, 1.0] {
            let expected = horner(p.as_slice(), x);
            let got = eval_par_stream(p.clone(), x);
            assert!(rel_close(got, expected), "x={x}: {got} vs {expected}");
        }
    }

    #[test]
    fn tupled_function_matches_horner() {
        for k in 0..12 {
            let p = coeffs(1 << k);
            let x = 0.998;
            let expected = horner(p.as_slice(), x);
            let (v, pw) = SequentialExecutor::new().execute(&TupledVp::new(x), &p.clone().view());
            assert!(rel_close(v, expected), "k={k}: {v} vs {expected}");
            assert!(rel_close(pw, x.powi(1 << k)), "power component");
        }
    }

    #[test]
    fn tupled_parallel_executors() {
        let p = coeffs(1 << 10);
        let x = 1.0001;
        let expected = horner(p.as_slice(), x);
        let v = p.view();
        let (fj, _) = ForkJoinExecutor::new(3, 32).execute(&TupledVp::new(x), &v);
        assert!(rel_close(fj, expected));
        let (mpi, _) = MpiExecutor::new(4).execute(&TupledVp::new(x), &v);
        assert!(rel_close(mpi, expected));
    }

    #[test]
    fn tupled_stream_matches_horner() {
        for k in [0usize, 1, 5, 10] {
            let p = coeffs(1 << k);
            let x = -0.999;
            let expected = horner(p.as_slice(), x);
            let got = eval_tupled_stream(p, x);
            assert!(rel_close(got, expected), "k={k}: {got} vs {expected}");
        }
    }

    #[test]
    fn tupled_combine_is_associative() {
        // The soundness condition for dropping the descending phase.
        let f = TupledVp::new(0.9);
        let a = (1.0, 0.9);
        let b = (2.0, 0.81);
        let c = (3.0, 0.9);
        let lhs = f.combine(f.combine(a, b), c);
        let rhs = f.combine(a, f.combine(b, c));
        assert!((lhs.0 - rhs.0).abs() < 1e-12);
        assert!((lhs.1 - rhs.1).abs() < 1e-12);
    }

    #[test]
    fn leaf_kernels_match_template_recursion() {
        let p = coeffs(128);
        let v = p.view();
        let (even, odd) = v.unzip().unwrap();
        for view in [&v, &even, &odd] {
            let f = VpFunction::new(0.93);
            let a = f.leaf_case(view);
            let b = jplf::compute_sequential(&f, view);
            assert!(rel_close(a, b), "vp: {a} vs {b}");
            let t = TupledVp::new(0.93);
            let (a0, a1) = t.leaf_case(view);
            let (b0, b1) = jplf::compute_sequential(&t, view);
            assert!(rel_close(a0, b0) && rel_close(a1, b1));
        }
    }

    /// The single-chain loop [`power_sum`] replaces, plus the rounding
    /// scale `Σ|cᵢyⁱ|` any summation order is judged against.
    fn single_chain(items: &[f64], step: usize, y: f64) -> (f64, f64, f64) {
        let (mut val, mut pw, mut scale) = (0.0, 1.0, 0.0);
        for &c in items.iter().step_by(step) {
            val += c * pw;
            scale += (c * pw).abs();
            pw *= y;
        }
        (val, pw, scale)
    }

    #[test]
    fn power_sum_matches_single_chain() {
        let data: Vec<f64> = (0..70 * 16)
            .map(|i| ((i * 37 + 11) % 19) as f64 - 9.0)
            .collect();
        for y in [-1.5, -0.999, 0.0, 0.9999993, 1.0001] {
            for step in 1..=16 {
                // Every tail length mod LANES, and runs whose last
                // element closes a group (m a multiple of LANES).
                for m in 0..=70 {
                    let len = if m == 0 { 0 } else { (m - 1) * step + 1 };
                    let items = &data[..len];
                    let (val, pw) = power_sum(items, step, y);
                    let (want, want_pw, scale) = single_chain(items, step, y);
                    assert!(
                        (val - want).abs() <= 1e-12 * scale,
                        "y={y} step={step} m={m}: {val} vs {want}"
                    );
                    assert!(
                        (pw - want_pw).abs() <= 1e-12 * want_pw.abs(),
                        "y={y} step={step} m={m}: y^m {pw} vs {want_pw}"
                    );
                }
            }
        }
    }

    /// Adaptive trees have leaves at different depths; each leaf must
    /// evaluate at its own stride, not the shared maximum degree.
    #[test]
    fn par_stream_matches_horner_on_uneven_trees() {
        let pool = Arc::new(forkjoin::ForkJoinPool::new(2));
        let cfg = jstreams::ExecConfig::par()
            .with_pool(pool)
            .with_split_policy(jstreams::SplitPolicy::adaptive());
        let p = coeffs(1 << 14);
        let x = 0.9993;
        let expected = horner(p.as_slice(), x);
        for run in 0..50 {
            let collector = PolynomialCollector::new(x);
            let got = stream_support(poly_spliterator(p.clone(), &collector), true)
                .try_collect(collector, &cfg)
                .unwrap();
            assert!(rel_close(got, expected), "run {run}: {got} vs {expected}");
            // A mapped pipeline takes the per-element route, whose
            // supplier cannot see its leaf's depth: an uneven tree must
            // surface as an error, never as a wrong value.
            let collector = PolynomialCollector::new(x);
            match stream_support(poly_spliterator(p.clone(), &collector), true)
                .map(|c| c)
                .try_collect(collector, &cfg)
            {
                Ok(got) => assert!(rel_close(got, expected), "run {run}: {got}"),
                Err(e) => assert!(
                    e.panic_message().is_some_and(|m| m.contains("stride")),
                    "run {run}: {e:?}"
                ),
            }
        }
    }

    #[test]
    fn all_routes_agree() {
        let p = coeffs(1 << 9);
        let x = 0.73;
        let h = horner(p.as_slice(), x);
        let a = eval_seq_stream(p.clone(), x);
        let b = eval_par_stream(p.clone(), x);
        let c = SequentialExecutor::new().execute(&VpFunction::new(x), &p.view());
        for (name, v) in [("seq_stream", a), ("par_stream", b), ("jplf", c)] {
            assert!(rel_close(v, h), "{name}: {v} vs {h}");
        }
    }
}
