//! The four workloads. Each builds its inputs from the seed once, holds
//! them as shared `PowerView`/`Storage` handles, and builds a fresh
//! stream over those handles in every call, so no timed call copies its
//! input. Every call goes through a fallible `try_*` terminal and is
//! checked against a reference after its timer stops.

use jstreams::{
    stream_support, Collector, Decomposition, ExecConfig, ExecError, FirstHit,
    HookedZipSpliterator, ItemSource, LeafAccess, PowerListCollector, ReduceCollector, Spliterator,
    TieSpliterator, ZipSpliterator,
};
use plalgo::{horner, PolynomialCollector, TupledVpCollector};
use powerlist::{PowerArray, PowerList, PowerView, Storage};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use streambench::rng::{permutation, SplitMix64};

/// One rung of the layer ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// A plain Rust loop over the input, no library.
    Hand,
    /// The pipeline run sequentially.
    Seq,
    /// The parallel driver on a 1-worker pool.
    Par1,
    /// The parallel driver on the `nproc`-worker pool.
    ParN,
    /// The par@N pipeline over the other decomposition (tie ↔ zip), the
    /// control the traced run compares par@N against.
    Twin,
}

impl Rung {
    /// Short name for spans and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Hand => "hand",
            Rung::Seq => "seq",
            Rung::Par1 => "par1",
            Rung::ParN => "parn",
            Rung::Twin => "twin",
        }
    }

    /// Position in ladder order (hand, seq, par1, parN, twin).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One timed, checked call.
pub struct Call {
    /// When the timer started.
    pub start: Instant,
    /// Time spent inside the call.
    pub elapsed: Duration,
    /// Whether the call returned `Ok` with the right value.
    pub ok: bool,
}

/// One run of a leaf kernel over a leaf-sized part of the input.
pub struct LeafRun {
    /// Time spent in the kernel.
    pub elapsed: Duration,
    /// Elements the kernel consumed.
    pub elems: u64,
    /// Bytes the kernel computes on (read plus written), not bytes the
    /// memory system moved.
    pub computed_bytes: u64,
}

/// A benchmark workload.
pub trait Workload {
    /// Input length.
    fn n(&self) -> usize;

    /// Bytes of input (every workload's elements are 8 bytes wide).
    fn input_bytes(&self) -> usize {
        self.n() * 8
    }

    /// Calls in one cycle of the call sequence; a measured slot always
    /// runs whole cycles, so every slot sees the same mix of calls.
    fn calls_per_cycle(&self) -> usize {
        1
    }

    /// Runs call `i` of the cycle on `rung` under `cfg`.
    fn call(&self, rung: Rung, i: usize, cfg: &ExecConfig) -> Call;

    /// The useful work of call `i` — for a search that finds its value,
    /// the hit's index + 1 — or `None`.
    fn useful_items(&self, _i: usize) -> Option<u64> {
        None
    }

    /// Splits a fresh par@N source into `2^depth` leaves with
    /// `try_split` only; returns the time taken.
    fn split_probe(&self, depth: u32) -> Duration;

    /// Runs the collector's public leaf call closest to the par@N route
    /// once, over the first leaf of a fresh source split `depth` times.
    fn leaf_probe(&self, depth: u32) -> LeafRun;

    /// Microseconds of one public combine of two leaf results (averaged
    /// over a batch when a single combine is too short to time).
    fn combine_probe(&self, depth: u32) -> f64;

    /// A par@N `find_first` for a value absent from the input, over a
    /// tie view of it: the search layer's full-drain cost.
    fn absent_search(&self, cfg: &ExecConfig) -> Call;
}

/// `log2` of the input length of workload `name`.
pub fn log2_n(name: &str, smoke: bool) -> Option<u32> {
    let (full, small) = match name {
        "poly_eval" => (22, 12),
        "map_zip_collect" => (21, 11),
        "small_filter_reduce" => (14, 10),
        "find_first" => (20, 11),
        _ => return None,
    };
    Some(if smoke { small } else { full })
}

/// Builds workload `name` from `seed`.
pub fn build(name: &str, smoke: bool, seed: u64) -> Option<Box<dyn Workload>> {
    let n = 1usize << log2_n(name, smoke)?;
    Some(match name {
        "poly_eval" => Box::new(PolyEval::new(n, seed)),
        "map_zip_collect" => Box::new(MapZip::new(n, seed)),
        "small_filter_reduce" => Box::new(SmallFilterReduce::new(n, seed)),
        _ => Box::new(FindFirst::new(n, seed)),
    })
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Instant, Duration) {
    let start = Instant::now();
    let r = black_box(f());
    (r, start, start.elapsed())
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn call(start: Instant, elapsed: Duration, ok: bool) -> Call {
    Call { start, elapsed, ok }
}

/// Splits `s` recursively until `depth` levels or `try_split` refuses.
fn split_into<T, S: Spliterator<T>>(mut s: S, depth: u32, out: &mut Vec<S>) {
    if depth > 0 {
        if let Some(prefix) = s.try_split() {
            split_into(prefix, depth - 1, out);
            split_into(s, depth - 1, out);
            return;
        }
    }
    out.push(s);
}

fn split_timed<T, S: Spliterator<T>>(root: S, depth: u32) -> Duration {
    let mut leaves = Vec::with_capacity(1 << depth);
    let start = Instant::now();
    split_into(root, depth, &mut leaves);
    let elapsed = start.elapsed();
    black_box(&leaves);
    elapsed
}

/// The first two leaves of `root` split `depth ≥ 1` times.
fn two_leaves<T, S: Spliterator<T>>(root: S, depth: u32) -> (S, S) {
    let mut leaves = Vec::new();
    split_into(root, depth.max(1), &mut leaves);
    let mut it = leaves.into_iter();
    let a = it.next().expect("a split yields two leaves");
    let b = it.next().expect("the source is long enough to split");
    (a, b)
}

/// Calls in a timed batch of an O(1) combine.
const COMBINE_BATCH: u32 = 4096;

/// A value no i64 input contains: inputs are bounded random values or
/// a permutation of `0..n`.
const ABSENT: i64 = i64::MIN;

fn absent_i64(view: &PowerView<i64>, cfg: &ExecConfig) -> Call {
    let (r, start, elapsed) = timed(|| {
        stream_support(TieSpliterator::from_view(view), true)
            .filter(|x: &i64| *x == ABSENT)
            .try_find_first(cfg)
    });
    call(start, elapsed, matches!(r, Ok(None)))
}

fn random_i64(n: usize, seed: u64) -> Vec<i64> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| rng.range_i64(-1_000_000, 1_000_000))
        .collect()
}

fn view_of<T: Clone>(data: Vec<T>) -> (PowerView<T>, Storage<T>) {
    let view = PowerList::from_vec(data)
        .expect("workload sizes are powers of two")
        .view();
    let storage = view.storage();
    (view, storage)
}

// ---------------------------------------------------------------- poly_eval

/// Evaluation point of the paper's Figure 3 runs: close enough to 1
/// that 2^22 ascending powers stay well inside `f64` range.
const X: f64 = 0.9999993;

/// Eq. 4 polynomial evaluation, the paper's own workload.
struct PolyEval {
    view: PowerView<f64>,
    coeffs: Storage<f64>,
    reference: f64,
    tolerance: f64,
}

impl PolyEval {
    fn new(n: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let coeffs: Vec<f64> = (0..n).map(|_| rng.unit_f64()).collect();
        let reference = horner(&coeffs, X);
        // Any summation order's rounding error is bounded relative to
        // Σ|cᵢ xⁱ|, not to |P(x)|, which cancellation can make tiny.
        let mut scale = 0.0;
        let mut pw = 1.0;
        for c in &coeffs {
            scale += c.abs() * pw;
            pw *= X;
        }
        let (view, coeffs) = view_of(coeffs);
        PolyEval {
            view,
            coeffs,
            reference,
            tolerance: 1e-9 * scale,
        }
    }

    /// The paper's `PZipSpliterator`: a zip view whose split hook
    /// doubles the local `x_degree` and max-updates the collector's
    /// shared one.
    fn spliterator(&self, collector: &PolynomialCollector) -> HookedZipSpliterator<f64, u64> {
        let shared = collector.degree_state();
        let hook: Arc<dyn Fn(&mut u64) -> u64 + Send + Sync> = Arc::new(move |local| {
            *local *= 2;
            shared.update_max(*local);
            *local
        });
        HookedZipSpliterator::new(ZipSpliterator::from_view(&self.view), 1, hook)
    }
}

/// The hand rung: the same running-power sum the collector's leaves
/// compute, as a plain loop.
fn hand_poly(coeffs: &[f64]) -> f64 {
    let mut acc = 0.0;
    let mut pw = 1.0;
    for &c in coeffs {
        acc += c * pw;
        pw *= X;
    }
    acc
}

impl Workload for PolyEval {
    fn n(&self) -> usize {
        self.view.len()
    }

    fn call(&self, rung: Rung, _i: usize, cfg: &ExecConfig) -> Call {
        let (r, start, elapsed) = match rung {
            Rung::Hand => timed(|| Ok(hand_poly(black_box(self.coeffs.as_slice())))),
            // The tupled (tie) formulation of the same polynomial.
            Rung::Twin => timed(|| {
                stream_support(TieSpliterator::from_view(&self.view), true)
                    .try_collect(TupledVpCollector::new(X), cfg)
            }),
            _ => timed(|| {
                let collector = PolynomialCollector::new(X);
                stream_support(self.spliterator(&collector), true).try_collect(collector, cfg)
            }),
        };
        let ok = r.is_ok_and(|v| (v - self.reference).abs() <= self.tolerance);
        call(start, elapsed, ok)
    }

    fn split_probe(&self, depth: u32) -> Duration {
        split_timed(self.spliterator(&PolynomialCollector::new(X)), depth)
    }

    fn leaf_probe(&self, depth: u32) -> LeafRun {
        // Splitting through the hook sets the shared degree, so the
        // kernel runs at the leaf's real stride.
        let collector = PolynomialCollector::new(X);
        let (leaf, _) = two_leaves(self.spliterator(&collector), depth);
        let (items, step) = leaf.try_as_strided().expect("zip leaves borrow");
        let elems = items.len().div_ceil(step) as u64;
        let (_, _, elapsed) = timed(|| collector.leaf_strided(black_box(items), step));
        LeafRun {
            elapsed,
            elems,
            computed_bytes: elems * 8,
        }
    }

    fn combine_probe(&self, depth: u32) -> f64 {
        let collector = PolynomialCollector::new(X);
        let (a, b) = two_leaves(self.spliterator(&collector), depth);
        let leaf = |s: &HookedZipSpliterator<f64, u64>| {
            let (items, step) = s.try_as_strided().expect("zip leaves borrow");
            collector
                .leaf_strided(items, step)
                .expect("the collector has a strided kernel")
        };
        let (a, b) = (leaf(&a), leaf(&b));
        let (_, _, elapsed) = timed(|| {
            for _ in 0..COMBINE_BATCH {
                black_box(collector.combine(black_box(a), black_box(b)));
            }
        });
        micros(elapsed) / f64::from(COMBINE_BATCH)
    }

    fn absent_search(&self, cfg: &ExecConfig) -> Call {
        // Coefficients lie in [-1, 1).
        let (r, start, elapsed) = timed(|| {
            stream_support(TieSpliterator::from_view(&self.view), true)
                .filter(|c: &f64| *c > 1.0)
                .try_find_first(cfg)
        });
        call(start, elapsed, matches!(r, Ok(None)))
    }
}

// ---------------------------------------------------------- map_zip_collect

fn affine(x: i64) -> i64 {
    3 * x + 1
}

/// A zip-view map collected into a PowerList: the placement route with
/// interleaved output windows.
struct MapZip {
    view: PowerView<i64>,
    data: Storage<i64>,
    expected: Vec<i64>,
}

impl MapZip {
    fn new(n: usize, seed: u64) -> Self {
        let data = random_i64(n, seed);
        let expected = data.iter().map(|&x| affine(x)).collect();
        let (view, data) = view_of(data);
        MapZip {
            view,
            data,
            expected,
        }
    }

    fn collect(&self, d: Decomposition, cfg: &ExecConfig) -> Result<Vec<i64>, ExecError> {
        let out = match d {
            Decomposition::Zip => stream_support(ZipSpliterator::from_view(&self.view), true)
                .map(affine)
                .try_collect(PowerListCollector::new(d), cfg),
            Decomposition::Tie => stream_support(TieSpliterator::from_view(&self.view), true)
                .map(affine)
                .try_collect(PowerListCollector::new(d), cfg),
        };
        out.map(PowerArray::into_vec)
    }
}

impl Workload for MapZip {
    fn n(&self) -> usize {
        self.view.len()
    }

    // The output is checked, then freed, after the timer stops.
    fn call(&self, rung: Rung, _i: usize, cfg: &ExecConfig) -> Call {
        let (r, start, elapsed) = match rung {
            Rung::Hand => timed(|| {
                Ok(black_box(self.data.as_slice())
                    .iter()
                    .map(|&x| affine(x))
                    .collect())
            }),
            Rung::Twin => timed(|| self.collect(Decomposition::Tie, cfg)),
            _ => timed(|| self.collect(Decomposition::Zip, cfg)),
        };
        call(start, elapsed, r.is_ok_and(|out| out == self.expected))
    }

    fn split_probe(&self, depth: u32) -> Duration {
        let root = stream_support(ZipSpliterator::from_view(&self.view), true)
            .map(affine)
            .into_spliterator();
        split_timed(root, depth)
    }

    fn leaf_probe(&self, depth: u32) -> LeafRun {
        // The placement route's leaf: the fused map chain pushed over
        // the borrowed strided run into an output window.
        let root = stream_support(ZipSpliterator::from_view(&self.view), true)
            .map(affine)
            .into_spliterator();
        let (mut leaf, _) = two_leaves(root, depth);
        let mut out = Vec::with_capacity(leaf.estimate_size());
        let (filled, _, elapsed) = timed(|| leaf.fused_fill(&mut |u| out.push(u)));
        let elems = filled.expect("an exact chain over a view fills");
        black_box(out);
        LeafRun {
            elapsed,
            elems,
            computed_bytes: elems * 16,
        }
    }

    fn combine_probe(&self, depth: u32) -> f64 {
        // The splice combine placement avoids: zip_all of two leaf
        // PowerArrays, built and freed outside the timer.
        let collector = PowerListCollector::new(Decomposition::Zip);
        let (a, b) = two_leaves(ZipSpliterator::from_view(&self.view), depth);
        let leaf = |s: &ZipSpliterator<i64>| {
            let (items, step) = s.try_as_strided().expect("zip leaves borrow");
            Collector::<i64>::leaf_strided(&collector, items, step)
                .expect("the collector has a strided kernel")
        };
        let (a, b) = (leaf(&a), leaf(&b));
        let (out, _, elapsed) = timed(|| collector.combine(a, b));
        drop(out);
        micros(elapsed)
    }

    fn absent_search(&self, cfg: &ExecConfig) -> Call {
        absent_i64(&self.view, cfg)
    }
}

// ------------------------------------------------------ small_filter_reduce

fn square_plus_one(x: i64) -> i64 {
    x.wrapping_mul(x).wrapping_add(1)
}

fn odd(v: &i64) -> bool {
    v & 1 == 1
}

/// A cache-resident map/filter/reduce: fixed per-call cost dominates.
struct SmallFilterReduce {
    view: PowerView<i64>,
    data: Storage<i64>,
    expected: i64,
}

impl SmallFilterReduce {
    fn new(n: usize, seed: u64) -> Self {
        let (view, data) = view_of(random_i64(n, seed));
        let expected = hand_filter_reduce(data.as_slice());
        SmallFilterReduce {
            view,
            data,
            expected,
        }
    }
}

fn hand_filter_reduce(data: &[i64]) -> i64 {
    data.iter()
        .map(|&x| square_plus_one(x))
        .filter(odd)
        .fold(0, i64::wrapping_add)
}

impl Workload for SmallFilterReduce {
    fn n(&self) -> usize {
        self.view.len()
    }

    fn call(&self, rung: Rung, _i: usize, cfg: &ExecConfig) -> Call {
        let (r, start, elapsed) = match rung {
            Rung::Hand => timed(|| Ok(hand_filter_reduce(black_box(self.data.as_slice())))),
            Rung::Twin => timed(|| {
                stream_support(ZipSpliterator::from_view(&self.view), true)
                    .map(square_plus_one)
                    .filter(odd)
                    .try_reduce(0, i64::wrapping_add, cfg)
            }),
            _ => timed(|| {
                stream_support(TieSpliterator::from_view(&self.view), true)
                    .map(square_plus_one)
                    .filter(odd)
                    .try_reduce(0, i64::wrapping_add, cfg)
            }),
        };
        call(start, elapsed, r.is_ok_and(|v| v == self.expected))
    }

    fn split_probe(&self, depth: u32) -> Duration {
        let root = stream_support(TieSpliterator::from_view(&self.view), true)
            .map(square_plus_one)
            .filter(odd)
            .into_spliterator();
        split_timed(root, depth)
    }

    fn leaf_probe(&self, depth: u32) -> LeafRun {
        // The fused-borrow leaf: map and filter pushed over the borrowed
        // run into the reduce accumulator.
        let root = stream_support(TieSpliterator::from_view(&self.view), true)
            .map(square_plus_one)
            .filter(odd)
            .into_spliterator();
        let (mut leaf, _) = two_leaves(root, depth);
        let elems = leaf.estimate_size() as u64;
        let collector = ReduceCollector::new(0, i64::wrapping_add);
        let (r, _, elapsed) = timed(|| leaf.fused_leaf(&collector));
        assert!(r.is_some(), "a fused chain over a view takes the borrow");
        LeafRun {
            elapsed,
            elems,
            computed_bytes: elems * 8,
        }
    }

    fn combine_probe(&self, _depth: u32) -> f64 {
        let collector = ReduceCollector::new(0, i64::wrapping_add);
        let (a, b) = (self.expected, self.expected >> 1);
        let (_, _, elapsed) = timed(|| {
            for _ in 0..COMBINE_BATCH {
                black_box(collector.combine(black_box(a), black_box(b)));
            }
        });
        micros(elapsed) / f64::from(COMBINE_BATCH)
    }

    fn absent_search(&self, cfg: &ExecConfig) -> Call {
        absent_i64(&self.view, cfg)
    }
}

// --------------------------------------------------------------- find_first

/// Calls per needle cycle; one in eight looks for an absent value.
const NEEDLE_CYCLE: usize = 64;

/// A filtered `find_first` over a permutation: the search layer.
struct FindFirst {
    view: PowerView<i64>,
    data: Storage<i64>,
    /// `(needle, position)` per call of the cycle; `None` = absent.
    needles: Vec<(i64, Option<usize>)>,
}

impl FindFirst {
    fn new(n: usize, seed: u64) -> Self {
        let perm = permutation(n, seed);
        // Present needles sit at the midpoints of 56 equal strata, so a
        // cycle covers the input uniformly. The positions — which set
        // each call's cost — are the same for every seed; the seed picks
        // the values found there. Calls visit the strata in a scattered
        // order (stride 23, coprime with 56), and every eighth call looks
        // for a value the permutation does not hold.
        let present = NEEDLE_CYCLE - NEEDLE_CYCLE / 8;
        let mut strata = (0..present).map(|k| (k * 23) % present);
        let needles = (0..NEEDLE_CYCLE)
            .map(|i| match i % 8 {
                7 => (n as i64, None),
                _ => {
                    let k = strata.next().expect("56 present calls per cycle");
                    let pos = (2 * k + 1) * n / (2 * present);
                    (perm[pos], Some(pos))
                }
            })
            .collect();
        let (view, data) = view_of(perm);
        FindFirst {
            view,
            data,
            needles,
        }
    }
}

impl Workload for FindFirst {
    fn n(&self) -> usize {
        self.view.len()
    }

    fn calls_per_cycle(&self) -> usize {
        NEEDLE_CYCLE
    }

    fn call(&self, rung: Rung, i: usize, cfg: &ExecConfig) -> Call {
        let (needle, pos) = self.needles[i % NEEDLE_CYCLE];
        let (r, start, elapsed) = match rung {
            Rung::Hand => timed(|| {
                Ok(black_box(self.data.as_slice())
                    .iter()
                    .copied()
                    .find(|&x| x == needle))
            }),
            Rung::Twin => timed(|| {
                stream_support(ZipSpliterator::from_view(&self.view), true)
                    .filter(move |x: &i64| *x == needle)
                    .try_find_first(cfg)
            }),
            _ => timed(|| {
                stream_support(TieSpliterator::from_view(&self.view), true)
                    .filter(move |x: &i64| *x == needle)
                    .try_find_first(cfg)
            }),
        };
        let expected = pos.map(|_| needle);
        call(start, elapsed, r.is_ok_and(|v| v == expected))
    }

    fn useful_items(&self, i: usize) -> Option<u64> {
        self.needles[i % NEEDLE_CYCLE].1.map(|p| p as u64 + 1)
    }

    fn split_probe(&self, depth: u32) -> Duration {
        let root = stream_support(TieSpliterator::from_view(&self.view), true)
            .filter(|x: &i64| *x == ABSENT)
            .into_spliterator();
        split_timed(root, depth)
    }

    fn leaf_probe(&self, depth: u32) -> LeafRun {
        // The fused search leaf, scanning a whole leaf (no hit).
        let root = stream_support(TieSpliterator::from_view(&self.view), true)
            .filter(|x: &i64| *x == ABSENT)
            .into_spliterator();
        let (mut leaf, _) = two_leaves(root, depth);
        let elems = leaf.estimate_size() as u64;
        let (r, _, elapsed) = timed(|| leaf.fused_search(&mut |x: &i64| *x == ABSENT));
        assert!(
            matches!(r, Some((false, _))),
            "a fused chain over a view takes the borrow and finds nothing"
        );
        LeafRun {
            elapsed,
            elems,
            computed_bytes: elems * 8,
        }
    }

    fn combine_probe(&self, _depth: u32) -> f64 {
        // The search's cross-leaf merge: offering a hit to the shared
        // first-hit cell and testing a sibling for pruning.
        let hit = FirstHit::new();
        let (_, _, elapsed) = timed(|| {
            for k in (0..COMBINE_BATCH as usize).rev() {
                hit.offer(k, k as i64);
                black_box(hit.prunes(k));
            }
        });
        micros(elapsed) / f64::from(COMBINE_BATCH)
    }

    fn absent_search(&self, cfg: &ExecConfig) -> Call {
        absent_i64(&self.view, cfg)
    }
}
