//! Differential route-equivalence harness.
//!
//! Every algorithm in the catalogue must produce the same answer through
//! every execution route the repo implements:
//!
//! 1. the sequential specification (plain folds/loops over slices);
//! 2. the streams adaptation's **cloning** collect (per-element drain
//!    through `Collector::accumulate`);
//! 3. the streams adaptation's **zero-copy** collect (borrowed-leaf
//!    kernels via `LeafAccess` + `Collector::leaf_strided`);
//! 4. the JPLF fork-join executor;
//! 5. the simulated-MPI executor.
//!
//! Routes 2 and 3 share the same spliterators and collectors; the only
//! difference is whether the driver is allowed to see the borrowed run.
//! The [`Opaque`] wrapper below hides the `LeafAccess` capability of any
//! spliterator, forcing the cloning drain — so each property pins the
//! zero-copy kernels against the exact per-element semantics they
//! replaced, on the same random input.

use jplf::{Decomp, Executor, ForkJoinExecutor, MpiExecutor, PListFunction, SequentialExecutor};
use jstreams::{
    stream_support, try_collect_nway, AdaptiveSplit, Characteristics, CountCollector,
    Decomposition, ExecConfig, ExtremumCollector, FusePipe, HookedZipSpliterator, IdentityStage,
    ItemSource, JoiningCollector, LeafAccess, NTieSpliterator, NWayCollector, PowerListCollector,
    PowerMapCollector, PowerSpliterator, ReduceCollector, SliceSpliterator, SplitPolicy,
    Spliterator, TieSpliterator, VecCollector, ZipSpliterator,
};
use powerlist::{PList, PowerList, PowerView};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The recorded tests below install a **global** plobs sink, so any
/// test running concurrently in this binary would leak its events into
/// their reports (the Opaque-forced cloning drains especially). The
/// route properties share this lock for reading; the recorded tests
/// take it exclusively.
static ROUTE_LOCK: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    ROUTE_LOCK.read().unwrap_or_else(|e| e.into_inner())
}

fn exclusive() -> RwLockWriteGuard<'static, ()> {
    ROUTE_LOCK.write().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------
// Route plumbing
// ---------------------------------------------------------------------

/// Delegating wrapper that hides a spliterator's `LeafAccess` capability
/// (all methods keep their "no borrowed access" defaults), forcing the
/// collect driver down the cloning per-element drain.
struct Opaque<S>(S);

impl<T, S: ItemSource<T>> ItemSource<T> for Opaque<S> {
    fn try_advance(&mut self, action: &mut dyn FnMut(T)) -> bool {
        self.0.try_advance(action)
    }

    fn for_each_remaining(&mut self, action: &mut dyn FnMut(T)) {
        self.0.for_each_remaining(action)
    }

    fn estimate_size(&self) -> usize {
        self.0.estimate_size()
    }
}

// Deliberately empty: `try_as_strided` answers `None`.
impl<T, S> LeafAccess<T> for Opaque<S> {}

impl<T, S: Spliterator<T>> Spliterator<T> for Opaque<S> {
    fn try_split(&mut self) -> Option<Self> {
        self.0.try_split().map(Opaque)
    }

    fn characteristics(&self) -> Characteristics {
        self.0.characteristics()
    }
}

// Identity FusePipe: lets `.map`/`.filter` build a fused chain over an
// Opaque source, whose hidden `LeafAccess` then refuses the fused-borrow
// route — the same chain, forced down the cloning drain.
impl<T, S> FusePipe<T> for Opaque<S>
where
    T: Clone + Send + 'static,
    S: Spliterator<T> + 'static,
{
    type Base = T;
    type Src = Self;
    type Chain = IdentityStage;

    fn decompose(self) -> (Self, IdentityStage) {
        (self, IdentityStage)
    }
}

fn powerlist_i64(max_k: u32) -> impl Strategy<Value = PowerList<i64>> {
    (0..=max_k)
        .prop_flat_map(|k| proptest::collection::vec(-1000i64..1000, 1 << k as usize))
        .prop_map(|v| PowerList::from_vec(v).unwrap())
}

fn powerlist_f64(max_k: u32) -> impl Strategy<Value = PowerList<f64>> {
    (0..=max_k)
        .prop_flat_map(|k| proptest::collection::vec(-1.0f64..1.0, 1 << k as usize))
        .prop_map(|v| PowerList::from_vec(v).unwrap())
}

fn decomp_of(zip: bool) -> (Decomposition, Decomp) {
    if zip {
        (Decomposition::Zip, Decomp::Zip)
    } else {
        (Decomposition::Tie, Decomp::Tie)
    }
}

fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-8 * (1.0 + a.abs().max(b.abs()))
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Map: spec = cloning collect = zero-copy collect = fork-join =
    /// MPI-sim, under both decompositions and arbitrary leaf sizes.
    #[test]
    fn map_routes_agree(p in powerlist_i64(9), c in -7i64..7, zip in any::<bool>(),
                        leaf in 1usize..64) {
        let _shared = shared();
        let (ds, dj) = decomp_of(zip);
        let spec = powerlist::ops::map(&p, |x| x * c - 3);

        // Zero-copy collect (PowerMapCollector has a borrowed-run kernel).
        let zero_copy = stream_support(PowerSpliterator::over(p.clone(), ds), true)
            .with_leaf_size(leaf)
            .collect(PowerMapCollector::new(ds, move |x: i64| x * c - 3))
            .into_vec();
        prop_assert_eq!(&zero_copy[..], spec.as_slice());

        // Cloning collect: same spliterator and collector, capability hidden.
        let cloning = stream_support(Opaque(PowerSpliterator::over(p.clone(), ds)), true)
            .with_leaf_size(leaf)
            .collect(PowerMapCollector::new(ds, move |x: i64| x * c - 3))
            .into_vec();
        prop_assert_eq!(&cloning[..], spec.as_slice());

        // JPLF executors.
        let f = plalgo::MapFunction::new(dj, move |x: &i64| x * c - 3);
        let v = p.view();
        prop_assert_eq!(SequentialExecutor::new().execute(&f, &v), spec.clone());
        prop_assert_eq!(ForkJoinExecutor::new(2, leaf).execute(&f, &v), spec.clone());
        prop_assert_eq!(MpiExecutor::new(4).execute(&f, &v), spec);
    }

    /// Reduce with a **non-commutative** (but associative) combine:
    /// composition of affine maps `x ↦ a·x + b`. Tie decomposition only —
    /// tie splits preserve contiguous order, which is exactly what a
    /// non-commutative reduction requires (zip would interleave residue
    /// classes and legitimately change the answer).
    #[test]
    fn reduce_noncommutative_routes_agree(
        raw in (0u32..=8).prop_flat_map(|k| {
            proptest::collection::vec((-9i64..9, -9i64..9), 1usize << k)
        }),
        leaf in 1usize..32,
    ) {
        let _shared = shared();
        let compose = |l: (i64, i64), r: (i64, i64)| {
            (l.0.wrapping_mul(r.0), l.0.wrapping_mul(r.1).wrapping_add(l.1))
        };
        let spec = raw.iter().fold((1i64, 0i64), |acc, &x| compose(acc, x));
        let p = PowerList::from_vec(raw).unwrap();

        // Zero-copy (TieSpliterator exposes the borrowed run).
        let zc = stream_support(TieSpliterator::over(p.clone()), true)
            .with_leaf_size(leaf)
            .collect(ReduceCollector::new((1i64, 0i64), compose));
        prop_assert_eq!(zc, spec);

        // Cloning drain, same collector.
        let cl = stream_support(Opaque(TieSpliterator::over(p.clone())), true)
            .with_leaf_size(leaf)
            .collect(ReduceCollector::new((1i64, 0i64), compose));
        prop_assert_eq!(cl, spec);

        // JPLF routes.
        let f = plalgo::ReduceFunction::new(Decomp::Tie, move |a: &(i64, i64), b: &(i64, i64)| {
            compose(*a, *b)
        });
        let v = p.view();
        prop_assert_eq!(SequentialExecutor::new().execute(&f, &v), spec);
        prop_assert_eq!(ForkJoinExecutor::new(3, leaf).execute(&f, &v), spec);
        prop_assert_eq!(MpiExecutor::new(4).execute(&f, &v), spec);
    }

    /// Commutative reduce agrees across routes under both decompositions.
    #[test]
    fn reduce_commutative_routes_agree(p in powerlist_i64(9), zip in any::<bool>(),
                                       leaf in 1usize..64) {
        let _shared = shared();
        let (ds, dj) = decomp_of(zip);
        let spec = powerlist::ops::reduce(&p, |a, b| a + b);

        let zc = stream_support(PowerSpliterator::over(p.clone(), ds), true)
            .with_leaf_size(leaf)
            .collect(ReduceCollector::new(0i64, |a, b| a + b));
        prop_assert_eq!(zc, spec);

        let cl = stream_support(Opaque(PowerSpliterator::over(p.clone(), ds)), true)
            .with_leaf_size(leaf)
            .collect(ReduceCollector::new(0i64, |a, b| a + b));
        prop_assert_eq!(cl, spec);

        let f = plalgo::ReduceFunction::new(dj, |a: &i64, b: &i64| a + b);
        let v = p.view();
        prop_assert_eq!(ForkJoinExecutor::new(2, leaf).execute(&f, &v), spec);
        prop_assert_eq!(MpiExecutor::new(8).execute(&f, &v), spec);
    }

    /// Prefix scan: specification fold = sequential Ladner–Fischer =
    /// parallel scan at arbitrary grain.
    #[test]
    fn scan_routes_agree(p in powerlist_i64(9), grain in 1usize..80) {
        let _shared = shared();
        let spec = plalgo::scan_spec(p.as_slice(), |a, b| a + b);
        let seq = plalgo::scan_seq(&p, 0, |a, b| a + b);
        prop_assert_eq!(seq.as_slice(), &spec[..]);
        let pool = forkjoin::ForkJoinPool::new(2);
        let par = plalgo::scan_par(&pool, &p, 0, |a: &i64, b: &i64| a + b, grain).unwrap();
        prop_assert_eq!(par.as_slice(), &spec[..]);
    }

    /// Polynomial evaluation: Horner = sequential stream = parallel
    /// stream (zero-copy and cloning) = tupled-vp stream = JPLF routes.
    #[test]
    fn vp_routes_agree(coeffs in powerlist_f64(9), x in -0.99f64..0.99, leaf in 1usize..64) {
        let _shared = shared();
        let spec = plalgo::horner(coeffs.as_slice(), x);

        prop_assert!(rel_close(plalgo::eval_seq_stream(coeffs.clone(), x), spec));
        prop_assert!(rel_close(plalgo::eval_par_stream(coeffs.clone(), x), spec));
        prop_assert!(rel_close(plalgo::eval_tupled_stream(coeffs.clone(), x), spec));

        // Tupled vp through the forced cloning drain.
        let cl = stream_support(Opaque(TieSpliterator::over(coeffs.clone())), true)
            .with_leaf_size(leaf)
            .collect(plalgo::TupledVpCollector::new(x));
        prop_assert!(rel_close(cl, spec));

        let v = coeffs.view();
        let vp = plalgo::VpFunction::new(x);
        prop_assert!(rel_close(SequentialExecutor::new().execute(&vp, &v), spec));
        prop_assert!(rel_close(ForkJoinExecutor::new(2, leaf).execute(&vp, &v), spec));
        prop_assert!(rel_close(MpiExecutor::new(4).execute(&vp, &v), spec));
    }

    /// FFT: sequential spec = zero-copy stream (strided borrowed leaves)
    /// = cloning stream = JPLF fork-join = MPI-sim.
    #[test]
    fn fft_routes_agree(re in powerlist_f64(7), leaf in 1usize..32) {
        let _shared = shared();
        let signal = powerlist::ops::map(&re, |&x| plalgo::Complex::new(x, -x * 0.5));
        let spec = plalgo::fft_seq(&signal);
        let close = |out: &PowerList<plalgo::Complex>| {
            out.iter().zip(spec.iter()).all(|(a, b)| a.approx_eq(*b, 1e-7))
        };

        prop_assert!(close(&plalgo::fft_stream(signal.clone())));

        let cl = stream_support(
            Opaque(PowerSpliterator::over(signal.clone(), Decomposition::Zip)),
            true,
        )
        .with_leaf_size(leaf)
        .collect(plalgo::FftCollector);
        prop_assert!(close(&cl));

        let v = signal.view();
        prop_assert!(close(&ForkJoinExecutor::new(2, leaf).execute(&plalgo::FftFunction, &v)));
        prop_assert!(close(&MpiExecutor::new(4).execute(&plalgo::FftFunction, &v)));
    }

    /// Sorting networks: Batcher (seq + par) and bitonic all agree with
    /// the standard library sort.
    #[test]
    fn sort_routes_agree(p in powerlist_i64(9), grain in 1usize..128) {
        let _shared = shared();
        let mut expected = p.clone().into_vec();
        expected.sort();
        let batcher = plalgo::batcher_sort(&p);
        prop_assert_eq!(batcher.as_slice(), &expected[..]);
        let bitonic = plalgo::bitonic_sort(&p);
        prop_assert_eq!(bitonic.as_slice(), &expected[..]);
        let pool = forkjoin::ForkJoinPool::new(2);
        let par = plalgo::batcher_sort_par(&pool, &p, grain);
        prop_assert_eq!(par.as_slice(), &expected[..]);
    }

    /// Gray codes: the structural (PowerList recursion) and closed-form
    /// constructions coincide, decode correctly, and step one bit at a
    /// time.
    #[test]
    fn gray_routes_agree(bits in 1u32..11) {
        let _shared = shared();
        let structural = plalgo::gray_structural(bits).unwrap();
        let closed = plalgo::gray_closed(bits).unwrap();
        prop_assert_eq!(&structural, &closed);
        for (i, &g) in structural.iter().enumerate() {
            prop_assert_eq!(plalgo::gray_decode(g), i as u64);
            if i > 0 {
                let diff = g ^ structural[i - 1];
                prop_assert_eq!(diff.count_ones(), 1, "step {i} flips {diff:#b}");
            }
        }
    }

    /// Split policies are tree-shape-only: `Fixed` and `Adaptive` agree
    /// with the sequential spec across map / filter / reduce pipelines,
    /// on SIZED sources and on non-SIZED (filtered) ones whose size
    /// estimate is just an upper bound.
    #[test]
    fn split_policies_agree_with_spec(
        raw in proptest::collection::vec(-1000i64..1000, 1..600),
        leaf in 1usize..64,
        min_leaf in 1usize..32,
    ) {
        let _shared = shared();
        let policies = [
            SplitPolicy::Fixed(leaf),
            SplitPolicy::Adaptive(AdaptiveSplit { min_leaf, ..AdaptiveSplit::default() }),
        ];
        let spec_map: i64 = raw.iter().map(|x| x * 3 - 1).sum();
        let spec_filter: i64 = raw.iter().filter(|x| *x % 3 == 0).sum();
        let spec_survivors: Vec<i64> =
            raw.iter().copied().filter(|x| x % 3 == 0).collect();
        for policy in policies {
            // SIZED pipeline: map + reduce.
            let m = stream_support(SliceSpliterator::new(raw.clone()), true)
                .with_split_policy(policy)
                .map(|x| x * 3 - 1)
                .reduce(0, |a, b| a + b);
            prop_assert_eq!(m, spec_map, "map+reduce under {:?}", policy);
            // Non-SIZED pipeline: filter + reduce.
            let f = stream_support(SliceSpliterator::new(raw.clone()), true)
                .with_split_policy(policy)
                .filter(|x| x % 3 == 0)
                .reduce(0, |a, b| a + b);
            prop_assert_eq!(f, spec_filter, "filter+reduce under {:?}", policy);
            // Non-SIZED with order-sensitive output: filter + to_vec.
            let v = stream_support(SliceSpliterator::new(raw.clone()), true)
                .with_split_policy(policy)
                .filter(|x| x % 3 == 0)
                .to_vec();
            prop_assert_eq!(&v, &spec_survivors, "filter+to_vec under {:?}", policy);
        }
    }

    /// Both split policies evaluate the paper's vp polynomial collector
    /// to the Horner reference.
    #[test]
    fn split_policies_agree_on_vp(coeffs in powerlist_f64(8), x in -0.99f64..0.99,
                                  min_leaf in 1usize..32) {
        let _shared = shared();
        let spec = plalgo::horner(coeffs.as_slice(), x);
        let fixed = stream_support(TieSpliterator::over(coeffs.clone()), true)
            .with_split_policy(SplitPolicy::Fixed(min_leaf))
            .collect(plalgo::TupledVpCollector::new(x));
        prop_assert!(rel_close(fixed, spec));
        let adaptive_policy =
            SplitPolicy::Adaptive(AdaptiveSplit { min_leaf, ..AdaptiveSplit::default() });
        let adaptive = stream_support(TieSpliterator::over(coeffs.clone()), true)
            .with_split_policy(adaptive_policy)
            .collect(plalgo::TupledVpCollector::new(x));
        prop_assert!(rel_close(adaptive, spec));
    }

    /// Maximum segment sum: spec = Kadane = zero-copy stream = cloning
    /// stream = JPLF fork-join = MPI-sim.
    #[test]
    fn mss_routes_agree(p in powerlist_i64(9), leaf in 1usize..64) {
        let _shared = shared();
        let spec = plalgo::mss_spec(p.as_slice());
        prop_assert_eq!(plalgo::mss_kadane(p.as_slice()), spec);
        prop_assert_eq!(plalgo::mss_stream(p.clone()), spec);

        let cl = stream_support(Opaque(TieSpliterator::over(p.clone())), true)
            .with_leaf_size(leaf)
            .collect(plalgo::MssCollector);
        prop_assert_eq!(cl, spec);

        let v = p.view();
        prop_assert_eq!(ForkJoinExecutor::new(2, leaf).execute(&plalgo::MssFunction, &v).best, spec);
        prop_assert_eq!(MpiExecutor::new(4).execute(&plalgo::MssFunction, &v).best, spec);
    }
}

// ---------------------------------------------------------------------
// Fused-pipeline equivalence: `Stream::map`/`filter` now build a fused
// chain over the untouched source, whose leaves take the fused-borrow
// route. Every adapted pipeline must agree with the sequential spec,
// with the same chain forced down the cloning drain (Opaque source),
// and — where the powerlist theory has a counterpart (map; there is no
// length-breaking filter in PowerList algebra) — with the JPLF
// fork-join executor.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// map + reduce: spec = cloning = fused-borrow = JPLF fork-join.
    #[test]
    fn fused_map_routes_agree(p in powerlist_i64(9), c in -7i64..7, leaf in 1usize..64) {
        let _shared = shared();
        let f = move |x: i64| x.wrapping_mul(c).wrapping_sub(5);
        let spec = p.iter().map(|&x| f(x)).fold(0i64, i64::wrapping_add);

        let fused = stream_support(TieSpliterator::over(p.clone()), true)
            .with_leaf_size(leaf)
            .map(f)
            .reduce(0i64, i64::wrapping_add);
        prop_assert_eq!(fused, spec);

        let cloning = stream_support(Opaque(TieSpliterator::over(p.clone())), true)
            .with_leaf_size(leaf)
            .map(f)
            .reduce(0i64, i64::wrapping_add);
        prop_assert_eq!(cloning, spec);

        // JPLF fork-join: map to the same values, then tie-reduce them.
        let mf = plalgo::MapFunction::new(Decomp::Tie, move |x: &i64| f(*x));
        let v = p.view();
        let mapped = ForkJoinExecutor::new(2, leaf).execute(&mf, &v);
        let rf = plalgo::ReduceFunction::new(Decomp::Tie, |a: &i64, b: &i64| {
            a.wrapping_add(*b)
        });
        let mv = mapped.view();
        prop_assert_eq!(ForkJoinExecutor::new(2, leaf).execute(&rf, &mv), spec);
    }

    /// filter + reduce and filter + to_vec (order-sensitive): spec =
    /// cloning = fused-borrow, over Tie and Slice sources.
    #[test]
    fn fused_filter_routes_agree(p in powerlist_i64(9), m in 2i64..7, leaf in 1usize..64) {
        let _shared = shared();
        let keep = move |x: &i64| x.rem_euclid(m) != 0;
        let spec_sum: i64 = p.iter().copied().filter(keep).sum();
        let spec_vec: Vec<i64> = p.iter().copied().filter(keep).collect();

        let fused = stream_support(TieSpliterator::over(p.clone()), true)
            .with_leaf_size(leaf)
            .filter(keep)
            .reduce(0i64, |a, b| a + b);
        prop_assert_eq!(fused, spec_sum);

        let cloning = stream_support(Opaque(TieSpliterator::over(p.clone())), true)
            .with_leaf_size(leaf)
            .filter(keep)
            .reduce(0i64, |a, b| a + b);
        prop_assert_eq!(cloning, spec_sum);

        let ordered = stream_support(SliceSpliterator::new(p.clone().into_vec()), true)
            .with_leaf_size(leaf)
            .filter(keep)
            .to_vec();
        prop_assert_eq!(ordered, spec_vec);
    }

    /// map ∘ filter with a **non-commutative** (but associative) reduce —
    /// composition of affine maps — over a Tie source, whose splits
    /// preserve contiguous order: spec = cloning = fused-borrow.
    #[test]
    fn fused_map_filter_noncommutative_routes_agree(
        p in powerlist_i64(8),
        leaf in 1usize..32,
    ) {
        let _shared = shared();
        let to_affine = |x: i64| (x.rem_euclid(5) - 2, x.rem_euclid(7) - 3);
        let keep = |t: &(i64, i64)| t.0 != 0;
        let compose = |l: (i64, i64), r: (i64, i64)| {
            (l.0.wrapping_mul(r.0), l.0.wrapping_mul(r.1).wrapping_add(l.1))
        };
        let spec = p
            .iter()
            .map(|&x| to_affine(x))
            .filter(keep)
            .fold((1i64, 0i64), compose);

        let fused = stream_support(TieSpliterator::over(p.clone()), true)
            .with_leaf_size(leaf)
            .map(to_affine)
            .filter(keep)
            .collect(ReduceCollector::new((1i64, 0i64), compose));
        prop_assert_eq!(fused, spec);

        let cloning = stream_support(Opaque(TieSpliterator::over(p.clone())), true)
            .with_leaf_size(leaf)
            .map(to_affine)
            .filter(keep)
            .collect(ReduceCollector::new((1i64, 0i64), compose));
        prop_assert_eq!(cloning, spec);
    }

    /// A panic inside the *mapper* surfaces identically through
    /// `try_collect` on the fused-borrow route and on the forced cloning
    /// route, parallel and sequential.
    #[test]
    fn panic_in_mapper_propagates_through_try_collect(
        p in powerlist_i64(6),
        ix in 0usize..64,
        leaf in 1usize..16,
    ) {
        let _shared = shared();
        let mut raw = p.into_vec();
        let ix = ix % raw.len();
        raw[ix] = 100_000;
        let poison = raw[ix];
        let msg = format!("mapper poison {poison}");
        let p = PowerList::from_vec(raw).unwrap();
        let mapper = move |x: i64| {
            assert!(x != poison, "mapper poison {x}");
            x + 1
        };

        for cfg in [jstreams::ExecConfig::par().with_leaf_size(leaf), jstreams::ExecConfig::seq()] {
            // Fused-borrow route (Tie source borrows its leaves).
            let err = stream_support(TieSpliterator::over(p.clone()), true)
                .map(mapper)
                .try_collect(ReduceCollector::new(0i64, |a, b| a + b), &cfg)
                .expect_err("fused mapper panic must fail the collect");
            prop_assert!(matches!(err, jstreams::ExecError::Panicked(_)));
            prop_assert_eq!(err.panic_message(), Some(msg.as_str()));

            // Same chain down the cloning drain.
            let err = stream_support(Opaque(TieSpliterator::over(p.clone())), true)
                .map(mapper)
                .try_collect(ReduceCollector::new(0i64, |a, b| a + b), &cfg)
                .expect_err("cloning mapper panic must fail the collect");
            prop_assert_eq!(err.panic_message(), Some(msg.as_str()));
        }
    }
}

// ---------------------------------------------------------------------
// Tuned-route equivalence: resolving the split policy from a pltune
// plan cache is tree-shape-only — cold (calibrating), warm (cache-hit)
// and invalidated (re-calibrating) runs must all agree with the
// explicit fixed-policy route, for SIZED and filtered (upper-bound)
// pipelines alike.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn tuned_routes_agree_with_fixed(
        raw in proptest::collection::vec(-1000i64..1000, 1..500),
        leaf in 1usize..64,
    ) {
        let _shared = shared();
        let spec_map: i64 = raw.iter().map(|x| x * 3 - 1).sum();
        let spec_survivors: Vec<i64> =
            raw.iter().copied().filter(|x| x % 3 == 0).collect();

        let fixed_map = stream_support(SliceSpliterator::new(raw.clone()), true)
            .with_leaf_size(leaf)
            .map(|x| x * 3 - 1)
            .reduce(0, |a, b| a + b);
        prop_assert_eq!(fixed_map, spec_map);

        let cache = std::sync::Arc::new(jstreams::PlanCache::new());
        for round in 0..3 {
            // Round 0 calibrates cold, round 1 hits the warm cache,
            // round 2 re-calibrates after explicit invalidation.
            if round == 2 {
                cache.invalidate_all();
            }
            let tuned_map = stream_support(SliceSpliterator::new(raw.clone()), true)
                .with_auto_tuning(std::sync::Arc::clone(&cache))
                .map(|x| x * 3 - 1)
                .reduce(0, |a, b| a + b);
            prop_assert_eq!(tuned_map, spec_map, "map+reduce round {}", round);

            // Filtered pipeline: non-SIZED, order-sensitive output.
            let tuned_vec = stream_support(SliceSpliterator::new(raw.clone()), true)
                .with_auto_tuning(std::sync::Arc::clone(&cache))
                .filter(|x| x % 3 == 0)
                .to_vec();
            prop_assert_eq!(&tuned_vec, &spec_survivors, "filter+to_vec round {}", round);
        }
    }
}

/// The tune counters across a cache lifetime: cold run calibrates, warm
/// run hits without calibrating, invalidation forces one fresh
/// calibration — and every run computes the same sum.
#[test]
fn tuner_counters_across_invalidation() {
    let _exclusive = exclusive();
    let cache = std::sync::Arc::new(jstreams::PlanCache::new());
    let n = 4096i64;
    let run = |cache: std::sync::Arc<jstreams::PlanCache>| {
        stream_support(SliceSpliterator::new((0..n).collect()), true)
            .with_auto_tuning(cache)
            .reduce(0i64, |a, b| a + b)
    };
    let c = std::sync::Arc::clone(&cache);
    let (sums, report) = plobs::recorded(move || {
        let a = run(std::sync::Arc::clone(&c));
        let b = run(std::sync::Arc::clone(&c));
        c.invalidate_all();
        let d = run(std::sync::Arc::clone(&c));
        (a, b, d)
    });
    let spec: i64 = (0..n).sum();
    assert_eq!(sums, (spec, spec, spec));
    assert_eq!(report.tune_calibrations, 2, "cold + post-invalidation");
    assert_eq!(report.tune_hits, 1, "warm run reuses the plan");
    assert_eq!(report.tune_misses, 0);
}

// ---------------------------------------------------------------------
// Kernel arms: every built-in `leaf_strided` — its contiguous (step 1)
// arm and its strided arm — builds the container `Collector::leaf`
// builds by draining the same elements.
// ---------------------------------------------------------------------

/// Element counts of the runs checked; `leaf_strided` accepts any.
const RUN_LENGTHS: [usize; 8] = [0, 1, 2, 3, 5, 8, 13, 16];
/// The same for kernels that need power-of-two runs (the FFT).
const POWER_RUN_LENGTHS: [usize; 6] = [0, 1, 2, 4, 8, 16];

/// Checks `leaf_strided(items, step)` against `Collector::leaf` over the
/// run's elements, for steps 1, 2, 4 and 8 and runs of `counts`
/// elements cut from `base` as the strided-run contract shapes them
/// (ending on the run's last element). `make(step)` builds the
/// collector for one step.
fn kernel_agrees<T, C>(
    name: &str,
    base: &[T],
    counts: &[usize],
    make: impl Fn(usize) -> C,
    same: impl Fn(&C::Acc, &C::Acc) -> bool,
) where
    T: Clone + Send + Sync + 'static,
    C: jstreams::Collector<T>,
{
    for step in [1usize, 2, 4, 8] {
        for &count in counts {
            let len = if count == 0 {
                0
            } else {
                (count - 1) * step + 1
            };
            let items = &base[..len];
            let collector = make(step);
            let borrowed = collector
                .leaf_strided(items, step)
                .unwrap_or_else(|| panic!("{name}: no borrowed-run kernel"));
            let run: Vec<T> = items.iter().step_by(step).cloned().collect();
            let drained = collector.leaf(&mut SliceSpliterator::new(run));
            assert!(
                same(&borrowed, &drained),
                "{name}: step {step}, {count} elements"
            );
        }
    }
}

/// Orders by key only, so equal keys are ties an extremum must resolve
/// to the earliest element; `pos` tells which one won.
#[derive(Clone, Debug)]
struct Keyed {
    key: i64,
    pos: usize,
}

impl PartialEq for Keyed {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Keyed {}

impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

#[test]
fn every_kernel_arm_agrees_with_the_cloning_leaf() {
    let _shared = shared();
    let ints: Vec<i64> = (0..128).map(|i| (i * 37 + 11) % 101 - 50).collect();
    let floats: Vec<f64> = ints.iter().map(|&v| v as f64 / 50.0).collect();

    kernel_agrees("vec", &ints, &RUN_LENGTHS, |_| VecCollector, PartialEq::eq);
    // Affine-map composition: associative, not commutative, so a kernel
    // that folds out of order fails.
    let pairs: Vec<(i64, i64)> = ints.iter().map(|&v| (v % 7, v)).collect();
    let compose = |(a1, b1): (i64, i64), (a2, b2): (i64, i64)| {
        (a1.wrapping_mul(a2), b1.wrapping_mul(a2).wrapping_add(b2))
    };
    kernel_agrees(
        "reduce",
        &pairs,
        &RUN_LENGTHS,
        |_| ReduceCollector::new((1i64, 0i64), compose),
        PartialEq::eq,
    );
    kernel_agrees(
        "count",
        &ints,
        &RUN_LENGTHS,
        |_| CountCollector,
        PartialEq::eq,
    );
    let keyed: Vec<Keyed> = ints
        .iter()
        .enumerate()
        .map(|(pos, &v)| Keyed { key: v % 3, pos })
        .collect();
    let same_winner = |a: &Option<Keyed>, b: &Option<Keyed>| {
        a.as_ref().map(|k| (k.key, k.pos)) == b.as_ref().map(|k| (k.key, k.pos))
    };
    kernel_agrees(
        "min",
        &keyed,
        &RUN_LENGTHS,
        |_| ExtremumCollector::min(),
        same_winner,
    );
    kernel_agrees(
        "max",
        &keyed,
        &RUN_LENGTHS,
        |_| ExtremumCollector::max(),
        same_winner,
    );
    let words: Vec<String> = ints.iter().map(|v| v.to_string()).collect();
    kernel_agrees(
        "joining",
        &words,
        &RUN_LENGTHS,
        |_| JoiningCollector::new(", "),
        PartialEq::eq,
    );
    for decomposition in [Decomposition::Tie, Decomposition::Zip] {
        kernel_agrees(
            &format!("powerlist {decomposition:?}"),
            &ints,
            &RUN_LENGTHS,
            |_| PowerListCollector::new(decomposition),
            PartialEq::eq,
        );
    }
    kernel_agrees(
        "power map",
        &ints,
        &RUN_LENGTHS,
        |_| PowerMapCollector::new(Decomposition::Tie, |x: i64| 3 * x + 1),
        PartialEq::eq,
    );
    kernel_agrees(
        "mss",
        &ints,
        &RUN_LENGTHS,
        |_| plalgo::MssCollector,
        PartialEq::eq,
    );
    // The drained leaf reads its stride from the shared degree, the
    // borrowed one from its run: line the two up.
    kernel_agrees(
        "polynomial",
        &floats,
        &RUN_LENGTHS,
        |step| {
            let c = plalgo::PolynomialCollector::new(0.97);
            c.degree_state().update(|d| *d = step as u64);
            c
        },
        |a: &plalgo::poly::PolyAcc, b: &plalgo::poly::PolyAcc| {
            a.stride == b.stride && rel_close(a.val, b.val)
        },
    );
    kernel_agrees(
        "tupled vp",
        &floats,
        &RUN_LENGTHS,
        |_| plalgo::TupledVpCollector::new(0.97),
        |a: &(f64, f64), b: &(f64, f64)| rel_close(a.0, b.0) && rel_close(a.1, b.1),
    );
    let signal: Vec<plalgo::Complex> = floats
        .iter()
        .map(|&re| plalgo::Complex { re, im: -re / 2.0 })
        .collect();
    kernel_agrees(
        "fft",
        &signal,
        &POWER_RUN_LENGTHS,
        |_| plalgo::FftCollector,
        |a: &powerlist::PowerArray<plalgo::Complex>, b: &powerlist::PowerArray<plalgo::Complex>| {
            a.len() == b.len()
                && a.as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .all(|(x, y)| rel_close(x.re, y.re) && rel_close(x.im, y.im))
        },
    );
}

// ---------------------------------------------------------------------
// Route accounting: the zero-copy dispatch is not just equivalent, it
// is *taken*. These record the actual leaf routes through the plobs
// sink and assert that zero-copy-capable pipelines never fall back to
// the cloning drain (the regression the run_leaf dispatch fix closed).
// ---------------------------------------------------------------------

#[test]
fn zero_copy_capable_routes_never_clone() {
    let _exclusive = exclusive();
    let p = PowerList::from_vec((0..512i64).collect()).unwrap();
    let q = p.clone();
    let ((tie_sum, zip_mapped), report) = plobs::recorded(move || {
        // Tie leaves are contiguous runs (step 1) of the one borrowed
        // route.
        let tie_sum = stream_support(TieSpliterator::over(p.clone()), true)
            .with_leaf_size(16)
            .collect(ReduceCollector::new(0i64, |a, b| a + b));
        // Zip leaves are strided residue classes of the same route.
        let zip_mapped =
            stream_support(PowerSpliterator::over(p.clone(), Decomposition::Zip), true)
                .with_leaf_size(16)
                .collect(PowerMapCollector::new(Decomposition::Zip, |x: i64| x * 2))
                .into_vec();
        (tie_sum, zip_mapped)
    });
    assert_eq!(tie_sum, (0..512).sum::<i64>());
    assert_eq!(
        zip_mapped,
        q.iter().map(|x| x * 2).collect::<Vec<_>>(),
        "zip collect result"
    );
    assert_eq!(
        report.routes.cloning_drain.leaves,
        0,
        "a zero-copy-capable route fell back to the cloning drain:\n{}",
        report.tree_summary()
    );
    assert_eq!(
        report.routes.zero_copy.items,
        2 * 512,
        "both runs take only zero-copy leaves"
    );
    assert_eq!(report.routes.total_items(), 2 * 512);
}

#[test]
fn hidden_leaf_access_takes_only_the_cloning_drain() {
    let _exclusive = exclusive();
    let p = PowerList::from_vec((0..256i64).collect()).unwrap();
    let (sum, report) = plobs::recorded(move || {
        stream_support(Opaque(TieSpliterator::over(p)), true)
            .with_leaf_size(16)
            .collect(ReduceCollector::new(0i64, |a, b| a + b))
    });
    assert_eq!(sum, (0..256).sum::<i64>());
    assert_eq!(report.routes.zero_copy.leaves, 0);
    assert!(
        report.routes.cloning_drain.leaves > 0,
        "opaque collect must drain per element:\n{}",
        report.tree_summary()
    );
}

/// Fused-capable pipelines (map / map∘filter over borrowing sources)
/// must *take* the fused-borrow route on every leaf — zero cloning
/// drains (the acceptance criterion of the fusion layer).
#[test]
fn fused_capable_pipelines_never_clone() {
    let _exclusive = exclusive();
    let n = 512i64;
    let p = PowerList::from_vec((0..n).collect()).unwrap();

    // map over a Tie source.
    let q = p.clone();
    let (sum, report) = plobs::recorded(move || {
        stream_support(TieSpliterator::over(q), true)
            .with_leaf_size(16)
            .map(|x| x * 3 + 1)
            .reduce(0i64, |a, b| a + b)
    });
    assert_eq!(sum, (0..n).map(|x| x * 3 + 1).sum::<i64>());
    assert_eq!(
        report.routes.cloning_drain.leaves,
        0,
        "fused map pipeline fell back to the cloning drain:\n{}",
        report.tree_summary()
    );
    assert!(report.routes.fused_borrow.leaves > 0);
    // Exact chain → every source element reaches the accumulator.
    assert_eq!(report.routes.fused_borrow.items, n as u64);

    // map over a strided Zip source: an exact chain into VecCollector
    // is placement-eligible, so the default route is now the
    // destination-passing fill (still zero cloning drains).
    let q = p.clone();
    let (v, report) = plobs::recorded(move || {
        stream_support(PowerSpliterator::over(q, Decomposition::Zip), true)
            .with_leaf_size(16)
            .map(|x| x - 7)
            .collect(jstreams::VecCollector)
    });
    assert_eq!(v.len(), n as usize);
    assert_eq!(report.routes.cloning_drain.leaves, 0);
    assert!(report.routes.placement.leaves > 0);

    // ... and with placement off, the fused-borrow route is preserved.
    let q = p.clone();
    let (v, report) = plobs::recorded(move || {
        stream_support(PowerSpliterator::over(q, Decomposition::Zip), true)
            .with_leaf_size(16)
            .with_placement(false)
            .map(|x| x - 7)
            .collect(jstreams::VecCollector)
    });
    assert_eq!(v.len(), n as usize);
    assert_eq!(report.routes.cloning_drain.leaves, 0);
    assert!(report.routes.fused_borrow.leaves > 0);
    assert_eq!(report.routes.placement.leaves, 0);

    // map ∘ filter over a Slice source: survivor item accounting.
    let raw: Vec<i64> = (0..n).collect();
    let survivors = raw.iter().filter(|x| (*x * 2) % 3 == 0).count() as u64;
    let (sum, report) = plobs::recorded(move || {
        stream_support(SliceSpliterator::new(raw), true)
            .with_leaf_size(16)
            .map(|x| x * 2)
            .filter(|x| x % 3 == 0)
            .reduce(0i64, |a, b| a + b)
    });
    assert_eq!(
        sum,
        (0..n).map(|x| x * 2).filter(|x| x % 3 == 0).sum::<i64>()
    );
    assert_eq!(
        report.routes.cloning_drain.leaves,
        0,
        "fused map∘filter pipeline fell back to the cloning drain:\n{}",
        report.tree_summary()
    );
    assert!(report.routes.fused_borrow.leaves > 0);
    assert_eq!(
        report.routes.fused_borrow.items, survivors,
        "filtered fused leaves must report survivor counts, not borrow lengths"
    );
}

/// The same fused chain over an Opaque source takes only the cloning
/// drain — and its item totals agree with the fused run's (survivors,
/// not reads), so `RunReport` totals stay comparable across routes.
#[test]
fn fused_chain_over_opaque_source_clones_with_matching_items() {
    let _exclusive = exclusive();
    let raw: Vec<i64> = (0..300).collect();
    let survivors = raw.iter().filter(|x| (*x + 1) % 2 == 0).count() as u64;
    let (sum, report) = plobs::recorded(move || {
        stream_support(Opaque(SliceSpliterator::new(raw)), true)
            .with_leaf_size(16)
            .map(|x| x + 1)
            .filter(|x| x % 2 == 0)
            .reduce(0i64, |a, b| a + b)
    });
    assert_eq!(
        sum,
        (0..300).map(|x| x + 1).filter(|x| x % 2 == 0).sum::<i64>()
    );
    assert_eq!(report.routes.fused_borrow.leaves, 0);
    assert!(
        report.routes.cloning_drain.leaves > 0,
        "opaque fused chain must drain per element:\n{}",
        report.tree_summary()
    );
    assert_eq!(
        report.routes.cloning_drain.items, survivors,
        "cloning drain counts what reaches the accumulator"
    );
}

/// The adaptive policy's recursion is bounded: even when demand says
/// "split" on every probe (surplus = `usize::MAX` makes the local-queue
/// test always pass), no recorded split can sit at or past the depth
/// cap, and every split carries the adaptive tag.
#[test]
fn adaptive_split_depth_stays_within_cap() {
    let _exclusive = exclusive();
    let threads = 2;
    let pool = std::sync::Arc::new(forkjoin::ForkJoinPool::new(threads));
    let policy = SplitPolicy::Adaptive(AdaptiveSplit {
        min_leaf: 1,
        depth_slack: 3,
        surplus: usize::MAX,
    });
    let cap = policy.depth_cap(threads);
    let n = 1usize << 12; // deep enough that only the cap stops recursion
    let (sum, report) = plobs::recorded(move || {
        stream_support(SliceSpliterator::new((0..n as i64).collect()), true)
            .with_pool(pool)
            .with_split_policy(policy)
            .reduce(0i64, |a, b| a + b)
    });
    assert_eq!(sum, (0..n as i64).sum::<i64>());
    assert!(report.splits > 0, "adaptive run must split");
    assert_eq!(
        report.splits, report.splits_adaptive,
        "every split of an adaptive run is tagged adaptive"
    );
    assert!(
        report.max_split_depth() < cap,
        "split at depth {} breaches cap {cap}:\n{}",
        report.max_split_depth(),
        report.tree_summary()
    );
}

// ---------------------------------------------------------------------
// Failure-route equivalence: a poisoned element must surface the same
// panic through every route — the fallible surfaces return
// `ExecError::Panicked` with the payload preserved, the legacy
// infallible entry points resume the unwind for `catch_unwind`.
// ---------------------------------------------------------------------

/// Reduce collector whose accumulator panics on one poison value.
struct PoisonReduce(i64);

impl jstreams::Collector<i64> for PoisonReduce {
    type Acc = i64;
    type Out = i64;
    fn supplier(&self) -> i64 {
        0
    }
    fn accumulate(&self, acc: &mut i64, item: i64) {
        assert!(item != self.0, "route poison {item}");
        *acc += item;
    }
    fn combine(&self, l: i64, r: i64) -> i64 {
        l + r
    }
    fn finish(&self, acc: i64) -> i64 {
        acc
    }
}

/// PowerFunction whose basic case panics on the same poison value.
#[derive(Clone)]
struct PoisonSumFn(i64);

impl jplf::PowerFunction for PoisonSumFn {
    type Elem = i64;
    type Out = i64;
    fn decomposition(&self) -> Decomp {
        Decomp::Tie
    }
    fn basic_case(&self, v: &i64) -> i64 {
        assert!(*v != self.0, "route poison {v}");
        *v
    }
    fn create_left(&self) -> Self {
        self.clone()
    }
    fn create_right(&self) -> Self {
        self.clone()
    }
    fn combine(&self, l: i64, r: i64) -> i64 {
        l + r
    }
}

/// Downcasts a resumed panic payload to its message.
fn payload_message(payload: Box<dyn std::any::Any + Send>) -> Option<String> {
    payload
        .downcast_ref::<&'static str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Panic propagation agrees across all routes: streams parallel and
    /// sequential `try_collect`, the legacy infallible `collect` shims,
    /// and the three JPLF executors' `try_execute`.
    #[test]
    fn panic_propagation_routes_agree(
        p in powerlist_i64(6),
        ix in 0usize..64,
        leaf in 1usize..16,
    ) {
        let _shared = shared();
        // Plant one unambiguous poison value so exactly one element
        // panics whatever the route's traversal order.
        let mut raw = p.into_vec();
        let ix = ix % raw.len();
        raw[ix] = 100_000;
        let poison = raw[ix];
        let msg = format!("route poison {poison}");
        let p = PowerList::from_vec(raw).unwrap();

        // Streams, parallel try_collect.
        let err = stream_support(TieSpliterator::over(p.clone()), true)
            .try_collect(
                PoisonReduce(poison),
                &jstreams::ExecConfig::par().with_leaf_size(leaf),
            )
            .expect_err("parallel try_collect must fail");
        prop_assert!(matches!(err, jstreams::ExecError::Panicked(_)));
        prop_assert_eq!(err.panic_message(), Some(msg.as_str()));

        // Streams, sequential try_collect.
        let err = stream_support(TieSpliterator::over(p.clone()), false)
            .try_collect(PoisonReduce(poison), &jstreams::ExecConfig::seq())
            .expect_err("sequential try_collect must fail");
        prop_assert_eq!(err.panic_message(), Some(msg.as_str()));

        // Legacy shims resume the contained unwind with the payload intact.
        for parallel in [true, false] {
            let q = p.clone();
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                stream_support(TieSpliterator::over(q), parallel)
                    .with_leaf_size(leaf)
                    .collect(PoisonReduce(poison))
            }))
            .expect_err("legacy collect must unwind");
            prop_assert_eq!(payload_message(payload), Some(msg.clone()));
        }

        // JPLF executors, fallible surface.
        let f = PoisonSumFn(poison);
        let v = p.view();
        let cfg = jplf::ExecConfig::par();
        for (route, err) in [
            ("sequential", SequentialExecutor::new().try_execute(&f, &v, &cfg).err()),
            ("forkjoin", ForkJoinExecutor::new(2, leaf).try_execute(&f, &v, &cfg).err()),
            ("mpi", MpiExecutor::new(4).try_execute(&f, &v, &cfg).err()),
        ] {
            let err = err.expect(route);
            prop_assert_eq!(err.panic_message(), Some(msg.as_str()), "route {}", route);
        }
    }
}

// ---------------------------------------------------------------------
// Degenerate shapes
// ---------------------------------------------------------------------

/// The degenerate PowerList: length 1, `log2 == 0`. The paper's
/// definitions bottom out here (a singleton is its own tie and zip
/// decomposition), so a singleton must never split and every route must
/// agree with the sequential specification exactly — map, reduce, both
/// decompositions, all five routes.
#[test]
fn singleton_powerlist_agrees_on_every_route() {
    let _shared = shared();
    assert_eq!(powerlist::log2_exact(1), 0);
    for zip in [false, true] {
        let (ds, dj) = decomp_of(zip);
        let p = PowerList::from_vec(vec![41i64]).unwrap();

        // Map through both collect drains.
        let spec = powerlist::ops::map(&p, |x| x * 2 + 1);
        let zero_copy = stream_support(PowerSpliterator::over(p.clone(), ds), true)
            .collect(PowerMapCollector::new(ds, |x: i64| x * 2 + 1))
            .into_vec();
        assert_eq!(&zero_copy[..], spec.as_slice(), "zero-copy, zip={zip}");
        let cloning = stream_support(Opaque(PowerSpliterator::over(p.clone(), ds)), true)
            .collect(PowerMapCollector::new(ds, |x: i64| x * 2 + 1))
            .into_vec();
        assert_eq!(&cloning[..], spec.as_slice(), "cloning, zip={zip}");

        // Reduce: a singleton reduction is the identity-combined element.
        let sum = stream_support(PowerSpliterator::over(p.clone(), ds), true)
            .collect(ReduceCollector::new(0i64, |a, b| a + b));
        assert_eq!(sum, 41, "reduce, zip={zip}");

        // JPLF executors on the same singleton.
        let f = plalgo::MapFunction::new(dj, |x: &i64| x * 2 + 1);
        let v = p.view();
        assert_eq!(SequentialExecutor::new().execute(&f, &v), spec.clone());
        assert_eq!(ForkJoinExecutor::new(2, 1).execute(&f, &v), spec.clone());
        assert_eq!(MpiExecutor::new(4).execute(&f, &v), spec);
    }
}

// ---------------------------------------------------------------------
// Placement-route equivalence: the destination-passing collect (root
// allocation + disjoint output windows, combine a no-op) must agree
// with the splice route and the sequential specification on every
// eligible pipeline — and must *not* run on ineligible ones. The fft
// leg lives next to its collector
// (`plalgo::fft::tests::placement_and_splice_spectra_are_bit_identical`),
// and `fft_routes_agree` above now exercises the placement route by
// default.
// ---------------------------------------------------------------------

/// Strips `SIZED | SUBSIZED` from a spliterator, turning its estimate
/// into an upper bound — an exact-size-unknown source that placement
/// must refuse.
struct UnsizedUpperBound<S>(S);

impl<T, S: ItemSource<T>> ItemSource<T> for UnsizedUpperBound<S> {
    fn try_advance(&mut self, action: &mut dyn FnMut(T)) -> bool {
        self.0.try_advance(action)
    }
    fn for_each_remaining(&mut self, action: &mut dyn FnMut(T)) {
        self.0.for_each_remaining(action)
    }
    fn estimate_size(&self) -> usize {
        self.0.estimate_size()
    }
}

impl<T, S> LeafAccess<T> for UnsizedUpperBound<S> {}

impl<T, S: Spliterator<T>> Spliterator<T> for UnsizedUpperBound<S> {
    fn try_split(&mut self) -> Option<Self> {
        self.0.try_split().map(UnsizedUpperBound)
    }
    fn characteristics(&self) -> Characteristics {
        self.0
            .characteristics()
            .without(Characteristics::SIZED | Characteristics::SUBSIZED)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `to_vec`: sequential spec = splice route = placement route, for
    /// sequential and parallel execution at arbitrary leaf sizes.
    #[test]
    fn placement_to_vec_routes_agree(
        raw in proptest::collection::vec(-1000i64..1000, 1..700),
        leaf in 1usize..64,
    ) {
        let _shared = shared();
        for cfg in [ExecConfig::par().with_leaf_size(leaf), ExecConfig::seq()] {
            let placed = stream_support(SliceSpliterator::new(raw.clone()), true)
                .try_collect(VecCollector, &cfg)
                .unwrap();
            let spliced = stream_support(SliceSpliterator::new(raw.clone()), true)
                .try_collect(VecCollector, &cfg.clone().with_placement(false))
                .unwrap();
            prop_assert_eq!(&placed, &raw);
            prop_assert_eq!(&spliced, &raw);
        }
    }

    /// PowerList collect through every split × collect decomposition
    /// pairing — including the mismatched pairings whose splice result
    /// is a permutation, which the interleaving/concatenating window
    /// descent must reproduce exactly.
    #[test]
    fn placement_powerlist_routes_agree(
        p in powerlist_i64(9),
        split_zip in any::<bool>(),
        collect_zip in any::<bool>(),
        leaf in 1usize..64,
    ) {
        let _shared = shared();
        let (ds, _) = decomp_of(split_zip);
        let (dc, _) = decomp_of(collect_zip);
        for cfg in [ExecConfig::par().with_leaf_size(leaf), ExecConfig::seq()] {
            let placed = stream_support(PowerSpliterator::over(p.clone(), ds), true)
                .try_collect(PowerListCollector::new(dc), &cfg)
                .unwrap();
            let spliced = stream_support(PowerSpliterator::over(p.clone(), ds), true)
                .try_collect(PowerListCollector::new(dc), &cfg.clone().with_placement(false))
                .unwrap();
            prop_assert_eq!(placed, spliced);
        }
    }

    /// Joining: the byte-measured windows plus combine-written
    /// separator gaps must spell exactly what the splice route spells.
    /// This collector inserts its separator only at *combine* points
    /// (the paper's Section IV semantics), so the sequential spec is
    /// plain concatenation and the parallel answer depends on the tree
    /// shape — placement must reproduce the splice tree's string
    /// byte-for-byte at every leaf size, word mix (including empty
    /// words) and separator (including empty).
    #[test]
    fn placement_joining_routes_agree(
        seeds in proptest::collection::vec(-1000i32..1000, 1..120),
        sep_ix in 0usize..4,
        leaf in 1usize..32,
    ) {
        let _shared = shared();
        let words: Vec<String> = seeds
            .iter()
            .map(|v| if v % 5 == 0 { String::new() } else { format!("w{v}") })
            .collect();
        let sep = ["", ",", ", ", "##"][sep_ix].to_string();

        // Sequential: one leaf, no combines, no separators — on both routes.
        let concat = words.concat();
        let seq = ExecConfig::seq();
        let placed = stream_support(SliceSpliterator::new(words.clone()), true)
            .try_collect(JoiningCollector::new(sep.clone()), &seq)
            .unwrap();
        let spliced = stream_support(SliceSpliterator::new(words.clone()), true)
            .try_collect(JoiningCollector::new(sep.clone()), &seq.clone().with_placement(false))
            .unwrap();
        prop_assert_eq!(&placed, &concat);
        prop_assert_eq!(&spliced, &concat);

        // Parallel fixed-leaf tree: identical combine points, so the
        // separator-bearing strings must match exactly.
        let par = ExecConfig::par().with_leaf_size(leaf);
        let placed = stream_support(SliceSpliterator::new(words.clone()), true)
            .try_collect(JoiningCollector::new(sep.clone()), &par)
            .unwrap();
        let spliced = stream_support(SliceSpliterator::new(words.clone()), true)
            .try_collect(JoiningCollector::new(sep.clone()), &par.clone().with_placement(false))
            .unwrap();
        prop_assert_eq!(&placed, &spliced);
    }

    /// A panic inside the mapper of a placement-eligible pipeline
    /// surfaces as `ExecError::Panicked` with the payload intact — the
    /// partially-written output buffer is reclaimed, not finished. The
    /// `String` leg runs the same poison through a drop-heavy payload,
    /// so a leak or double-drop of the partial window would trip the
    /// allocator / sanitizer rather than pass silently.
    #[test]
    fn panic_in_mapper_through_placement_run(
        p in powerlist_i64(6),
        ix in 0usize..64,
        leaf in 1usize..16,
    ) {
        let _shared = shared();
        let mut raw = p.into_vec();
        let ix = ix % raw.len();
        raw[ix] = 100_000;
        let poison = raw[ix];
        let msg = format!("mapper poison {poison}");
        let n = raw.len();

        for cfg in [ExecConfig::par().with_leaf_size(leaf), ExecConfig::seq()] {
            // Copy payload into a Vec destination.
            let err = stream_support(SliceSpliterator::new(raw.clone()), true)
                .map(move |x: i64| {
                    assert!(x != poison, "mapper poison {x}");
                    x + 1
                })
                .try_collect(VecCollector, &cfg)
                .expect_err("placement mapper panic must fail the collect");
            prop_assert!(matches!(err, jstreams::ExecError::Panicked(_)));
            prop_assert_eq!(err.panic_message(), Some(msg.as_str()));

            // Drop-heavy payload through the same poisoned run.
            let words: Vec<String> = raw.iter().map(|x| format!("w{x}")).collect();
            let poison_word = format!("w{poison}");
            let err = stream_support(SliceSpliterator::new(words), true)
                .map(move |s: String| {
                    assert!(s != poison_word, "mapper poison {s}");
                    s
                })
                .try_collect(VecCollector, &cfg)
                .expect_err("string placement mapper panic must fail the collect");
            prop_assert!(matches!(err, jstreams::ExecError::Panicked(_)));

            // The same input minus the poison still completes cleanly
            // afterwards (the pool survived the contained panic).
            let ok: Vec<i64> = stream_support(SliceSpliterator::new(raw.clone()), true)
                .map(|x: i64| x - 1)
                .try_collect(VecCollector, &cfg)
                .unwrap();
            prop_assert_eq!(ok.len(), n);
        }
    }
}

/// Route accounting for the tentpole acceptance: an eligible placement
/// run takes the placement route on **every** leaf and never performs a
/// splice combine — all recorded combines carry the placement tag.
#[test]
fn eligible_placement_runs_never_splice_combine() {
    let _exclusive = exclusive();
    let n = 1usize << 10;
    let p = PowerList::from_vec((0..n as i64).collect()).unwrap();
    let words: Vec<String> = (0..200).map(|i| format!("w{i}")).collect();
    // Reference string from the splice route (separators appear at its
    // combine points), taken before recording starts.
    let joined_spec = stream_support(SliceSpliterator::new(words.clone()), true)
        .with_leaf_size(16)
        .with_placement(false)
        .collect(JoiningCollector::new(", "));
    let signal = powerlist::tabulate(256, |i| {
        plalgo::Complex::new((i % 23) as f64 - 11.0, (i % 7) as f64)
    })
    .unwrap();

    let q = p.clone();
    type EligibleRun = (&'static str, Box<dyn FnOnce() + Send>);
    let runs: [EligibleRun; 4] = [
        (
            "to_vec",
            Box::new(move || {
                let v = stream_support(SliceSpliterator::new((0..n as i64).collect()), true)
                    .with_leaf_size(16)
                    .to_vec();
                assert_eq!(v.len(), n);
            }),
        ),
        (
            "powerlist-zip",
            Box::new(move || {
                let out = stream_support(PowerSpliterator::over(q, Decomposition::Zip), true)
                    .with_leaf_size(16)
                    .collect(PowerListCollector::new(Decomposition::Zip));
                assert_eq!(out.len(), n);
            }),
        ),
        (
            "joining",
            Box::new(move || {
                let s = stream_support(SliceSpliterator::new(words), true)
                    .with_leaf_size(16)
                    .collect(JoiningCollector::new(", "));
                assert_eq!(s, joined_spec);
            }),
        ),
        (
            "fft",
            Box::new(move || {
                let out = jstreams::power_stream(signal, Decomposition::Zip)
                    .with_leaf_size(16)
                    .collect(plalgo::FftCollector);
                assert_eq!(out.len(), 256);
            }),
        ),
    ];

    for (name, run) in runs {
        let ((), report) = plobs::recorded(run);
        assert!(
            report.routes.placement.leaves >= 1,
            "{name}: eligible run took no placement leaves:\n{}",
            report.tree_summary()
        );
        assert_eq!(
            report.routes.placement.leaves,
            report.routes.total_leaves(),
            "{name}: a leaf escaped the placement route:\n{}",
            report.tree_summary()
        );
        assert_eq!(
            report.combines,
            report.combines_placement,
            "{name}: an eligible placement run performed a splice combine:\n{}",
            report.tree_summary()
        );
    }
}

/// Ineligible pipelines must leave the splice route untouched: filters
/// (inexact chains), sources with unknown exact size, and
/// limit-over-filter truncations all record **zero** placement leaves
/// and still produce the sequential specification's answer.
#[test]
fn ineligible_pipelines_fall_back_to_splice() {
    let _exclusive = exclusive();
    let n = 600i64;
    let raw: Vec<i64> = (0..n).collect();

    // Filter chain: survivor count unknowable up front.
    let data = raw.clone();
    let (v, report) = plobs::recorded(move || {
        stream_support(SliceSpliterator::new(data), true)
            .with_leaf_size(16)
            .filter(|x| x % 3 == 0)
            .collect(VecCollector)
    });
    assert_eq!(
        v,
        raw.iter()
            .copied()
            .filter(|x| x % 3 == 0)
            .collect::<Vec<_>>()
    );
    assert_eq!(
        report.routes.placement.leaves,
        0,
        "filtered collect must not take the placement route:\n{}",
        report.tree_summary()
    );
    assert_eq!(report.combines_placement, 0);

    // Non-SIZED source: the estimate is an upper bound, not a length.
    let data = raw.clone();
    let (v, report) = plobs::recorded(move || {
        stream_support(UnsizedUpperBound(SliceSpliterator::new(data)), true)
            .with_leaf_size(16)
            .collect(VecCollector)
    });
    assert_eq!(v, raw);
    assert_eq!(
        report.routes.placement.leaves,
        0,
        "non-SIZED collect must not take the placement route:\n{}",
        report.tree_summary()
    );

    // Limit over filter: truncation on top of an inexact chain.
    let data = raw.clone();
    let (v, report) = plobs::recorded(move || {
        stream_support(SliceSpliterator::new(data), true)
            .with_leaf_size(16)
            .filter(|x| x % 2 == 0)
            .limit(40)
            .collect(VecCollector)
    });
    assert_eq!(
        v,
        raw.iter()
            .copied()
            .filter(|x| x % 2 == 0)
            .take(40)
            .collect::<Vec<_>>()
    );
    assert_eq!(
        report.routes.placement.leaves,
        0,
        "limit-over-filter must not take the placement route:\n{}",
        report.tree_summary()
    );
}

// ---------------------------------------------------------------------
// Block mode: a zip-splitting source collected by an interleaving
// (zip) collector is cut into encounter-order blocks with `Concat`
// windows instead of parity classes. The output must stay bit-identical
// to the splice route and the spec, and only that matched pairing may
// take the block cut.
// ---------------------------------------------------------------------

/// The zip pipelines of the block-mode property over one view —
/// identity, `map` and `map∘peek` (`chain` 0, 1, 2) — collected into a
/// `PowerListCollector(Zip)`.
fn zip_to_zip(view: &PowerView<i64>, chain: usize, cfg: &ExecConfig) -> Vec<i64> {
    let s = stream_support(ZipSpliterator::from_view(view), true);
    let zip = PowerListCollector::new(Decomposition::Zip);
    let out = match chain {
        0 => s.try_collect(zip, cfg),
        1 => s.map(|x| 3 * x + 1).try_collect(zip, cfg),
        _ => s.map(|x| 3 * x + 1).peek(|_| {}).try_collect(zip, cfg),
    };
    out.expect("an eligible zip→zip collect succeeds")
        .into_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// zip view × {identity, map, map∘peek} → `PowerListCollector(Zip)`
    /// at n = 2^0..2^12, over a contiguous view and over a stride-2
    /// parity class, under `Fixed` and `Adaptive` policies on 1–3
    /// threads and sequentially: placed = spliced = spec.
    #[test]
    fn block_mode_zip_to_zip_agrees_with_splice_and_spec(
        k in 0u32..=12,
        strided in any::<bool>(),
        chain in 0usize..3,
        threads in 1usize..=3,
        leaf in 1usize..80,
        adaptive in any::<bool>(),
    ) {
        let _shared = shared();
        let n = 1usize << k;
        let doubled = PowerList::from_vec((0..2 * n as i64).map(|i| 7 * i - 3).collect()).unwrap();
        let full = doubled.view();
        let view = if strided { full.unzip().unwrap().1 } else { full.untie().unwrap().0 };
        let spec: Vec<i64> = view
            .to_powerlist()
            .into_vec()
            .into_iter()
            .map(|x| if chain == 0 { x } else { 3 * x + 1 })
            .collect();
        let policy = if adaptive {
            SplitPolicy::Adaptive(AdaptiveSplit { min_leaf: leaf, ..AdaptiveSplit::default() })
        } else {
            SplitPolicy::Fixed(leaf)
        };
        let pool = Arc::new(forkjoin::ForkJoinPool::new(threads));
        for cfg in [
            ExecConfig::par().with_pool(pool).with_split_policy(policy),
            ExecConfig::seq(),
        ] {
            let placed = zip_to_zip(&view, chain, &cfg);
            let spliced = zip_to_zip(&view, chain, &cfg.clone().with_placement(false));
            prop_assert_eq!(&placed, &spec);
            prop_assert_eq!(&spliced, &spec);
        }
    }
}

/// Successful splits a run took, by kind: the source's own `try_split`
/// and the block cut `try_split_prefix`.
#[derive(Default)]
struct SplitTally {
    own: AtomicUsize,
    block: AtomicUsize,
}

/// Forwards everything to `inner`, counting successful splits into the
/// shared tally.
struct Counted<S> {
    inner: S,
    tally: Arc<SplitTally>,
}

impl<S> Counted<S> {
    fn wrap(&self, inner: S, kind: &AtomicUsize) -> Self {
        kind.fetch_add(1, Ordering::Relaxed);
        Counted {
            inner,
            tally: Arc::clone(&self.tally),
        }
    }
}

impl<T, S: ItemSource<T>> ItemSource<T> for Counted<S> {
    fn try_advance(&mut self, action: &mut dyn FnMut(T)) -> bool {
        self.inner.try_advance(action)
    }
    fn for_each_remaining(&mut self, action: &mut dyn FnMut(T)) {
        self.inner.for_each_remaining(action)
    }
    fn estimate_size(&self) -> usize {
        self.inner.estimate_size()
    }
}

impl<T, S: LeafAccess<T>> LeafAccess<T> for Counted<S> {
    fn try_as_strided(&self) -> Option<(&[T], usize)> {
        self.inner.try_as_strided()
    }
    fn mark_drained(&mut self) {
        self.inner.mark_drained()
    }
}

impl<T, S: Spliterator<T>> Spliterator<T> for Counted<S> {
    fn try_split(&mut self) -> Option<Self> {
        let prefix = self.inner.try_split()?;
        Some(self.wrap(prefix, &self.tally.own))
    }
    fn try_split_prefix(&mut self) -> Option<Self> {
        let prefix = self.inner.try_split_prefix()?;
        Some(self.wrap(prefix, &self.tally.block))
    }
    fn characteristics(&self) -> Characteristics {
        self.inner.characteristics()
    }
    fn prefix_splits(&self) -> bool {
        self.inner.prefix_splits()
    }
    fn encounter_rank(&self) -> Option<(usize, usize)> {
        self.inner.encounter_rank()
    }
}

/// Collects `make()` into `PowerListCollector(collect)` through the
/// placement route and the splice route; returns both outputs and the
/// placement run's `(own, block)` split counts.
fn counted_placement<S>(
    make: impl Fn() -> S,
    collect: Decomposition,
) -> (Vec<i64>, Vec<i64>, usize, usize)
where
    S: Spliterator<i64> + 'static,
{
    let cfg = ExecConfig::par()
        .with_pool(Arc::new(forkjoin::ForkJoinPool::new(2)))
        .with_leaf_size(16);
    let tally = Arc::new(SplitTally::default());
    let source = Counted {
        inner: make(),
        tally: Arc::clone(&tally),
    };
    let placed = jstreams::try_collect_with(source, PowerListCollector::new(collect), &cfg)
        .unwrap()
        .into_vec();
    let spliced = jstreams::try_collect_with(
        make(),
        PowerListCollector::new(collect),
        &cfg.clone().with_placement(false),
    )
    .unwrap()
    .into_vec();
    let own = tally.own.load(Ordering::Relaxed);
    let block = tally.block.load(Ordering::Relaxed);
    (placed, spliced, own, block)
}

/// Pins which pairings take the block cut. 256 elements at leaf 16 make
/// 16 leaves, i.e. 15 splits: matched zip→zip takes all 15 as prefix
/// cuts; the hooked zip source (whose hook is defined on parity splits)
/// and the mismatched tie→zip / zip→tie pairings keep their own splits.
#[test]
fn only_matched_zip_pairs_take_block_cuts() {
    let _shared = shared();
    let list = PowerList::from_vec((0..256i64).collect()).unwrap();
    let zip = || ZipSpliterator::over(list.clone());
    let hooked = || {
        let hook: Arc<dyn Fn(&mut u64) -> u64 + Send + Sync> = Arc::new(|x_degree| {
            *x_degree *= 2;
            *x_degree
        });
        HookedZipSpliterator::new(ZipSpliterator::over(list.clone()), 1u64, hook)
    };
    let tie = || TieSpliterator::over(list.clone());

    let (placed, spliced, own, block) = counted_placement(zip, Decomposition::Zip);
    assert_eq!((own, block), (0, 15), "zip→zip cuts blocks at every split");
    assert_eq!(placed, list.clone().into_vec());
    assert_eq!(spliced, placed);

    let (placed, spliced, own, block) = counted_placement(hooked, Decomposition::Zip);
    assert_eq!((own, block), (15, 0), "hooked zip stays on parity splits");
    assert_eq!(placed, list.clone().into_vec());
    assert_eq!(spliced, placed);

    for (name, (placed, spliced, own, block)) in [
        ("tie→zip", counted_placement(tie, Decomposition::Zip)),
        ("zip→tie", counted_placement(zip, Decomposition::Tie)),
    ] {
        assert_eq!((own, block), (15, 0), "{name} keeps its own splits");
        assert_eq!(placed, spliced, "{name}: the permutation is unchanged");
        assert_ne!(
            placed,
            list.clone().into_vec(),
            "{name} is a real permutation"
        );
    }
}

/// A singleton never splits: whatever the policy says, there is nothing
/// to halve, so `try_split` answers `None` on every spliterator flavour
/// and the whole run is one sequential leaf.
#[test]
fn singleton_powerlist_never_splits() {
    let _shared = shared();
    let p = PowerList::from_vec(vec![7i64]).unwrap();
    let mut tie = TieSpliterator::over(p.clone());
    assert!(tie.try_split().is_none(), "tie singleton must not split");
    for ds in [Decomposition::Tie, Decomposition::Zip] {
        let mut ps = PowerSpliterator::over(p.clone(), ds);
        assert!(
            ps.try_split().is_none(),
            "power spliterator singleton must not split ({ds:?})"
        );
        assert_eq!(ps.estimate_size(), 1);
    }
}

// ---------------------------------------------------------------------
// One split-tree walker: every fork-join terminal (splice and placement
// collect, streams search, the JPLF executor and its search, and the
// n-ary n-way collect and PList executor) runs on `jstreams::walk`, so
// they share one tree shape and one failure contract.
// ---------------------------------------------------------------------

/// Under `Fixed(leaf)` on one pool, the splice `reduce`, the placement
/// `to_vec`, an absent-needle `any_match`, the JPLF fork-join executor,
/// and, at arity 2, the n-way collect and the PList executor cut the
/// same tree over the same length. Search first scans
/// a 1024-element prefix inline (one cloning-drain leaf) and walks the
/// rest: at `n = 8 · leaf` the remaining 7/8 cut the same tree.
#[test]
fn every_walker_terminal_records_the_same_tree() {
    let _exclusive = exclusive();
    let (n, leaf) = (1usize << 13, 1usize << 10);
    let list = powerlist::tabulate(n, |i| i as i64).unwrap();
    let pool = Arc::new(forkjoin::ForkJoinPool::new(2));
    let cfg = ExecConfig::par()
        .with_pool(Arc::clone(&pool))
        .with_leaf_size(leaf);
    let tie = || stream_support(TieSpliterator::over(list.clone()), true);
    let sum = (0..n as i64).sum::<i64>();

    let (out, splice) = plobs::recorded(|| tie().try_reduce(0, |a, b| a + b, &cfg));
    assert_eq!(out.unwrap(), sum);
    let (out, place) = plobs::recorded(|| tie().try_to_vec(&cfg));
    assert_eq!(out.unwrap().len(), n);
    let (out, search) = plobs::recorded(|| tie().try_any_match(|x| *x < 0, &cfg));
    assert!(!out.unwrap());
    let exec = ForkJoinExecutor::with_pool(Arc::clone(&pool), leaf);
    let (out, jplf) = plobs::recorded(|| {
        exec.try_execute(
            &PoisonSumFn(-1),
            &list.clone().view(),
            &jplf::ExecConfig::par(),
        )
    });
    assert_eq!(out.unwrap(), sum);
    let plist = PList::from(list.clone());
    let (out, nway) = plobs::recorded(|| {
        try_collect_nway(
            NTieSpliterator::over(plist.clone()),
            PoisonNWaySum(-1),
            2,
            &cfg,
        )
    });
    assert_eq!(out.unwrap(), sum);
    let (out, plist_fn) = plobs::recorded(|| {
        exec.try_execute_plist(&PoisonPListSum(-1, 2), &plist, &jplf::ExecConfig::par())
    });
    assert_eq!(out.unwrap(), sum);

    assert_eq!(search.routes.cloning_drain.leaves, 1, "the root probe");
    assert_eq!(search.routes.cloning_drain.items, 1024);
    assert_eq!(place.combines_placement, place.splits);
    assert_eq!(splice.combines, splice.splits);
    assert_eq!(nway.combines, nway.splits);
    assert_eq!(plist_fn.combines, plist_fn.splits);
    assert_eq!(search.combines, 0, "search has no combine phase");
    let trees = [
        ("splice reduce", &splice, splice.routes.total_leaves()),
        ("placement to_vec", &place, place.routes.total_leaves()),
        ("any_match", &search, search.routes.total_leaves() - 1),
        ("jplf forkjoin", &jplf, jplf.routes.total_leaves()),
        ("nway collect", &nway, nway.routes.total_leaves()),
        ("jplf plist", &plist_fn, plist_fn.routes.total_leaves()),
    ];
    for (name, report, leaves) in trees {
        assert_eq!(report.splits, 7, "{name}: {report:?}");
        assert_eq!(leaves, 8, "{name}: {report:?}");
    }
}

/// A search predicate over PowerList elements that panics on the
/// element equal to its field and matches nothing.
#[derive(Clone)]
struct PoisonSearch(i64);

impl jplf::PowerSearchFunction for PoisonSearch {
    type Elem = i64;
    fn matches(&self, v: &i64) -> bool {
        assert!(*v != self.0, "route poison {v}");
        false
    }
}

/// n-way sum collector whose accumulator panics on one poison value.
struct PoisonNWaySum(i64);

impl NWayCollector<i64> for PoisonNWaySum {
    type Acc = i64;
    type Out = i64;
    fn supplier(&self) -> i64 {
        0
    }
    fn accumulate(&self, acc: &mut i64, item: i64) {
        assert!(item != self.0, "route poison {item}");
        *acc += item;
    }
    fn combine_n(&self, parts: Vec<i64>) -> i64 {
        parts.into_iter().sum()
    }
    fn finish(&self, acc: i64) -> i64 {
        acc
    }
}

/// PList sum at a fixed arity whose basic case panics on one poison
/// value: `PoisonPListSum(poison, arity)`.
#[derive(Clone)]
struct PoisonPListSum(i64, usize);

impl PListFunction for PoisonPListSum {
    type Elem = i64;
    type Out = i64;
    fn arity(&self, _len: usize) -> usize {
        self.1
    }
    fn decomposition(&self) -> Decomp {
        Decomp::Tie
    }
    fn basic_case(&self, v: &i64) -> i64 {
        assert!(*v != self.0, "route poison {v}");
        *v
    }
    fn create_child(&self, _index: usize, _arity: usize) -> Self {
        self.clone()
    }
    fn combine_n(&self, parts: Vec<i64>) -> i64 {
        parts.into_iter().sum()
    }
}

/// One walker terminal over `list`: `cfg` carries the session limits
/// (and, for streams, the pool); JPLF terminals run on an executor over
/// the same pool. User code panics on the element equal to `poison`.
type WalkerTerminal = fn(
    &PowerList<i64>,
    &Arc<forkjoin::ForkJoinPool>,
    &ExecConfig,
    i64,
) -> Result<i64, jstreams::ExecError>;

const WALKER_TERMINALS: [(&str, WalkerTerminal); 7] = [
    ("splice collect", |list, _, cfg, poison| {
        stream_support(TieSpliterator::over(list.clone()), true)
            .try_collect(PoisonReduce(poison), cfg)
    }),
    ("placement collect", |list, _, cfg, poison| {
        stream_support(TieSpliterator::over(list.clone()), true)
            .map(move |x: i64| {
                assert!(x != poison, "route poison {x}");
                x
            })
            .try_to_vec(cfg)
            .map(|v| v.iter().sum())
    }),
    ("streams search", |list, _, cfg, poison| {
        stream_support(TieSpliterator::over(list.clone()), true)
            .try_any_match(
                move |x: &i64| {
                    assert!(*x != poison, "route poison {x}");
                    false
                },
                cfg,
            )
            .map(i64::from)
    }),
    ("jplf execute", |list, pool, cfg, poison| {
        ForkJoinExecutor::with_pool(Arc::clone(pool), 64).try_execute(
            &PoisonSumFn(poison),
            &list.clone().view(),
            cfg,
        )
    }),
    ("jplf search", |list, pool, cfg, poison| {
        use jplf::SearchExecutor;
        ForkJoinExecutor::with_pool(Arc::clone(pool), 64)
            .try_any_match(&PoisonSearch(poison), &list.clone().view(), cfg)
            .map(i64::from)
    }),
    ("nway collect", |list, _, cfg, poison| {
        let plist = PList::from(list.clone());
        try_collect_nway(NTieSpliterator::over(plist), PoisonNWaySum(poison), 4, cfg)
    }),
    ("jplf plist", |list, pool, cfg, poison| {
        ForkJoinExecutor::with_pool(Arc::clone(pool), 64).try_execute_plist(
            &PoisonPListSum(poison, 4),
            &PList::from(list.clone()),
            cfg,
        )
    }),
];

/// The contract every walker terminal meets: a leaf panic surfaces as
/// `Panicked`, a pre-tripped caller token as `Cancelled`, a zero
/// deadline as `DeadlineExceeded`, and a shut-down pool degrades to the
/// sequential route (one recorded `SubmitFailed` fallback) with the
/// correct value.
#[test]
fn walker_terminals_meet_one_failure_contract() {
    let _exclusive = exclusive();
    use jstreams::{CancelReason, CancelToken, ExecError};
    let n = 1usize << 12;
    let list = powerlist::tabulate(n, |i| i as i64).unwrap();
    let sum = (0..n as i64).sum::<i64>();
    // Past search's inline root probe, so the poison sits in a walked leaf.
    let poison = 3000;
    let absent = -1;
    for (name, run) in WALKER_TERMINALS {
        let expect = if name.ends_with("search") { 0 } else { sum };
        let pool = Arc::new(forkjoin::ForkJoinPool::new(2));
        let cfg = ExecConfig::par()
            .with_pool(Arc::clone(&pool))
            .with_leaf_size(64);

        assert_eq!(run(&list, &pool, &cfg, absent).ok(), Some(expect), "{name}");

        let err = run(&list, &pool, &cfg, poison).expect_err(name);
        let msg = format!("route poison {poison}");
        assert_eq!(err.panic_message(), Some(msg.as_str()), "{name}: {err}");

        let token = CancelToken::new();
        token.cancel(CancelReason::User);
        let err = run(&list, &pool, &cfg.clone().with_cancel_token(token), absent);
        assert!(matches!(err, Err(ExecError::Cancelled)), "{name}: {err:?}");

        let zero = cfg.clone().with_deadline(std::time::Duration::ZERO);
        let err = run(&list, &pool, &zero, absent);
        assert!(
            matches!(err, Err(ExecError::DeadlineExceeded { .. })),
            "{name}: {err:?}"
        );

        pool.shutdown();
        let (out, report) = plobs::recorded(|| run(&list, &pool, &cfg, absent));
        assert_eq!(out.ok(), Some(expect), "{name}");
        assert_eq!(report.fallbacks_submit, 1, "{name}: {report:?}");
        assert_eq!(report.splits, 0, "{name}: the fallback route must not fork");
    }
}

// ---------------------------------------------------------------------
// Default granularity per route: a splice walk over an interleaving
// source stops at one leaf per worker; placement and search keep
// `default_leaf_size`'s ~4 leaves per worker.
// ---------------------------------------------------------------------

/// The paper's polynomial collector over a hooked zip view evaluates at
/// each leaf's own stride, so any tree shape agrees with Horner: the
/// adaptive policy's uneven trees included, on 1–3 workers.
#[test]
fn poly_collect_on_adaptive_trees_matches_horner() {
    let _shared = shared();
    for threads in 1..=3 {
        let cfg = ExecConfig::par()
            .with_pool(Arc::new(forkjoin::ForkJoinPool::new(threads)))
            .with_split_policy(SplitPolicy::adaptive());
        for k in 4..=16 {
            let coeffs =
                powerlist::tabulate(1 << k, |i| ((i * 37 + 11) % 19) as f64 - 9.0).unwrap();
            let x = 0.9993;
            let spec = plalgo::horner(coeffs.as_slice(), x);
            for run in 0..4 {
                let collector = plalgo::PolynomialCollector::new(x);
                let got =
                    stream_support(plalgo::poly_spliterator(coeffs.clone(), &collector), true)
                        .try_collect(collector, &cfg)
                        .unwrap();
                assert!(
                    rel_close(got, spec),
                    "threads={threads} k={k} run={run}: {got} vs {spec}"
                );
            }
        }
    }
}

/// Leaf counts under the default config on a 2-worker pool: the
/// polynomial's splice walk over a hooked zip view makes one parity
/// leaf per worker; a zip→zip placement collect (contiguous block
/// cuts) and a zip-view search keep ~4 leaves per worker.
#[test]
fn default_granularity_per_route() {
    let _exclusive = exclusive();
    let n = 1usize << 14;
    let cfg = ExecConfig::par().with_pool(Arc::new(forkjoin::ForkJoinPool::new(2)));

    let coeffs = powerlist::tabulate(n, |i| ((i * 37 + 11) % 19) as f64 - 9.0).unwrap();
    let (got, poly) = plobs::recorded(|| {
        let collector = plalgo::PolynomialCollector::new(0.9993);
        stream_support(plalgo::poly_spliterator(coeffs.clone(), &collector), true)
            .try_collect(collector, &cfg)
    });
    assert!(rel_close(
        got.unwrap(),
        plalgo::horner(coeffs.as_slice(), 0.9993)
    ));
    assert_eq!(poly.routes.total_leaves(), 2, "poly: {poly:?}");

    let list = powerlist::tabulate(n, |i| i as i64).unwrap();
    let view = list.view();
    let (out, place) = plobs::recorded(|| {
        stream_support(ZipSpliterator::from_view(&view), true)
            .map(|x| 3 * x + 1)
            .try_collect(PowerListCollector::new(Decomposition::Zip), &cfg)
    });
    assert_eq!(
        out.unwrap().into_vec(),
        (0..n as i64).map(|x| 3 * x + 1).collect::<Vec<_>>()
    );
    assert_eq!(place.routes.placement.leaves, 8, "placement: {place:?}");
    assert_eq!(place.routes.total_leaves(), 8, "placement: {place:?}");

    let (hit, search) = plobs::recorded(|| {
        stream_support(ZipSpliterator::from_view(&view), true)
            .filter(|x| *x < 0)
            .try_find_first(&cfg)
    });
    assert_eq!(hit.unwrap(), None);
    // A filtering chain claims no encounter ranks, so an ordered search
    // over parity splits cannot re-sort its hits: one sequential leaf.
    assert_eq!(search.routes.total_leaves(), 1, "find_first: {search:?}");

    let (hit, search) = plobs::recorded(|| {
        stream_support(ZipSpliterator::from_view(&view), true).try_any_match(|x| *x < 0, &cfg)
    });
    assert!(!hit.unwrap());
    // The inline root probe, then 8 walked leaves over the remainder.
    assert_eq!(search.splits, 7, "any_match: {search:?}");
    assert_eq!(search.routes.total_leaves(), 1 + 8, "any_match: {search:?}");
}

// ---------------------------------------------------------------------
// Fused leaves: survivor counts when observed, and the chunked
// survivor scan of fused searches.
// ---------------------------------------------------------------------

/// The fused-borrow leaf counts survivors only while a sink is
/// installed. An observed filtering collect must still report, on
/// every route, exactly the elements that reached the accumulator.
#[test]
fn observed_filtering_collect_reports_survivor_items() {
    let _exclusive = exclusive();
    let n = 1usize << 10;
    let list = powerlist::tabulate(n, |i| (i as i64 * 37) % 101).unwrap();
    let spec: Vec<i64> = list
        .as_slice()
        .iter()
        .map(|x| 2 * x + 1)
        .filter(|y| y % 3 == 0)
        .collect();
    let view = list.view();
    let par = ExecConfig::par()
        .with_pool(Arc::new(forkjoin::ForkJoinPool::new(2)))
        .with_leaf_size(64);
    for (mode, cfg) in [("seq", ExecConfig::seq()), ("par", par)] {
        for zip in [false, true] {
            let (sum, report) = plobs::recorded(|| {
                let stream = if zip {
                    stream_support(ZipSpliterator::from_view(&view), true)
                        .map(|x| 2 * x + 1)
                        .filter(|y| y % 3 == 0)
                        .try_reduce(0, |a, b| a + b, &cfg)
                } else {
                    stream_support(TieSpliterator::from_view(&view), true)
                        .map(|x| 2 * x + 1)
                        .filter(|y| y % 3 == 0)
                        .try_reduce(0, |a, b| a + b, &cfg)
                };
                stream.unwrap()
            });
            let what = format!("{mode} zip={zip}: {}", report.tree_summary());
            assert_eq!(sum, spec.iter().sum::<i64>(), "{what}");
            assert_eq!(report.routes.cloning_drain.leaves, 0, "{what}");
            assert!(report.routes.fused_borrow.leaves > 0, "{what}");
            assert_eq!(
                report.routes.fused_borrow.items,
                spec.len() as u64,
                "{what}"
            );
        }
    }
}

/// The search scan chunk width: a copy of `search.rs`'s crate-private
/// `SCAN_CHUNK`, which must stay equal to it for the needles below to
/// straddle a chunk boundary (fused.rs's unit tests use the constant
/// itself).
const SCAN_CHUNK: usize = 256;

/// `find_first`, `find_any`, `any_match`, `all_match`, `none_match`.
type SearchAnswers = (Option<i64>, Option<i64>, bool, bool, bool);

/// Runs the five search terminals, each over a fresh copy of the
/// pipeline `make` builds, whose survivors are `target` (one element or
/// none). Returns the answers and, per terminal, what the pipeline's
/// `peek` observer (which records into `seen`) saw.
fn search_terminals<S>(
    make: impl Fn() -> jstreams::Stream<i64, S>,
    target: Option<i64>,
    cfg: &ExecConfig,
    seen: &Mutex<Vec<i64>>,
) -> (SearchAnswers, Vec<Vec<i64>>)
where
    S: Spliterator<i64> + 'static,
{
    let mut views = Vec::new();
    let mut observed = || views.push(std::mem::take(&mut *seen.lock().unwrap()));
    let first = make().try_find_first(cfg).expect("find_first");
    observed();
    let any = make().try_find_any(cfg).expect("find_any");
    observed();
    let any_match = make().try_any_match(|_| true, cfg).expect("any_match");
    observed();
    let all_match = make()
        .try_all_match(move |v| Some(*v) != target, cfg)
        .expect("all_match");
    observed();
    let none_match = make().try_none_match(|_| true, cfg).expect("none_match");
    observed();
    ((first, any, any_match, all_match, none_match), views)
}

/// The search chains, named by composition (`map∘filter` filters, then
/// maps), each selecting the one element equal to `needle`. Returns the
/// answers of [`search_terminals`] and the survivor the chain delivers
/// for `needle`.
fn chain_search<S>(
    source: impl Fn() -> jstreams::Stream<i64, S>,
    chain: &str,
    needle: i64,
    present: bool,
    cfg: &ExecConfig,
    seen: &Arc<Mutex<Vec<i64>>>,
) -> (SearchAnswers, Vec<Vec<i64>>, Option<i64>)
where
    S: FusePipe<i64> + 'static,
{
    let is_needle = move |x: &i64| *x == needle;
    let (survivor, run) = match chain {
        "filter" => (
            needle,
            search_terminals(
                || source().filter(is_needle),
                present.then_some(needle),
                cfg,
                seen,
            ),
        ),
        "map∘filter" => (
            2 * needle,
            search_terminals(
                || source().filter(is_needle).map(|x| 2 * x),
                present.then_some(2 * needle),
                cfg,
                seen,
            ),
        ),
        "filter∘map" => (
            2 * needle + 1,
            search_terminals(
                || {
                    source()
                        .map(|x| 2 * x + 1)
                        .filter(move |y| *y == 2 * needle + 1)
                },
                present.then_some(2 * needle + 1),
                cfg,
                seen,
            ),
        ),
        "filter∘peek" => (
            needle,
            search_terminals(
                || {
                    let seen = Arc::clone(seen);
                    source()
                        .peek(move |x| seen.lock().unwrap().push(*x))
                        .filter(is_needle)
                },
                present.then_some(needle),
                cfg,
                seen,
            ),
        ),
        other => unreachable!("unknown chain {other}"),
    };
    (run.0, run.1, present.then_some(survivor))
}

/// Fused searches skip leading survivor-free chunks and go element by
/// element from the first chunk with a survivor, so a needle on either
/// side of a chunk boundary (or absent) must give the sequential spec's
/// answer on every route, and on the sequential route a `peek` observer
/// (which keeps the element-by-element loop) sees exactly the prefix up
/// to the hit. A filtering chain is not SIZED, so a parallel run splits
/// it at most to the depth cap (32 leaves on two workers): over 64
/// chunks every parallel leaf is at least two chunks wide, and the
/// boundary at `SCAN_CHUNK` falls inside a leaf there too.
#[test]
fn fused_search_chunk_scan_agrees_with_spec() {
    let _shared = shared();
    let n = 64 * SCAN_CHUNK;
    let list = powerlist::tabulate(n, |i| 3 * i as i64 + 1).unwrap();
    let data = list.as_slice().to_vec();
    let par = ExecConfig::par().with_pool(Arc::new(forkjoin::ForkJoinPool::new(2)));
    let c = SCAN_CHUNK;
    let positions = [
        Some(0),
        Some(c - 1),
        Some(c),
        Some(c + 1),
        Some(n - 1),
        None,
    ];
    let seen = Arc::new(Mutex::new(Vec::new()));
    let view = list.view();
    for (mode, cfg) in [("seq", ExecConfig::seq()), ("par", par)] {
        for zip in [false, true] {
            for pos in positions {
                // Values are 1 mod 3, so 0 is absent.
                let needle = pos.map_or(0, |i| data[i]);
                for chain in ["filter", "map∘filter", "filter∘map", "filter∘peek"] {
                    let (got, views, target) = if zip {
                        let source = || stream_support(ZipSpliterator::from_view(&view), true);
                        chain_search(source, chain, needle, pos.is_some(), &cfg, &seen)
                    } else {
                        let source = || stream_support(TieSpliterator::from_view(&view), true);
                        chain_search(source, chain, needle, pos.is_some(), &cfg, &seen)
                    };
                    let what = format!("{mode} zip={zip} {chain} needle at {pos:?}");
                    let spec = (
                        target,
                        target,
                        target.is_some(),
                        target.is_none(),
                        target.is_none(),
                    );
                    assert_eq!(got, spec, "{what}");
                    if chain != "filter∘peek" {
                        assert!(views.iter().all(Vec::is_empty), "{what}");
                    } else if mode == "seq" {
                        let prefix = &data[..pos.map_or(n, |i| i + 1)];
                        for view in &views {
                            assert_eq!(view.as_slice(), prefix, "{what}");
                        }
                    }
                }
            }
        }
    }
}

/// The speculation contract of the chunked survivor scan: a `map` may
/// run on elements past the hit, inside the hit's chunk. A `map` that
/// panics on the element just past the hit must therefore give
/// `ExecError::Panicked` or the right answer, never a wrong one.
#[test]
fn speculative_map_past_the_hit_panics_or_answers() {
    let _shared = shared();
    let n = 4 * SCAN_CHUNK;
    let list = powerlist::tabulate(n, |i| i as i64).unwrap();
    let view = list.view();
    let hit = SCAN_CHUNK + 1;
    let (needle, poison) = (hit as i64, hit as i64 + 1);
    let mapper = move |x: i64| {
        assert!(x != poison, "mapper poison {x}");
        x
    };
    let par = ExecConfig::par()
        .with_pool(Arc::new(forkjoin::ForkJoinPool::new(2)))
        .with_leaf_size(SCAN_CHUNK);
    for (mode, cfg) in [("seq", ExecConfig::seq()), ("par", par)] {
        for zip in [false, true] {
            let what = format!("{mode} zip={zip}");
            let (first, any) = if zip {
                let source = || {
                    stream_support(ZipSpliterator::from_view(&view), true)
                        .map(mapper)
                        .filter(move |x| *x == needle)
                };
                (
                    source().try_find_first(&cfg),
                    source().try_any_match(|_| true, &cfg),
                )
            } else {
                let source = || {
                    stream_support(TieSpliterator::from_view(&view), true)
                        .map(mapper)
                        .filter(move |x| *x == needle)
                };
                (
                    source().try_find_first(&cfg),
                    source().try_any_match(|_| true, &cfg),
                )
            };
            match first {
                Ok(v) => assert_eq!(v, Some(needle), "{what}"),
                Err(e) => assert!(matches!(e, jstreams::ExecError::Panicked(_)), "{what}"),
            }
            match any {
                Ok(v) => assert!(v, "{what}"),
                Err(e) => assert!(matches!(e, jstreams::ExecError::Panicked(_)), "{what}"),
            }
        }
    }
}
