//! Model-based tests for the truncation adapters.
//!
//! `limit`/`skip`/`peek` over Slice/Tie/Zip sources, split recursively
//! at every leaf size, are compared against the obvious `Vec` model
//! (`peek` is a fused `InspectStage`).
//! This exercises the allowance bookkeeping in
//! `LimitSpliterator::try_split` / `SkipSpliterator::try_split` at its
//! edges: a limit smaller than the prefix, a skip spanning the split
//! point, `remaining == 1` with a huge inner, and non-exactly-sized
//! (filtered) inners where splitting must be refused rather than
//! miscounted.

use jstreams::{
    Characteristics, FilterStage, FusedSpliterator, IdentityStage, InspectStage, ItemSource,
    LeafAccess, LimitSpliterator, MapStage, SkipSpliterator, SliceSpliterator, Spliterator,
    TieSpliterator, VecCollector, ZipSpliterator,
};
use powerlist::tabulate;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Splits `s` down to `leaf`-sized pieces exactly like the parallel
/// collect driver, draining prefix before suffix (encounter order).
fn split_drain<T, S: Spliterator<T>>(mut s: S, leaf: usize, out: &mut Vec<T>) {
    if s.estimate_size() <= leaf.max(1) {
        s.for_each_remaining(&mut |x| out.push(x));
        return;
    }
    match s.try_split() {
        Some(prefix) => {
            split_drain(prefix, leaf, out);
            split_drain(s, leaf, out);
        }
        None => s.for_each_remaining(&mut |x| out.push(x)),
    }
}

fn drained<T, S: Spliterator<T>>(s: S, leaf: usize) -> Vec<T> {
    let mut out = Vec::new();
    split_drain(s, leaf, &mut out);
    out
}

// ---------------------------------------------------------------------
// Exhaustive sweeps over order-preserving sources (Slice, Tie)
// ---------------------------------------------------------------------

#[test]
fn limit_over_slice_every_split_granularity() {
    for len in [0usize, 1, 2, 3, 7, 8, 13, 16] {
        let model: Vec<i64> = (0..len as i64).collect();
        for limit in 0..=len + 2 {
            for leaf in 1..=len.max(1) {
                let s = LimitSpliterator::new(SliceSpliterator::new(model.clone()), limit);
                assert_eq!(
                    drained(s, leaf),
                    model[..limit.min(len)],
                    "len={len} limit={limit} leaf={leaf}"
                );
            }
        }
    }
}

#[test]
fn skip_over_slice_every_split_granularity() {
    for len in [0usize, 1, 2, 3, 7, 8, 13, 16] {
        let model: Vec<i64> = (0..len as i64).collect();
        for skip in 0..=len + 2 {
            for leaf in 1..=len.max(1) {
                let s = SkipSpliterator::new(SliceSpliterator::new(model.clone()), skip);
                assert_eq!(
                    drained(s, leaf),
                    model[skip.min(len)..],
                    "len={len} skip={skip} leaf={leaf}"
                );
            }
        }
    }
}

#[test]
fn limit_and_skip_over_tie_every_split_granularity() {
    for exp in 0..=5u32 {
        let len = 1usize << exp;
        let model: Vec<i64> = (0..len as i64).collect();
        for k in 0..=len + 1 {
            for leaf in 1..=len {
                let list = tabulate(len, |i| i as i64).unwrap();
                let s = LimitSpliterator::new(TieSpliterator::over(list), k);
                assert_eq!(
                    drained(s, leaf),
                    model[..k.min(len)],
                    "tie limit len={len} k={k} leaf={leaf}"
                );
                let list = tabulate(len, |i| i as i64).unwrap();
                let s = SkipSpliterator::new(TieSpliterator::over(list), k);
                assert_eq!(
                    drained(s, leaf),
                    model[k.min(len)..],
                    "tie skip len={len} k={k} leaf={leaf}"
                );
            }
        }
    }
}

#[test]
fn remaining_one_with_huge_inner() {
    // The `remaining < 2` guard: a limit of 1 over a large source must
    // never split (a split would strand the allowance) and must yield
    // exactly the first element at any granularity.
    let model: Vec<i64> = (0..1024).collect();
    for leaf in [1usize, 2, 64, 1024] {
        let mut s = LimitSpliterator::new(SliceSpliterator::new(model.clone()), 1);
        assert!(s.try_split().is_none(), "limit 1 must refuse to split");
        assert_eq!(drained(s, leaf), vec![0]);
    }
    // Skip of len-1: one survivor, however the tree splits.
    for leaf in [1usize, 3, 128] {
        let s = SkipSpliterator::new(SliceSpliterator::new(model.clone()), 1023);
        assert_eq!(drained(s, leaf), vec![1023]);
    }
}

// ---------------------------------------------------------------------
// Zip: splits permute encounter order, so compare counts + multiset
// and pin the unsplit (sequential) order exactly
// ---------------------------------------------------------------------

#[test]
fn truncation_over_zip_counts_and_multisets() {
    for exp in 1..=4u32 {
        let len = 1usize << exp;
        let model: Vec<i64> = (0..len as i64).collect();
        for k in 0..=len {
            // Sequential (leaf >= len): zip drains in storage order, so
            // the model applies exactly.
            let list = tabulate(len, |i| i as i64).unwrap();
            let s = LimitSpliterator::new(ZipSpliterator::over(list), k);
            assert_eq!(drained(s, len), model[..k], "seq zip limit");
            let list = tabulate(len, |i| i as i64).unwrap();
            let s = SkipSpliterator::new(ZipSpliterator::over(list), k);
            assert_eq!(drained(s, len), model[k..], "seq zip skip");

            // Split: order is a residue-class permutation, but the
            // element *count* must still be exact and every element
            // distinct and drawn from the source.
            for leaf in 1..len {
                let list = tabulate(len, |i| i as i64).unwrap();
                let mut got = drained(LimitSpliterator::new(ZipSpliterator::over(list), k), leaf);
                assert_eq!(got.len(), k, "zip limit count len={len} k={k} leaf={leaf}");
                got.sort_unstable();
                got.dedup();
                assert_eq!(got.len(), k, "zip limit yielded duplicates");
                assert!(got.iter().all(|x| model.contains(x)));

                let list = tabulate(len, |i| i as i64).unwrap();
                let mut got = drained(SkipSpliterator::new(ZipSpliterator::over(list), k), leaf);
                assert_eq!(
                    got.len(),
                    len - k,
                    "zip skip count len={len} k={k} leaf={leaf}"
                );
                got.sort_unstable();
                got.dedup();
                assert_eq!(got.len(), len - k, "zip skip yielded duplicates");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Non-exactly-sized inners: splitting must be refused, not miscounted
// ---------------------------------------------------------------------

#[test]
fn truncation_over_filter_refuses_to_split() {
    // filter keeps evens of 0..8 => [0, 2, 4, 6]; skip 3 => [6].
    // With allowance arithmetic on the filter's upper-bound sizes, a
    // split would let the prefix absorb skip debt it cannot fulfil and
    // leak 4 into the output. The SIZED|SUBSIZED gate forbids the split.
    let inner = FusedSpliterator::new(
        SliceSpliterator::new((0..8i64).collect()),
        FilterStage::new(IdentityStage, |x: &i64| x % 2 == 0),
    );
    let mut s = SkipSpliterator::new(inner, 3);
    assert!(
        s.try_split().is_none(),
        "skip over a non-SIZED inner must not split"
    );
    assert_eq!(drained(s, 1), vec![6]);

    let inner = FusedSpliterator::new(
        SliceSpliterator::new((0..8i64).collect()),
        FilterStage::new(IdentityStage, |x: &i64| x % 2 == 0),
    );
    let mut s = LimitSpliterator::new(inner, 3);
    assert!(
        s.try_split().is_none(),
        "limit over a non-SIZED inner must not split"
    );
    assert_eq!(drained(s, 1), vec![0, 2, 4]);
}

#[test]
fn filtered_truncations_match_model_at_every_granularity() {
    for len in [4usize, 8, 12, 16] {
        let model: Vec<i64> = (0..len as i64).filter(|x| x % 3 != 0).collect();
        for k in 0..=model.len() + 1 {
            for leaf in 1..=len {
                let inner = FusedSpliterator::new(
                    SliceSpliterator::new((0..len as i64).collect()),
                    FilterStage::new(IdentityStage, |x: &i64| x % 3 != 0),
                );
                let got = drained(LimitSpliterator::new(inner, k), leaf);
                assert_eq!(got, model[..k.min(model.len())], "filter+limit");

                let inner = FusedSpliterator::new(
                    SliceSpliterator::new((0..len as i64).collect()),
                    FilterStage::new(IdentityStage, |x: &i64| x % 3 != 0),
                );
                let got = drained(SkipSpliterator::new(inner, k), leaf);
                assert_eq!(got, model[k.min(model.len())..], "filter+skip");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Truncation over fused chains: allowance math needs exact per-element
// counting, so limit/skip must refuse both the fused-borrow leaf route
// and (when the chain filters, dropping SIZED) any split at all.
// ---------------------------------------------------------------------

/// limit ∘ filter ∘ map as one fused chain under a LimitSpliterator:
/// matches the model at every granularity, never splits (the filter
/// stage drops SIZED|SUBSIZED), and never takes the fused-borrow route.
#[test]
fn limit_over_filtered_fused_chain_matches_model_and_refuses_routes() {
    let chain_of = || {
        FusedSpliterator::new(
            SliceSpliterator::new((0..16i64).collect()),
            FilterStage::new(MapStage::new(IdentityStage, |x: i64| x * 2), |x: &i64| {
                x % 3 != 0
            }),
        )
    };
    // evens of 0..32 with multiples of 3 removed: 2,4,8,10,14,...
    let model: Vec<i64> = (0..16i64).map(|x| x * 2).filter(|x| x % 3 != 0).collect();
    for k in 0..=model.len() + 1 {
        for leaf in [1usize, 2, 5, 16] {
            let mut s = LimitSpliterator::new(chain_of(), k);
            assert!(
                s.try_split().is_none(),
                "limit over a filtering fused chain must not split (k={k})"
            );
            assert!(
                LeafAccess::<i64>::fused_leaf(&mut s, &VecCollector).is_none(),
                "truncation must refuse the fused-borrow route (k={k})"
            );
            assert_eq!(
                drained(s, leaf),
                model[..k.min(model.len())],
                "k={k} leaf={leaf}"
            );
        }
    }
}

/// skip ∘ map as a fused chain under a SkipSpliterator: the chain is
/// exact (no filter), so SIZED survives and skip may split — but the
/// truncation adapter still refuses the fused-borrow leaf route, since
/// its allowance debits elements one at a time.
#[test]
fn skip_over_mapped_fused_chain_matches_model_and_refuses_fused_route() {
    let model: Vec<i64> = (0..16i64).map(|x| x + 100).collect();
    for k in 0..=16usize + 1 {
        for leaf in [1usize, 3, 8, 16] {
            let inner = FusedSpliterator::new(
                SliceSpliterator::new((0..16i64).collect()),
                MapStage::new(IdentityStage, |x: i64| x + 100),
            );
            assert!(inner.has_characteristics(Characteristics::SIZED));
            let mut s = SkipSpliterator::new(inner, k);
            assert!(
                LeafAccess::<i64>::fused_leaf(&mut s, &VecCollector).is_none(),
                "truncation must refuse the fused-borrow route (k={k})"
            );
            assert_eq!(
                drained(s, leaf),
                model[k.min(model.len())..],
                "k={k} leaf={leaf}"
            );
        }
    }
}

/// The same compositions built through the Stream API (`map`/`filter`
/// extend the fused chain, then `limit`/`skip` wrap it) agree with the
/// iterator model, sequential and parallel.
#[test]
fn stream_truncation_over_fused_chains_matches_model() {
    use jstreams::stream_support;
    let raw: Vec<i64> = (0..64).collect();
    let limited_model: Vec<i64> = raw
        .iter()
        .map(|x| x * 2)
        .filter(|x| x % 3 != 0)
        .take(10)
        .collect();
    let skipped_model: Vec<i64> = raw.iter().map(|x| x + 7).skip(20).collect();
    for parallel in [false, true] {
        let limited = stream_support(SliceSpliterator::new(raw.clone()), parallel)
            .map(|x| x * 2)
            .filter(|x| x % 3 != 0)
            .limit(10)
            .to_vec();
        assert_eq!(
            limited, limited_model,
            "limit∘filter∘map, parallel={parallel}"
        );

        let skipped = stream_support(SliceSpliterator::new(raw.clone()), parallel)
            .map(|x| x + 7)
            .skip(20)
            .to_vec();
        assert_eq!(skipped, skipped_model, "skip∘map, parallel={parallel}");
    }
}

// ---------------------------------------------------------------------
// Peek: observes exactly the surviving elements, under any splitting
// ---------------------------------------------------------------------

#[test]
fn peek_sees_exactly_the_emitted_elements() {
    for len in [1usize, 5, 8, 16] {
        for leaf in 1..=len {
            let seen = Arc::new(AtomicUsize::new(0));
            let s2 = Arc::clone(&seen);
            let s = FusedSpliterator::new(
                SliceSpliterator::new((0..len as i64).collect()),
                InspectStage::new(IdentityStage, move |_: &i64| {
                    s2.fetch_add(1, Ordering::Relaxed);
                }),
            );
            let out = drained(s, leaf);
            assert_eq!(out.len(), len);
            assert_eq!(seen.load(Ordering::Relaxed), len, "len={len} leaf={leaf}");
        }
    }
}

#[test]
fn peek_inside_limit_observes_only_the_allowance() {
    let seen = Arc::new(AtomicUsize::new(0));
    for leaf in [1usize, 7, 100] {
        seen.store(0, Ordering::Relaxed);
        let s2 = Arc::clone(&seen);
        let s = LimitSpliterator::new(
            FusedSpliterator::new(
                SliceSpliterator::new((0..100i64).collect()),
                InspectStage::new(IdentityStage, move |_: &i64| {
                    s2.fetch_add(1, Ordering::Relaxed);
                }),
            ),
            10,
        );
        let out = drained(s, leaf);
        assert_eq!(out, (0..10i64).collect::<Vec<_>>());
        assert_eq!(
            seen.load(Ordering::Relaxed),
            10,
            "peek under limit must only see emitted elements (leaf={leaf})"
        );
    }
}

// ---------------------------------------------------------------------
// Randomised compositions
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_skip_then_limit_matches_model(
        len in 0usize..200,
        skip in 0usize..220,
        limit in 0usize..220,
        leaf in 1usize..64,
    ) {
        let model: Vec<i64> = (0..len as i64).collect();
        let expect: Vec<i64> = model.iter().copied().skip(skip).take(limit).collect();
        let s = LimitSpliterator::new(
            SkipSpliterator::new(SliceSpliterator::new(model.clone()), skip),
            limit,
        );
        prop_assert_eq!(drained(s, leaf), expect);
    }

    #[test]
    fn random_limit_then_skip_matches_model(
        len in 0usize..200,
        skip in 0usize..220,
        limit in 0usize..220,
        leaf in 1usize..64,
    ) {
        let model: Vec<i64> = (0..len as i64).collect();
        let expect: Vec<i64> = model.iter().copied().take(limit).skip(skip).collect();
        let s = SkipSpliterator::new(
            LimitSpliterator::new(SliceSpliterator::new(model.clone()), limit),
            skip,
        );
        prop_assert_eq!(drained(s, leaf), expect);
    }

    #[test]
    fn truncations_preserve_sized_but_not_power2(
        len_exp in 0u32..6,
        k in 0usize..70,
    ) {
        let len = 1usize << len_exp;
        let list = tabulate(len, |i| i as i64).unwrap();
        let s = LimitSpliterator::new(TieSpliterator::over(list), k);
        prop_assert!(s.has_characteristics(Characteristics::SIZED));
        prop_assert!(!s.has_characteristics(Characteristics::POWER2));
        prop_assert_eq!(s.estimate_size(), k.min(len));
    }
}
