//! Integration tests of the multi-way (PList) stack: the paper's
//! future-work extension end-to-end — n-way spliterators feeding n-way
//! collects, and PList functions on the fork-join pool, cross-checked
//! against the binary machinery where both apply.

use forkjoin::ForkJoinPool;
use jplf::{
    compute_plist_sequential, Decomp, Executor, ForkJoinExecutor, NWayReduce, PListFunction,
    SequentialExecutor,
};
use jstreams::{
    try_collect_nway, ExecConfig, NTieSpliterator, NWayDecomposition, NZipSpliterator,
    PListCollector,
};
use powerlist::{PList, PowerList};
use std::sync::Arc;

/// A parallel config on `pool` with a fixed leaf size.
fn par(pool: &Arc<ForkJoinPool>, leaf: usize) -> ExecConfig {
    ExecConfig::par()
        .with_pool(Arc::clone(pool))
        .with_leaf_size(leaf)
}

/// The fork-join PList executor on `pool` with a fixed leaf size.
fn plist_par<F: PListFunction + Clone>(
    pool: &Arc<ForkJoinPool>,
    f: &F,
    p: &PList<F::Elem>,
    leaf: usize,
) -> F::Out {
    ForkJoinExecutor::with_pool(Arc::clone(pool), leaf)
        .try_execute_plist(f, p, &ExecConfig::par())
        .unwrap_or_else(|e| panic!("plist execution failed: {e}"))
}

fn plist(n: usize) -> PList<i64> {
    PList::from_vec((0..n as i64).map(|i| (i * 29 + 5) % 83).collect()).unwrap()
}

#[test]
fn nway_identity_collect_across_arities_and_leaves() {
    let pool = Arc::new(ForkJoinPool::new(2));
    for n in [1usize, 3, 9, 27, 81, 12, 36] {
        let p = plist(n);
        for arity in [2usize, 3, 4] {
            for leaf in [1usize, 3, 10] {
                let tie = try_collect_nway(
                    NTieSpliterator::over(p.clone()),
                    PListCollector::new(NWayDecomposition::Tie),
                    arity,
                    &par(&pool, leaf),
                )
                .unwrap();
                assert_eq!(tie, p, "tie n={n} arity={arity} leaf={leaf}");
                let zip = try_collect_nway(
                    NZipSpliterator::over(p.clone()),
                    PListCollector::new(NWayDecomposition::Zip),
                    arity,
                    &par(&pool, leaf),
                )
                .unwrap();
                assert_eq!(zip, p, "zip n={n} arity={arity} leaf={leaf}");
            }
        }
    }
}

#[test]
fn nway_seq_equals_par() {
    let pool = Arc::new(ForkJoinPool::new(3));
    let p = plist(54); // 2 · 27
    let seq = try_collect_nway(
        NTieSpliterator::over(p.clone()),
        PListCollector::new(NWayDecomposition::Tie),
        3,
        &ExecConfig::seq(),
    )
    .unwrap();
    let par = try_collect_nway(
        NTieSpliterator::over(p.clone()),
        PListCollector::new(NWayDecomposition::Tie),
        3,
        &par(&pool, 2),
    )
    .unwrap();
    assert_eq!(seq, par);
    assert_eq!(seq, p);
}

#[test]
fn plist_function_agrees_with_binary_on_powers_of_two() {
    // On power-of-two lengths with arity 2, the PList machinery must
    // agree with the binary PowerFunction machinery.
    let pow = powerlist::tabulate(256, |i| (i as i64 * 13) % 47).unwrap();
    let binary = SequentialExecutor::new().execute(
        &plalgo::ReduceFunction::new(Decomp::Tie, |a: &i64, b: &i64| a + b),
        &pow.clone().view(),
    );
    let nway2 = compute_plist_sequential(
        &NWayReduce::new(2, |a: &i64, b: &i64| a + b),
        &PList::from(pow.clone()),
    );
    assert_eq!(binary, nway2);

    // And a 4-way split of the same data computes the same sum.
    let nway4 = compute_plist_sequential(
        &NWayReduce::new(4, |a: &i64, b: &i64| a + b),
        &PList::from(pow),
    );
    assert_eq!(binary, nway4);
}

#[test]
fn plist_parallel_full_stack() {
    let pool = Arc::new(ForkJoinPool::new(3));
    let p = plist(243); // 3^5: pure 3-way tree
    let f = NWayReduce::new(3, |a: &i64, b: &i64| a + b);
    let expected: i64 = p.iter().sum();
    assert_eq!(compute_plist_sequential(&f, &p), expected);
    for leaf in [1usize, 9, 81, 300] {
        assert_eq!(plist_par(&pool, &f, &p, leaf), expected, "leaf={leaf}");
    }
}

#[test]
fn paper_quantified_forms_through_streams() {
    // Build [ ♮ i : i ∈ 3̄ : p.i ] with the algebra, then verify the
    // n-way zip spliterator deconstructs it back into the p.i.
    let parts: Vec<PList<i64>> = (0..3)
        .map(|i| PList::from_vec(vec![i * 3, i * 3 + 1, i * 3 + 2]).unwrap())
        .collect();
    let zipped = PList::zip_n(parts.clone()).unwrap();
    use jstreams::{ItemSource, NWaySpliterator};
    let split = NZipSpliterator::over(zipped).try_split_n(3).ok().unwrap();
    for (mut s, expected) in split.into_iter().zip(parts) {
        let mut got = vec![];
        s.for_each_remaining(&mut |x| got.push(x));
        assert_eq!(got, expected.into_vec());
    }
}

#[test]
fn powerlist_plist_interop() {
    // A PowerList flows into the PList machinery and back.
    let pow = powerlist::tabulate(64, |i| i as i64).unwrap();
    let pl: PList<i64> = pow.clone().into();
    let sum = compute_plist_sequential(&NWayReduce::new(4, |a: &i64, b: &i64| a + b), &pl);
    assert_eq!(sum, (0..64).sum::<i64>());
    let back: PowerList<i64> = pl.into_powerlist().unwrap();
    assert_eq!(back, pow);
}

// ---------------------------------------------------------------------
// Degenerate shapes: single segments, singleton lists, arity > length
// ---------------------------------------------------------------------

/// The 1-way decompositions are identities: `tie_n`/`zip_n` of one part
/// reproduce the part, and `untie_n(1)`/`unzip_n(1)` give it back as
/// the single segment.
#[test]
fn one_way_decomposition_is_the_identity() {
    let p = plist(12);
    assert_eq!(PList::tie_n(vec![p.clone()]).unwrap(), p);
    assert_eq!(PList::zip_n(vec![p.clone()]).unwrap(), p);
    let tied = p.clone().untie_n(1).unwrap();
    assert_eq!(tied, vec![p.clone()]);
    let zipped = p.clone().unzip_n(1).unwrap();
    assert_eq!(zipped, vec![p]);
}

/// A singleton PList through the whole n-way stack: nothing can split
/// (any requested arity exceeds the single element), so every drain is
/// one sequential leaf — and the answers still agree with the spec.
#[test]
fn singleton_plist_through_the_nway_stack() {
    let pool = Arc::new(ForkJoinPool::new(2));
    let p = PList::from_vec(vec![17i64]).unwrap();
    for arity in [2usize, 3, 7] {
        for (label, got) in [
            (
                "tie",
                try_collect_nway(
                    NTieSpliterator::over(p.clone()),
                    PListCollector::new(NWayDecomposition::Tie),
                    arity,
                    &par(&pool, 1),
                )
                .unwrap(),
            ),
            (
                "zip",
                try_collect_nway(
                    NZipSpliterator::over(p.clone()),
                    PListCollector::new(NWayDecomposition::Zip),
                    arity,
                    &par(&pool, 1),
                )
                .unwrap(),
            ),
        ] {
            assert_eq!(got, p, "{label} singleton arity={arity}");
        }
    }
    let f = NWayReduce::new(3, |a: &i64, b: &i64| a + b);
    assert_eq!(compute_plist_sequential(&f, &p), 17);
    assert_eq!(plist_par(&pool, &f, &p, 1), 17);
}

/// Arity larger than the list: a length-4 list asked for 8-way
/// progress must still collect correctly through both decompositions
/// (splits degrade to whatever the length supports).
#[test]
fn arity_exceeding_length_still_collects() {
    let pool = Arc::new(ForkJoinPool::new(2));
    let p = plist(4);
    for (label, decomp) in [
        ("tie", NWayDecomposition::Tie),
        ("zip", NWayDecomposition::Zip),
    ] {
        let got = match decomp {
            NWayDecomposition::Tie => try_collect_nway(
                NTieSpliterator::over(p.clone()),
                PListCollector::new(decomp),
                8,
                &par(&pool, 1),
            )
            .unwrap(),
            NWayDecomposition::Zip => try_collect_nway(
                NZipSpliterator::over(p.clone()),
                PListCollector::new(decomp),
                8,
                &par(&pool, 1),
            )
            .unwrap(),
        };
        assert_eq!(got, p, "{label} arity 8 over length 4");
    }
}

/// `try_split_n` on a singleton must refuse rather than manufacture
/// empty segments: the spliterator stays whole and drains its one
/// element.
#[test]
fn singleton_refuses_to_split_n() {
    use jstreams::{ItemSource, NWaySpliterator};
    let p = PList::from_vec(vec![99i64]).unwrap();
    // A refused split hands the spliterator back in the Err; it must
    // still drain its element afterwards.
    let tie = NTieSpliterator::over(p.clone());
    let mut tie = match tie.try_split_n(2) {
        Err(whole) => whole,
        Ok(_) => panic!("tie singleton must not 2-split"),
    };
    let mut got = vec![];
    tie.for_each_remaining(&mut |x| got.push(x));
    assert_eq!(got, vec![99]);
    let zip = NZipSpliterator::over(p);
    let mut zip = match zip.try_split_n(3) {
        Err(whole) => whole,
        Ok(_) => panic!("zip singleton must not 3-split"),
    };
    let mut got = vec![];
    zip.for_each_remaining(&mut |x| got.push(x));
    assert_eq!(got, vec![99]);
}
