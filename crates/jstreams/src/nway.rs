//! *n*-way spliterators — the paper's future-work extension, built.
//!
//! Section V: "Since the definition of the Spliterator interface offers
//! only the possibility to split the data in two parts (each time), the
//! possibility to include also the PList extension, and so multi-way
//! divide-and-conquer is not possible (yet). If the definition of the
//! Spliterator would be extended with a trySplit method that returns a
//! set of Spliterators that all together cover all the elements of the
//! source, than the adaptation to PList would become possible."
//!
//! This module implements exactly that extension:
//!
//! * [`NWaySpliterator`] — `try_split_n` returns a set of spliterators
//!   jointly covering the source;
//! * [`NTieSpliterator`] / [`NZipSpliterator`] — the *n*-way tie (block)
//!   and zip (residue-class) decompositions over [`PList`] data;
//! * [`NWayCollector`] — a collector whose combiner merges *n* partial
//!   results at once ([`PListCollector`] recombines with `tie_n` /
//!   `zip_n`);
//! * [`collect_nway_seq`] / [`collect_nway_par`] — the multi-way collect
//!   drivers (the parallel one fans each split out on the fork-join
//!   pool).

use crate::characteristics::Characteristics;
use crate::spliterator::ItemSource;
use forkjoin::{join, ForkJoinPool};
use powerlist::PList;
use std::sync::Arc;

/// A source splittable into `n` parts at once.
pub trait NWaySpliterator<T>: ItemSource<T> + Send + Sized {
    /// Splits the remaining elements into `n` spliterators that jointly
    /// cover them, in encounter order of the corresponding PList
    /// constructor. Returns `Err(self)` (unchanged) when the source
    /// cannot be split `n` ways (too small, or size not divisible).
    fn try_split_n(self, n: usize) -> Result<Vec<Self>, Self>;

    /// Structural properties of this source.
    fn characteristics(&self) -> Characteristics;

    /// The remaining element count only when it is exact
    /// (`Some(estimate_size())` iff `SIZED`), mirroring
    /// [`Spliterator::exact_size`](crate::spliterator::Spliterator::exact_size):
    /// leaf cutoffs must not trust upper-bound estimates.
    fn exact_size(&self) -> Option<usize> {
        if self.characteristics().contains(Characteristics::SIZED) {
            Some(self.estimate_size())
        } else {
            None
        }
    }
}

/// Shared descriptor for the two n-way spliterators: `(data, start,
/// count, incr)` over shared storage.
struct NDescriptor<T> {
    data: Arc<Vec<T>>,
    start: usize,
    count: usize,
    incr: usize,
    cursor: usize, // elements already consumed from the front
}

impl<T: Clone> NDescriptor<T> {
    fn remaining(&self) -> usize {
        self.count - self.cursor
    }

    fn advance(&mut self, action: &mut dyn FnMut(T)) -> bool {
        if self.cursor == self.count {
            return false;
        }
        let idx = self.start + self.cursor * self.incr;
        action(self.data[idx].clone());
        self.cursor += 1;
        true
    }

    fn drain(&mut self, action: &mut dyn FnMut(T)) {
        while self.cursor < self.count {
            let idx = self.start + self.cursor * self.incr;
            action(self.data[idx].clone());
            self.cursor += 1;
        }
    }
}

/// *n*-way **tie** spliterator: splits into `n` contiguous blocks.
pub struct NTieSpliterator<T> {
    d: NDescriptor<T>,
}

impl<T> NTieSpliterator<T> {
    /// Spliterator over all elements of a PList.
    pub fn over(list: PList<T>) -> Self {
        let count = list.len();
        NTieSpliterator {
            d: NDescriptor {
                data: Arc::new(list.into_vec()),
                start: 0,
                count,
                incr: 1,
                cursor: 0,
            },
        }
    }
}

impl<T: Clone> ItemSource<T> for NTieSpliterator<T> {
    fn try_advance(&mut self, action: &mut dyn FnMut(T)) -> bool {
        self.d.advance(action)
    }

    fn for_each_remaining(&mut self, action: &mut dyn FnMut(T)) {
        self.d.drain(action)
    }

    fn estimate_size(&self) -> usize {
        self.d.remaining()
    }
}

impl<T: Clone + Send + Sync> NWaySpliterator<T> for NTieSpliterator<T> {
    fn try_split_n(self, n: usize) -> Result<Vec<Self>, Self> {
        let rem = self.d.remaining();
        if n < 2 || rem < n || !rem.is_multiple_of(n) {
            return Err(self);
        }
        let m = rem / n;
        let base = self.d.start + self.d.cursor * self.d.incr;
        let parts = (0..n)
            .map(|i| NTieSpliterator {
                d: NDescriptor {
                    data: Arc::clone(&self.d.data),
                    start: base + i * m * self.d.incr,
                    count: m,
                    incr: self.d.incr,
                    cursor: 0,
                },
            })
            .collect();
        Ok(parts)
    }

    fn characteristics(&self) -> Characteristics {
        Characteristics::ORDERED
            | Characteristics::SIZED
            | Characteristics::SUBSIZED
            | Characteristics::IMMUTABLE
            | Characteristics::NONNULL
    }
}

/// *n*-way **zip** spliterator: splits into `n` residue classes.
pub struct NZipSpliterator<T> {
    d: NDescriptor<T>,
}

impl<T> NZipSpliterator<T> {
    /// Spliterator over all elements of a PList.
    pub fn over(list: PList<T>) -> Self {
        let count = list.len();
        NZipSpliterator {
            d: NDescriptor {
                data: Arc::new(list.into_vec()),
                start: 0,
                count,
                incr: 1,
                cursor: 0,
            },
        }
    }
}

impl<T: Clone> ItemSource<T> for NZipSpliterator<T> {
    fn try_advance(&mut self, action: &mut dyn FnMut(T)) -> bool {
        self.d.advance(action)
    }

    fn for_each_remaining(&mut self, action: &mut dyn FnMut(T)) {
        self.d.drain(action)
    }

    fn estimate_size(&self) -> usize {
        self.d.remaining()
    }
}

impl<T: Clone + Send + Sync> NWaySpliterator<T> for NZipSpliterator<T> {
    fn try_split_n(self, n: usize) -> Result<Vec<Self>, Self> {
        let rem = self.d.remaining();
        if n < 2 || rem < n || !rem.is_multiple_of(n) {
            return Err(self);
        }
        let m = rem / n;
        let base = self.d.start + self.d.cursor * self.d.incr;
        let parts = (0..n)
            .map(|i| NZipSpliterator {
                d: NDescriptor {
                    data: Arc::clone(&self.d.data),
                    start: base + i * self.d.incr,
                    count: m,
                    incr: self.d.incr * n,
                    cursor: 0,
                },
            })
            .collect();
        Ok(parts)
    }

    fn characteristics(&self) -> Characteristics {
        Characteristics::ORDERED
            | Characteristics::SIZED
            | Characteristics::SUBSIZED
            | Characteristics::IMMUTABLE
            | Characteristics::NONNULL
    }
}

/// A collector whose combining phase merges `n` sibling results at once
/// — the PList analogue of [`Collector`](crate::Collector).
pub trait NWayCollector<T>: Send + Sync {
    /// The mutable accumulation type.
    type Acc: Send;
    /// The result type.
    type Out;

    /// Fresh leaf container.
    fn supplier(&self) -> Self::Acc;
    /// Folds one element into a container.
    fn accumulate(&self, acc: &mut Self::Acc, item: T);
    /// Merges the `n` partial results of an *n*-way split, in encounter
    /// order.
    fn combine_n(&self, parts: Vec<Self::Acc>) -> Self::Acc;
    /// Final transformation.
    fn finish(&self, acc: Self::Acc) -> Self::Out;
}

/// Which n-way constructor recombines partial results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NWayDecomposition {
    /// Concatenation (`(n-way |)`).
    Tie,
    /// Interleaving (`(n-way ♮)`).
    Zip,
}

/// Identity collector into a [`PList`], recombining with `tie_n` /
/// `zip_n` — the PList version of the paper's verification example.
pub struct PListCollector {
    decomposition: NWayDecomposition,
}

impl PListCollector {
    /// Identity collector for the given n-way operator.
    pub fn new(decomposition: NWayDecomposition) -> Self {
        PListCollector { decomposition }
    }
}

impl<T: Clone + Send> NWayCollector<T> for PListCollector {
    type Acc = Vec<T>;
    type Out = PList<T>;

    fn supplier(&self) -> Vec<T> {
        Vec::new()
    }

    fn accumulate(&self, acc: &mut Vec<T>, item: T) {
        acc.push(item);
    }

    fn combine_n(&self, parts: Vec<Vec<T>>) -> Vec<T> {
        let lists: Vec<PList<T>> = parts
            .into_iter()
            .map(|v| PList::from_vec(v).expect("non-empty parts"))
            .collect();
        let merged = match self.decomposition {
            NWayDecomposition::Tie => PList::tie_n(lists),
            NWayDecomposition::Zip => PList::zip_n(lists),
        };
        merged.expect("similar parts").into_vec()
    }

    fn finish(&self, acc: Vec<T>) -> PList<T> {
        PList::from_vec(acc).expect("collect of a non-empty source")
    }
}

/// Sequential n-way collect: drain and finish.
pub fn collect_nway_seq<T, S, C>(mut source: S, collector: &C) -> C::Out
where
    S: NWaySpliterator<T>,
    C: NWayCollector<T>,
{
    let mut acc = collector.supplier();
    source.for_each_remaining(&mut |x| collector.accumulate(&mut acc, x));
    collector.finish(acc)
}

/// Parallel n-way collect on `pool`: splits `arity` ways until
/// `leaf_size`, processes leaves, and recombines with `combine_n`.
pub fn collect_nway_par<T, S, C>(
    pool: &ForkJoinPool,
    source: S,
    collector: Arc<C>,
    arity: usize,
    leaf_size: usize,
) -> C::Out
where
    T: Send + 'static,
    S: NWaySpliterator<T> + 'static,
    C: NWayCollector<T> + 'static,
    C::Acc: 'static,
{
    let arity = arity.max(2);
    let leaf_size = leaf_size.max(1);
    let c2 = Arc::clone(&collector);
    let acc = pool.install(move || recurse(source, c2, arity, leaf_size));
    collector.finish(acc)
}

fn recurse<T, S, C>(mut source: S, collector: Arc<C>, arity: usize, leaf_size: usize) -> C::Acc
where
    T: Send + 'static,
    S: NWaySpliterator<T> + 'static,
    C: NWayCollector<T> + 'static,
    C::Acc: 'static,
{
    // The size cutoff only applies to exact sizes (SIZED): an
    // upper-bound estimate must not stop the descent early — inexact
    // sources split until `try_split_n` refuses.
    if source.exact_size().is_some_and(|size| size <= leaf_size) {
        let mut acc = collector.supplier();
        source.for_each_remaining(&mut |x| collector.accumulate(&mut acc, x));
        return acc;
    }
    match source.try_split_n(arity) {
        Err(mut s) => {
            let mut acc = collector.supplier();
            s.for_each_remaining(&mut |x| collector.accumulate(&mut acc, x));
            acc
        }
        Ok(parts) => {
            let accs = par_map_parts(parts, &collector, arity, leaf_size);
            collector.combine_n(accs)
        }
    }
}

/// Runs `recurse` over each part in parallel (binary join fan-out),
/// preserving order.
fn par_map_parts<T, S, C>(
    parts: Vec<S>,
    collector: &Arc<C>,
    arity: usize,
    leaf_size: usize,
) -> Vec<C::Acc>
where
    T: Send + 'static,
    S: NWaySpliterator<T> + 'static,
    C: NWayCollector<T> + 'static,
    C::Acc: 'static,
{
    fn go<T, S, C>(
        mut parts: Vec<S>,
        collector: Arc<C>,
        arity: usize,
        leaf_size: usize,
    ) -> Vec<C::Acc>
    where
        T: Send + 'static,
        S: NWaySpliterator<T> + 'static,
        C: NWayCollector<T> + 'static,
        C::Acc: 'static,
    {
        match parts.len() {
            0 => Vec::new(),
            1 => vec![recurse(
                parts.pop().expect("len 1"),
                collector,
                arity,
                leaf_size,
            )],
            _ => {
                let right = parts.split_off(parts.len() / 2);
                let c2 = Arc::clone(&collector);
                let (mut l, mut r) = join(
                    move || go(parts, collector, arity, leaf_size),
                    move || go(right, c2, arity, leaf_size),
                );
                l.append(&mut r);
                l
            }
        }
    }
    go(parts, Arc::clone(collector), arity, leaf_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plist(n: usize) -> PList<i64> {
        PList::from_vec((0..n as i64).collect()).unwrap()
    }

    fn drain<T, S: ItemSource<T>>(s: &mut S) -> Vec<T> {
        let mut out = vec![];
        s.for_each_remaining(&mut |x| out.push(x));
        out
    }

    #[test]
    fn ntie_splits_into_blocks() {
        let _serial = crate::test_serial::shared();
        let s = NTieSpliterator::over(plist(9));
        let mut parts = s.try_split_n(3).ok().unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(drain(&mut parts[0]), vec![0, 1, 2]);
        assert_eq!(drain(&mut parts[1]), vec![3, 4, 5]);
        assert_eq!(drain(&mut parts[2]), vec![6, 7, 8]);
    }

    #[test]
    fn nzip_splits_into_residues() {
        let _serial = crate::test_serial::shared();
        let s = NZipSpliterator::over(plist(9));
        let mut parts = s.try_split_n(3).ok().unwrap();
        assert_eq!(drain(&mut parts[0]), vec![0, 3, 6]);
        assert_eq!(drain(&mut parts[1]), vec![1, 4, 7]);
        assert_eq!(drain(&mut parts[2]), vec![2, 5, 8]);
    }

    #[test]
    fn nested_nway_splits() {
        let _serial = crate::test_serial::shared();
        // 3-way zip then 2-way zip of a part: residues mod 6.
        let s = NZipSpliterator::over(plist(36));
        let parts = s.try_split_n(3).ok().unwrap();
        let mut it = parts.into_iter();
        let first = it.next().unwrap();
        let mut sub = first.try_split_n(2).ok().unwrap();
        assert_eq!(drain(&mut sub[0]), vec![0, 6, 12, 18, 24, 30]);
        assert_eq!(drain(&mut sub[1]), vec![3, 9, 15, 21, 27, 33]);
    }

    #[test]
    fn indivisible_split_is_rejected() {
        let _serial = crate::test_serial::shared();
        let s = NTieSpliterator::over(plist(10));
        let back = s.try_split_n(3).err().expect("10 not divisible by 3");
        assert_eq!(back.estimate_size(), 10);
        let s2 = NZipSpliterator::over(plist(2));
        assert!(s2.try_split_n(3).is_err());
    }

    #[test]
    fn identity_collect_tie() {
        let _serial = crate::test_serial::shared();
        let pool = ForkJoinPool::new(2);
        let p = plist(27);
        let out = collect_nway_par(
            &pool,
            NTieSpliterator::over(p.clone()),
            Arc::new(PListCollector::new(NWayDecomposition::Tie)),
            3,
            1,
        );
        assert_eq!(out, p);
    }

    #[test]
    fn identity_collect_zip() {
        let _serial = crate::test_serial::shared();
        let pool = ForkJoinPool::new(3);
        let p = plist(27);
        let out = collect_nway_par(
            &pool,
            NZipSpliterator::over(p.clone()),
            Arc::new(PListCollector::new(NWayDecomposition::Zip)),
            3,
            1,
        );
        assert_eq!(out, p);
    }

    #[test]
    fn identity_collect_mixed_arities() {
        let _serial = crate::test_serial::shared();
        // Length 36 = 3 × 3 × 4: split 3-ways until leaves of 4.
        let pool = ForkJoinPool::new(2);
        let p = plist(36);
        let out = collect_nway_par(
            &pool,
            NZipSpliterator::over(p.clone()),
            Arc::new(PListCollector::new(NWayDecomposition::Zip)),
            3,
            4,
        );
        assert_eq!(out, p);
    }

    #[test]
    fn sequential_collect_matches() {
        let _serial = crate::test_serial::shared();
        let p = plist(12);
        let out = collect_nway_seq(
            NTieSpliterator::over(p.clone()),
            &PListCollector::new(NWayDecomposition::Tie),
        );
        assert_eq!(out, p);
    }

    #[test]
    fn mismatched_combiner_scrambles() {
        let _serial = crate::test_serial::shared();
        // zip-split + tie-combine permutes, like the binary case.
        let pool = ForkJoinPool::new(2);
        let p = plist(9);
        let out = collect_nway_par(
            &pool,
            NZipSpliterator::over(p.clone()),
            Arc::new(PListCollector::new(NWayDecomposition::Tie)),
            3,
            1,
        );
        assert_ne!(out, p);
        assert_eq!(out.as_slice(), &[0, 3, 6, 1, 4, 7, 2, 5, 8]);
    }

    #[test]
    fn leaf_size_larger_than_input() {
        let _serial = crate::test_serial::shared();
        let pool = ForkJoinPool::new(2);
        let p = plist(5);
        let out = collect_nway_par(
            &pool,
            NZipSpliterator::over(p.clone()),
            Arc::new(PListCollector::new(NWayDecomposition::Zip)),
            3,
            100,
        );
        assert_eq!(out, p);
    }
}
