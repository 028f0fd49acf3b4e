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
//! * [`try_collect_nway`] — the multi-way collect. It is an
//!   [`NaryTerminal`] on the split-tree walker ([`crate::walk`]), so it
//!   shares the session contract of every binary terminal: cancel,
//!   deadline, panic containment, pool fallback and plobs events.

use crate::characteristics::Characteristics;
use crate::collect::default_leaf_size;
use crate::exec::{ExecConfig, ExecError, ExecMode, ExecSession};
use crate::spliterator::ItemSource;
use crate::walk::{self, NaryTerminal};
use forkjoin::SplitPolicy;
use plobs::{Event, LeafRoute};
use powerlist::PList;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

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

impl<T> NDescriptor<T> {
    fn over(list: PList<T>) -> Self {
        let count = list.len();
        NDescriptor {
            data: Arc::new(list.into_vec()),
            start: 0,
            count,
            incr: 1,
            cursor: 0,
        }
    }

    fn remaining(&self) -> usize {
        self.count - self.cursor
    }

    /// The `n` parts of the remaining elements: contiguous blocks
    /// (`tie`), or residue classes mod `n` (`zip`). `None` when `n < 2`
    /// or `n` does not divide the remaining count.
    fn split_n(&self, n: usize, blocks: bool) -> Option<Vec<Self>> {
        let rem = self.remaining();
        if n < 2 || rem < n || !rem.is_multiple_of(n) {
            return None;
        }
        let m = rem / n;
        let base = self.start + self.cursor * self.incr;
        let (offset, incr) = if blocks {
            (m * self.incr, self.incr)
        } else {
            (self.incr, self.incr * n)
        };
        let part = |i: usize| NDescriptor {
            data: Arc::clone(&self.data),
            start: base + i * offset,
            count: m,
            incr,
            cursor: 0,
        };
        Some((0..n).map(part).collect())
    }
}

impl<T: Clone> NDescriptor<T> {
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
        NTieSpliterator {
            d: NDescriptor::over(list),
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
        match self.d.split_n(n, true) {
            Some(parts) => Ok(parts.into_iter().map(|d| NTieSpliterator { d }).collect()),
            None => Err(self),
        }
    }

    fn characteristics(&self) -> Characteristics {
        // A PList length need not be a power of two.
        Characteristics::powerlist_default().without(Characteristics::POWER2)
    }
}

/// *n*-way **zip** spliterator: splits into `n` residue classes.
pub struct NZipSpliterator<T> {
    d: NDescriptor<T>,
}

impl<T> NZipSpliterator<T> {
    /// Spliterator over all elements of a PList.
    pub fn over(list: PList<T>) -> Self {
        NZipSpliterator {
            d: NDescriptor::over(list),
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
        match self.d.split_n(n, false) {
            Some(parts) => Ok(parts.into_iter().map(|d| NZipSpliterator { d }).collect()),
            None => Err(self),
        }
    }

    fn characteristics(&self) -> Characteristics {
        // A PList length need not be a power of two.
        Characteristics::powerlist_default().without(Characteristics::POWER2)
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

/// The fallible n-way collect: splits `arity` ways (at least 2) per
/// level, drains leaves into the collector and regroups each split's
/// results with `combine_n`.
///
/// It runs on the split-tree walker ([`walk::submit_n`]) under one
/// [`ExecSession`], so it meets the contract of every other terminal:
/// panics in user code surface as [`ExecError::Panicked`], cancel tokens
/// and deadlines as [`ExecError::Cancelled`] /
/// [`ExecError::DeadlineExceeded`], and a shut-down or saturated pool
/// degrades to the sequential route with a recorded `Event::Fallback`.
/// `cfg`'s pool defaults to the global pool and its policy to
/// [`SplitPolicy::Fixed`] at [`default_leaf_size`]; the tuner is not
/// consulted. [`ExecMode::Seq`] and the fallback drain the whole source
/// as one contained leaf.
pub fn try_collect_nway<T, S, C>(
    source: S,
    collector: C,
    arity: usize,
    cfg: &ExecConfig,
) -> Result<C::Out, ExecError>
where
    T: Send + 'static,
    S: NWaySpliterator<T> + 'static,
    C: NWayCollector<T> + 'static,
    C::Acc: 'static,
{
    let session = ExecSession::new(cfg);
    let collector = Arc::new(collector);
    let terminal = NWayCollect {
        collector: Arc::clone(&collector),
        session: session.clone(),
        arity: arity.max(2),
        _source: PhantomData,
    };
    let pool = match cfg.mode() {
        ExecMode::Seq => None,
        ExecMode::Par => {
            let pool = walk::pool_of(cfg);
            match walk::fallback_reason(pool, cfg) {
                Some(reason) => {
                    plobs::emit(Event::Fallback { reason });
                    None
                }
                None => Some(pool),
            }
        }
    };
    let acc = match pool {
        None => session
            .check()
            .and_then(|()| session.run(|| terminal.leaf(source))),
        Some(pool) => {
            let policy = cfg.policy().unwrap_or_else(|| {
                SplitPolicy::Fixed(default_leaf_size(source.estimate_size(), pool.threads()))
            });
            walk::submit_n(pool, terminal, source, policy)
        }
    };
    acc.and_then(|acc| session.run(|| collector.finish(acc)))
        .map_err(|i| session.error_of(i))
}

/// The n-way collect's subtree protocol: a node is an n-way
/// spliterator, a leaf drains it into a fresh container, and a split's
/// containers merge through the collector's `combine_n`.
struct NWayCollect<T, S, C> {
    collector: Arc<C>,
    session: ExecSession,
    arity: usize,
    _source: PhantomData<fn(S) -> T>,
}

impl<T, S, C> NaryTerminal for NWayCollect<T, S, C>
where
    T: Send + 'static,
    S: NWaySpliterator<T> + 'static,
    C: NWayCollector<T> + 'static,
    C::Acc: 'static,
{
    type Node = S;
    type Out = C::Acc;
    type Cut = ();
    type Session = ExecSession;

    fn session(&self) -> &ExecSession {
        &self.session
    }

    fn exact_size(&self, source: &S) -> Option<usize> {
        source.exact_size()
    }

    fn split_n(&self, source: S) -> Result<(Vec<S>, ()), S> {
        source.try_split_n(self.arity).map(|parts| (parts, ()))
    }

    fn leaf(&self, mut source: S) -> C::Acc {
        let start = plobs::enabled().then(Instant::now);
        let mut acc = self.collector.supplier();
        let mut items = 0u64;
        source.for_each_remaining(&mut |x| {
            items += 1;
            self.collector.accumulate(&mut acc, x);
        });
        if let Some(start) = start {
            plobs::emit(Event::Leaf {
                route: LeafRoute::CloningDrain,
                items,
                ns: start.elapsed().as_nanos() as u64,
            });
        }
        acc
    }

    fn combine_n(&self, (): (), parts: Vec<C::Acc>) -> C::Acc {
        self.collector.combine_n(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkjoin::ForkJoinPool;

    /// A parallel config on a fresh pool of `threads` workers with a
    /// fixed leaf size.
    fn par(threads: usize, leaf: usize) -> ExecConfig {
        ExecConfig::par()
            .with_pool(Arc::new(ForkJoinPool::new(threads)))
            .with_leaf_size(leaf)
    }

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
        let p = plist(27);
        let out = try_collect_nway(
            NTieSpliterator::over(p.clone()),
            PListCollector::new(NWayDecomposition::Tie),
            3,
            &par(2, 1),
        )
        .unwrap();
        assert_eq!(out, p);
    }

    #[test]
    fn identity_collect_zip() {
        let _serial = crate::test_serial::shared();
        let p = plist(27);
        let out = try_collect_nway(
            NZipSpliterator::over(p.clone()),
            PListCollector::new(NWayDecomposition::Zip),
            3,
            &par(3, 1),
        )
        .unwrap();
        assert_eq!(out, p);
    }

    #[test]
    fn identity_collect_mixed_arities() {
        let _serial = crate::test_serial::shared();
        // Length 36 = 3 × 3 × 4: split 3-ways until leaves of 4.
        let p = plist(36);
        let out = try_collect_nway(
            NZipSpliterator::over(p.clone()),
            PListCollector::new(NWayDecomposition::Zip),
            3,
            &par(2, 4),
        )
        .unwrap();
        assert_eq!(out, p);
    }

    #[test]
    fn sequential_collect_matches() {
        let _serial = crate::test_serial::shared();
        let p = plist(12);
        let out = try_collect_nway(
            NTieSpliterator::over(p.clone()),
            PListCollector::new(NWayDecomposition::Tie),
            3,
            &ExecConfig::seq(),
        )
        .unwrap();
        assert_eq!(out, p);
    }

    #[test]
    fn mismatched_combiner_scrambles() {
        let _serial = crate::test_serial::shared();
        // zip-split + tie-combine permutes, like the binary case.
        let p = plist(9);
        let out = try_collect_nway(
            NZipSpliterator::over(p.clone()),
            PListCollector::new(NWayDecomposition::Tie),
            3,
            &par(2, 1),
        )
        .unwrap();
        assert_ne!(out, p);
        assert_eq!(out.as_slice(), &[0, 3, 6, 1, 4, 7, 2, 5, 8]);
    }

    #[test]
    fn leaf_size_larger_than_input() {
        let _serial = crate::test_serial::shared();
        let p = plist(5);
        let out = try_collect_nway(
            NZipSpliterator::over(p.clone()),
            PListCollector::new(NWayDecomposition::Zip),
            3,
            &par(2, 100),
        )
        .unwrap();
        assert_eq!(out, p);
    }
}
