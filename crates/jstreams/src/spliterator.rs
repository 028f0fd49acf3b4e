//! The `Spliterator` abstraction: Java's splittable iterator in Rust.
//!
//! Two traits split Java's single interface so that leaf processing can be
//! object-safe while splitting stays strongly typed:
//!
//! * [`ItemSource`] — the traversal half (`try_advance`,
//!   `for_each_remaining`, `estimate_size`): object safe, what a
//!   [`Collector`](crate::Collector)'s leaf override receives;
//! * [`Spliterator`] — adds `try_split` (returning `Self`, like Java's
//!   covariant `trySplit`) and `characteristics`.
//!
//! As in Java, `try_split` partitions off a **prefix** of the remaining
//! elements into the returned spliterator, leaving `self` with the
//! suffix; returning `None` means "too small to split" and the driver
//! processes the rest sequentially. One family of sources bends the
//! prefix rule: zip decomposition splits by *parity*, interleaving the
//! two halves. Such sources answer `false` from
//! [`Spliterator::prefix_splits`] so order-sensitive consumers (the
//! search driver's `find_first`) know not to derive encounter order
//! from split structure, and publish exact ranks through
//! [`Spliterator::encounter_rank`] instead.

use crate::characteristics::Characteristics;
use powerlist::{is_power_of_two, Error};

/// The traversal half of a spliterator (object safe).
pub trait ItemSource<T> {
    /// Runs `action` on the next element, if any; returns `false` at the
    /// end of the source.
    fn try_advance(&mut self, action: &mut dyn FnMut(T)) -> bool;

    /// Runs `action` on every remaining element. The default loops
    /// [`ItemSource::try_advance`]; sources override it for speed.
    ///
    /// This is the hook Section V of the paper highlights: splitting
    /// stops above singletons, and the remaining *sub-PowerList* is
    /// processed by this method — collectors may specialise what "process
    /// a leaf" means (e.g. run a sequential Horner at polynomial leaves).
    fn for_each_remaining(&mut self, action: &mut dyn FnMut(T)) {
        while self.try_advance(action) {}
    }

    /// Exact or estimated count of remaining elements. Exact whenever
    /// `SIZED` is advertised (all sources in this crate are).
    fn estimate_size(&self) -> usize;
}

/// Borrowed-leaf capability: lets the collect driver read a leaf's
/// remaining elements as a borrowed run instead of draining them through
/// per-element callbacks.
///
/// This is the zero-copy half of the leaf-phase contract (the other half
/// is [`Collector::leaf_strided`](crate::Collector::leaf_strided)): when
/// a source can expose its remaining elements as a strided run of
/// backing storage — the paper's `(list, start, end, incr)` leaf
/// descriptor, contiguous when `incr == 1` — the driver hands that run
/// to the collector's kernel and then calls [`LeafAccess::mark_drained`],
/// skipping the cloning drain entirely. All methods have defaults that
/// advertise no borrowed access, so adapter spliterators that transform
/// or truncate elements (map, filter, limit, skip) opt out with an empty
/// `impl`.
pub trait LeafAccess<T> {
    /// The remaining elements as a borrowed strided run `(items, step)`:
    /// the elements are `items[0], items[step], items[2*step], …` up to
    /// the end of `items`, whose last element is always included
    /// (`items.len() % step == 1` for `step > 1`). A contiguous run is
    /// `step == 1`. `None` (the default) when the source cannot expose
    /// storage at all.
    fn try_as_strided(&self) -> Option<(&[T], usize)> {
        None
    }

    /// Declares the remaining elements consumed after a borrowed-leaf
    /// kernel ran, so subsequent traversal observes an empty source. The
    /// default does nothing (correct for sources that never return
    /// `Some` above).
    fn mark_drained(&mut self) {}

    /// Fused-borrow leaf: run this leaf by borrowing the *underlying
    /// source's* run and driving a fused adapter chain push-style into
    /// `collector`'s accumulator, returning the finished accumulator and
    /// the number of items that reached it (survivors, for filtering
    /// chains). `None` declines the route — the default for every plain
    /// source and adapter; only
    /// [`FusedSpliterator`](crate::fused::FusedSpliterator) overrides
    /// it. Implementations must leave `self` drained on success.
    fn fused_leaf<C>(&mut self, _collector: &C) -> Option<(C::Acc, u64)>
    where
        C: crate::collector::Collector<T> + ?Sized,
        Self: Sized,
    {
        None
    }

    /// Fused-borrow **search** leaf: run this leaf by borrowing the
    /// underlying source's run and driving the fused adapter chain
    /// push-style into `visit`, stopping at the first element for which
    /// `visit` returns `true`. Returns `Some((stopped, delivered))` when
    /// the route was taken — `stopped` says whether the scan
    /// short-circuited, `delivered` counts the elements that reached
    /// `visit` (survivors, for filtering chains). `None` declines the
    /// route — the default for every plain source and adapter; only
    /// [`FusedSpliterator`](crate::fused::FusedSpliterator) overrides
    /// it. Implementations must leave `self` drained on a *full* scan;
    /// after a stop the source state is unspecified (the search driver
    /// abandons it).
    fn fused_search(&mut self, _visit: &mut dyn FnMut(&T) -> bool) -> Option<(bool, u64)> {
        None
    }

    /// Placement-capability probe: `true` when [`LeafAccess::fused_fill`]
    /// is guaranteed to succeed on this source *and every spliterator
    /// split from it*. The placement collect driver consults this once
    /// at the root — a leaf deep in a window-partitioned tree has no
    /// fallback, so the answer must be stable under `try_split`. The
    /// default is `false`; only
    /// [`FusedSpliterator`](crate::fused::FusedSpliterator) (over an
    /// exact, filter-free chain and a borrowable source) answers `true`.
    fn can_fused_fill(&self) -> bool {
        false
    }

    /// Fused-borrow **placement** leaf: drives the fused adapter chain
    /// push-style over the borrowed source run, delivering every
    /// transformed element to `sink` in encounter order, and returns
    /// the count delivered. Only meaningful for *exact* (filter-free)
    /// chains, where the count equals the source run's length — the
    /// precondition [`LeafAccess::can_fused_fill`] advertises. `None`
    /// declines the route (the default). Implementations must leave
    /// `self` drained on success.
    ///
    /// Generic over the sink so the chain and the placement window's
    /// typed slot sink inline into one loop; `&mut dyn FnMut(T)` still
    /// works as a sink where a dynamic one is needed.
    fn fused_fill<F: FnMut(T)>(&mut self, _sink: F) -> Option<u64>
    where
        Self: Sized,
    {
        None
    }
}

/// A splittable source of elements (Java's `Spliterator`).
pub trait Spliterator<T>: ItemSource<T> + LeafAccess<T> + Send + Sized {
    /// Splits off a prefix into a new spliterator, leaving `self` with
    /// the suffix; `None` when the source is too small to split.
    fn try_split(&mut self) -> Option<Self>;

    /// Structural properties of this source.
    fn characteristics(&self) -> Characteristics;

    /// `true` when all flags in `c` are advertised.
    fn has_characteristics(&self, c: Characteristics) -> bool {
        self.characteristics().contains(c)
    }

    /// `true` when every `try_split` cuts an encounter-order **prefix**:
    /// all elements of the returned spliterator precede all elements
    /// left in `self`. This is the module-level `try_split` contract and
    /// the default; interleaving splitters (zip: evens vs odds) return
    /// `false`, and adapters must forward their source's answer because
    /// they split by splitting the source.
    ///
    /// Consumers that derive encounter order from split *structure* —
    /// the search driver's virtual-index bookkeeping for `find_first` —
    /// are only sound over prefix-splitting sources; over interleaving
    /// sources they must key on [`Spliterator::encounter_rank`] or fall
    /// back to an ordered sequential scan.
    fn prefix_splits(&self) -> bool {
        true
    }

    /// Splits off an encounter-order **prefix** of about half the
    /// remaining elements, leaving `self` with the suffix — even when
    /// [`Spliterator::try_split`] interleaves. `None` when the source
    /// is too small or cannot cut prefixes. The default is `try_split`
    /// for prefix-splitting sources and `None` otherwise.
    ///
    /// Placement collects use it on interleaving sources collected by
    /// an interleaving combiner: there the zip split and the zip
    /// recombination cancel out, so the tree can be cut into
    /// encounter-order blocks instead. An interleaving source that
    /// overrides this therefore promises that its `try_split` is the
    /// parity split (even positions to the returned half), and that
    /// both halves answer `try_split_prefix` in turn.
    fn try_split_prefix(&mut self) -> Option<Self> {
        if self.prefix_splits() {
            self.try_split()
        } else {
            None
        }
    }

    /// Exact encounter-order locator for the remaining elements:
    /// `Some((base, step))` when the `j`-th remaining element sits at
    /// rank `base + j·step` of the **root source's** encounter order, in
    /// a keyspace consistent across every spliterator split from the
    /// same root (descriptor-backed sources report physical storage
    /// indices, which are monotone in encounter order). `None` (the
    /// default) when ranks are unknown — e.g. behind a filtering chain,
    /// where delivered positions no longer map to source positions.
    ///
    /// Implementations must preserve rank-ness under `try_split`: if a
    /// spliterator reports `Some`, both halves of a split report `Some`
    /// in the same keyspace. This is what lets `find_first` stay
    /// parallel (and keep pruning) over zip-decomposed sources.
    fn encounter_rank(&self) -> Option<(usize, usize)> {
        None
    }

    /// The remaining element count, but only when it is *exact*:
    /// `Some(estimate_size())` iff the source advertises
    /// [`Characteristics::SIZED`], `None` otherwise.
    ///
    /// `estimate_size` on a non-SIZED source (a `filter` chain, a `skip`
    /// residue) is an **upper bound** — consumers that stop splitting or
    /// pick leaf granularity from the size must use this method instead,
    /// so an upper bound can never masquerade as a real size and
    /// serialize surviving work into one oversized leaf. This is the
    /// single place the SIZED gate lives; callers match on the `Option`
    /// rather than re-checking characteristics.
    fn exact_size(&self) -> Option<usize> {
        if self.has_characteristics(Characteristics::SIZED) {
            Some(self.estimate_size())
        } else {
            None
        }
    }
}

/// Verifies the `POWER2` contract of a spliterator: the flag must be
/// advertised *and* the current size must actually be a power of two.
///
/// The paper performs this check before running a PowerList function on a
/// stream ("for this spliterator we verify that it has the Power2
/// characteristics"). Returns the offending length on failure.
pub fn require_power2<T, S: Spliterator<T>>(s: &S) -> Result<(), Error> {
    let n = s.estimate_size();
    if !s.has_characteristics(Characteristics::POWER2) || !is_power_of_two(n) {
        if n == 0 {
            return Err(Error::Empty);
        }
        return Err(Error::NotPowerOfTwo(n));
    }
    Ok(())
}

/// Validates a raw `(start, end, incr)` descriptor (inclusive `end`)
/// against a backing storage of `len` elements — the checked counterpart
/// of the asserts in `TieSpliterator::from_parts` /
/// `ZipSpliterator::from_parts`, used by their `try_from_parts`
/// constructors.
pub fn check_descriptor(len: usize, start: usize, end: usize, incr: usize) -> Result<(), Error> {
    if incr == 0 {
        return Err(Error::ZeroIncrement);
    }
    if start > end {
        // An inverted descriptor denotes an empty run, which the
        // PowerList theory excludes.
        return Err(Error::Empty);
    }
    if end >= len {
        return Err(Error::DescriptorOutOfBounds { end, len });
    }
    Ok(())
}

/// A spliterator over an arbitrary vector, splitting linearly "in
/// segments" — the default Java behaviour the paper contrasts with
/// (Section IV.A: "By default, the partitioning is performed linearly,
/// in segments, which is somehow similar to the operator tie").
pub struct SliceSpliterator<T> {
    data: std::sync::Arc<Vec<T>>,
    lo: usize,
    hi: usize, // exclusive
}

impl<T> SliceSpliterator<T> {
    /// Spliterator over all elements of `data`.
    pub fn new(data: Vec<T>) -> Self {
        SliceSpliterator::shared(std::sync::Arc::new(data))
    }

    /// Spliterator over shared storage — lets repeated runs (benchmarks,
    /// retries) traverse the same buffer without re-copying it.
    pub fn shared(data: std::sync::Arc<Vec<T>>) -> Self {
        let hi = data.len();
        SliceSpliterator { data, lo: 0, hi }
    }
}

impl<T: Clone> ItemSource<T> for SliceSpliterator<T> {
    fn try_advance(&mut self, action: &mut dyn FnMut(T)) -> bool {
        if self.lo == self.hi {
            return false;
        }
        action(self.data[self.lo].clone());
        self.lo += 1;
        true
    }

    fn for_each_remaining(&mut self, action: &mut dyn FnMut(T)) {
        for i in self.lo..self.hi {
            action(self.data[i].clone());
        }
        self.lo = self.hi;
    }

    fn estimate_size(&self) -> usize {
        self.hi - self.lo
    }
}

impl<T> LeafAccess<T> for SliceSpliterator<T> {
    fn try_as_strided(&self) -> Option<(&[T], usize)> {
        Some((&self.data[self.lo..self.hi], 1))
    }

    fn mark_drained(&mut self) {
        self.lo = self.hi;
    }
}

impl<T: Clone + Send + Sync> Spliterator<T> for SliceSpliterator<T> {
    fn try_split(&mut self) -> Option<Self> {
        let n = self.hi - self.lo;
        if n < 2 {
            return None;
        }
        let mid = self.lo + n / 2;
        let prefix = SliceSpliterator {
            data: std::sync::Arc::clone(&self.data),
            lo: self.lo,
            hi: mid,
        };
        self.lo = mid;
        Some(prefix)
    }

    fn encounter_rank(&self) -> Option<(usize, usize)> {
        Some((self.lo, 1))
    }

    fn characteristics(&self) -> Characteristics {
        Characteristics::ORDERED
            | Characteristics::SIZED
            | Characteristics::SUBSIZED
            | Characteristics::IMMUTABLE
            | Characteristics::NONNULL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T, S: ItemSource<T>>(s: &mut S) -> Vec<T> {
        let mut out = vec![];
        s.for_each_remaining(&mut |x| out.push(x));
        out
    }

    #[test]
    fn slice_spliterator_traverses() {
        let mut s = SliceSpliterator::new(vec![1, 2, 3]);
        assert_eq!(s.estimate_size(), 3);
        assert_eq!(drain(&mut s), vec![1, 2, 3]);
        assert_eq!(s.estimate_size(), 0);
        assert!(!s.try_advance(&mut |_| {}));
    }

    #[test]
    fn slice_split_is_segment_wise() {
        let mut s = SliceSpliterator::new(vec![1, 2, 3, 4, 5, 6]);
        let mut prefix = s.try_split().expect("splittable");
        assert_eq!(drain(&mut prefix), vec![1, 2, 3]);
        assert_eq!(drain(&mut s), vec![4, 5, 6]);
    }

    #[test]
    fn slice_split_stops_at_one() {
        let mut s = SliceSpliterator::new(vec![9]);
        assert!(s.try_split().is_none());
        assert_eq!(drain(&mut s), vec![9]);
    }

    #[test]
    fn slice_split_odd_length() {
        let mut s = SliceSpliterator::new(vec![1, 2, 3, 4, 5]);
        let mut prefix = s.try_split().unwrap();
        let a = drain(&mut prefix);
        let b = drain(&mut s);
        assert_eq!(a.len() + b.len(), 5);
        assert_eq!(a, vec![1, 2]);
        assert_eq!(b, vec![3, 4, 5]);
    }

    #[test]
    fn slice_has_no_power2() {
        let s = SliceSpliterator::new(vec![1, 2, 3, 4]);
        assert!(!s.has_characteristics(Characteristics::POWER2));
        assert!(s.has_characteristics(Characteristics::SIZED));
        assert!(require_power2(&s).is_err());
    }

    #[test]
    fn try_advance_one_at_a_time() {
        let mut s = SliceSpliterator::new(vec![7, 8]);
        let mut seen = vec![];
        assert!(s.try_advance(&mut |x| seen.push(x)));
        assert_eq!(s.estimate_size(), 1);
        assert!(s.try_advance(&mut |x| seen.push(x)));
        assert!(!s.try_advance(&mut |x| seen.push(x)));
        assert_eq!(seen, vec![7, 8]);
    }
}
