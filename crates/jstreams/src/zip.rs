//! `ZipSpliterator`: splits a PowerList source like the **zip** operator.
//!
//! `try_split` partitions the remaining elements by parity: the returned
//! prefix takes the even positions (the `p` of `p ♮ q`, starting at the
//! current cursor), `self` keeps the odd positions, and both strides
//! double — exactly the paper's `trySplit`:
//!
//! ```java
//! int lo = start; int step = incr;
//! if (start + step <= end) {
//!     incr *= 2;
//!     start += step;
//!     return new ZipSpliterator(list, lo, end - step, incr);
//! } else return null; // too small to split
//! ```
//!
//! A zip-decomposed source "could not be recreated by using simple
//! concatenation" (Section IV.A): collectors draining this spliterator
//! must recombine partial results with
//! [`PowerArray::zip_all`](powerlist::PowerArray::zip_all).
//!
//! [`HookedZipSpliterator`] adds the paper's splitting-phase mechanism:
//! per-spliterator local state transformed on every split (the inner-class
//! `PZipSpliterator` carrying `x_degree`), with shared state reachable
//! from the hook closure.

use crate::characteristics::Characteristics;
use crate::spliterator::{ItemSource, LeafAccess, Spliterator};
use powerlist::{PowerList, PowerView, Storage};
use std::sync::Arc;

/// Spliterator decomposing a power-of-two source by parity (zip).
///
/// Carries the paper's `(list, start, end, incr)` descriptor with
/// **inclusive** `end`.
pub struct ZipSpliterator<T> {
    storage: Storage<T>,
    start: usize,
    end: usize, // inclusive physical index of the last element
    incr: usize,
    level: u32,
    exhausted: bool,
}

impl<T> ZipSpliterator<T> {
    /// Spliterator over a whole PowerList.
    pub fn over(list: PowerList<T>) -> Self {
        let view = list.view();
        Self::from_view(&view)
    }

    /// Spliterator over an existing no-copy view.
    pub fn from_view(view: &PowerView<T>) -> Self {
        ZipSpliterator {
            storage: view.storage(),
            start: view.start(),
            end: view.start() + (view.len() - 1) * view.incr(),
            incr: view.incr().max(1),
            level: 0,
            exhausted: false,
        }
    }

    /// Raw descriptor constructor (inclusive `end`), mirroring the
    /// paper's `new ZipSpliterator<Double>(list, 0, list.size()-1)`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid descriptor; use
    /// [`ZipSpliterator::try_from_parts`] for untrusted inputs.
    pub fn from_parts(storage: Storage<T>, start: usize, end: usize, incr: usize) -> Self {
        assert!(incr >= 1, "increment must be at least 1");
        assert!(start <= end, "start must not exceed end");
        assert!(end < storage.len(), "end out of bounds");
        ZipSpliterator {
            storage,
            start,
            end,
            incr,
            level: 0,
            exhausted: false,
        }
    }

    /// Checked descriptor constructor: validates the `(start, end, incr)`
    /// triple and returns a [`powerlist::Error`] instead of panicking —
    /// the shape-error route of the fallible execution surface.
    pub fn try_from_parts(
        storage: Storage<T>,
        start: usize,
        end: usize,
        incr: usize,
    ) -> powerlist::Result<Self> {
        crate::spliterator::check_descriptor(storage.len(), start, end, incr)?;
        Ok(Self::from_parts(storage, start, end, incr))
    }

    /// Number of splits that produced this spliterator.
    pub fn level(&self) -> u32 {
        self.level
    }

    fn remaining(&self) -> usize {
        if self.exhausted {
            0
        } else {
            (self.end - self.start) / self.incr + 1
        }
    }
}

impl<T: Clone> ItemSource<T> for ZipSpliterator<T> {
    fn try_advance(&mut self, action: &mut dyn FnMut(T)) -> bool {
        if self.exhausted {
            return false;
        }
        action(self.storage.get(self.start).clone());
        if self.start + self.incr > self.end {
            self.exhausted = true;
        } else {
            self.start += self.incr;
        }
        true
    }

    fn for_each_remaining(&mut self, action: &mut dyn FnMut(T)) {
        if self.exhausted {
            return;
        }
        let mut i = self.start;
        loop {
            action(self.storage.get(i).clone());
            if i + self.incr > self.end {
                break;
            }
            i += self.incr;
        }
        self.exhausted = true;
    }

    fn estimate_size(&self) -> usize {
        self.remaining()
    }
}

impl<T> LeafAccess<T> for ZipSpliterator<T> {
    // Before any split the run is contiguous (`step == 1`); after zip
    // splits each residue class has stride > 1, and the borrow must
    // carry it — storage order is not residue order (the contract the
    // edge-case tests pin down).
    fn try_as_strided(&self) -> Option<(&[T], usize)> {
        if self.exhausted {
            Some((&[], 1))
        } else {
            Some((&self.storage.as_slice()[self.start..=self.end], self.incr))
        }
    }

    fn mark_drained(&mut self) {
        self.exhausted = true;
    }
}

impl<T: Clone + Send + Sync> Spliterator<T> for ZipSpliterator<T> {
    fn try_split(&mut self) -> Option<Self> {
        // Paper: `if (start + step <= end)` — at least two elements left.
        if self.exhausted || self.start + self.incr > self.end {
            return None;
        }
        let lo = self.start;
        let step = self.incr;
        self.level += 1;
        self.incr *= 2;
        self.start += step;
        Some(ZipSpliterator {
            storage: self.storage.clone(),
            start: lo,
            end: self.end - step,
            incr: self.incr,
            level: self.level,
            exhausted: false,
        })
    }

    fn characteristics(&self) -> Characteristics {
        Characteristics::powerlist_default()
    }

    // Parity splits interleave the halves: the returned "prefix" holds
    // the even positions, not an encounter-order prefix.
    fn prefix_splits(&self) -> bool {
        false
    }

    // The block cut: the first `m/2` elements of the residue class in
    // encounter order. Both halves keep the stride, so each is still a
    // strided run (`items.len() % incr == 1`) whose rank is
    // `(start, incr)` in the root keyspace.
    fn try_split_prefix(&mut self) -> Option<Self> {
        let m = self.remaining();
        if m < 2 {
            return None;
        }
        let k = m / 2;
        let lo = self.start;
        self.level += 1;
        self.start += k * self.incr;
        Some(ZipSpliterator {
            storage: self.storage.clone(),
            start: lo,
            end: lo + (k - 1) * self.incr,
            incr: self.incr,
            level: self.level,
            exhausted: false,
        })
    }

    // Physical storage indices are monotone in the original list's
    // encounter order, and both halves of every split keep addressing
    // the same storage — the rank keyspace order-sensitive terminals
    // (find_first) need under interleaving.
    fn encounter_rank(&self) -> Option<(usize, usize)> {
        Some((self.start, self.incr))
    }
}

/// A [`ZipSpliterator`] with splitting-phase state: the Rust rendering of
/// the paper's specialised inner-class spliterator.
///
/// `local` is per-spliterator state (the paper's per-instance
/// `x_degree`); on every split the `hook` runs with mutable access to it
/// and produces the local state for the split-off prefix. Shared,
/// synchronised state (the outer `functionObject` of the paper's general
/// mechanism) is captured inside the hook closure, typically as a
/// [`SharedState`](crate::SharedState).
pub struct HookedZipSpliterator<T, L> {
    base: ZipSpliterator<T>,
    local: L,
    hook: Arc<dyn Fn(&mut L) -> L + Send + Sync>,
}

impl<T, L> HookedZipSpliterator<T, L> {
    /// Wraps a zip spliterator with initial local state and a split hook.
    pub fn new(
        base: ZipSpliterator<T>,
        local: L,
        hook: Arc<dyn Fn(&mut L) -> L + Send + Sync>,
    ) -> Self {
        HookedZipSpliterator { base, local, hook }
    }

    /// The current local state.
    pub fn local(&self) -> &L {
        &self.local
    }

    /// The split level of the underlying spliterator.
    pub fn level(&self) -> u32 {
        self.base.level()
    }
}

impl<T: Clone, L> ItemSource<T> for HookedZipSpliterator<T, L> {
    fn try_advance(&mut self, action: &mut dyn FnMut(T)) -> bool {
        self.base.try_advance(action)
    }

    fn for_each_remaining(&mut self, action: &mut dyn FnMut(T)) {
        self.base.for_each_remaining(action)
    }

    fn estimate_size(&self) -> usize {
        self.base.estimate_size()
    }
}

impl<T, L> LeafAccess<T> for HookedZipSpliterator<T, L> {
    fn try_as_strided(&self) -> Option<(&[T], usize)> {
        self.base.try_as_strided()
    }

    fn mark_drained(&mut self) {
        self.base.mark_drained();
    }
}

impl<T, L> Spliterator<T> for HookedZipSpliterator<T, L>
where
    T: Clone + Send + Sync,
    L: Send,
{
    fn try_split(&mut self) -> Option<Self> {
        let prefix = self.base.try_split()?;
        // Run the splitting-phase work: mutate our local state and derive
        // the prefix's. (In the paper both halves observe the doubled
        // x_degree; hooks implement that by mutate-then-clone.)
        let prefix_local = (self.hook)(&mut self.local);
        Some(HookedZipSpliterator {
            base: prefix,
            local: prefix_local,
            hook: Arc::clone(&self.hook),
        })
    }

    fn characteristics(&self) -> Characteristics {
        self.base.characteristics()
    }

    fn prefix_splits(&self) -> bool {
        self.base.prefix_splits()
    }

    // `try_split_prefix` keeps the `None` default: the hook is defined
    // on parity splits (the paper's `x_degree` doubles per zip level),
    // so a block cut would hand it state that means nothing.

    fn encounter_rank(&self) -> Option<(usize, usize)> {
        self.base.encounter_rank()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spliterator::require_power2;
    use powerlist::tabulate;

    #[test]
    fn try_from_parts_validates_descriptor() {
        let storage = Storage::new(vec![0, 1, 2, 3]);
        assert_eq!(
            ZipSpliterator::try_from_parts(storage.clone(), 0, 3, 0).err(),
            Some(powerlist::Error::ZeroIncrement)
        );
        assert_eq!(
            ZipSpliterator::try_from_parts(storage.clone(), 2, 0, 1).err(),
            Some(powerlist::Error::Empty)
        );
        assert_eq!(
            ZipSpliterator::try_from_parts(storage.clone(), 1, 7, 2).err(),
            Some(powerlist::Error::DescriptorOutOfBounds { end: 7, len: 4 })
        );
        let mut ok = ZipSpliterator::try_from_parts(storage, 0, 3, 1).unwrap();
        assert_eq!(drain(&mut ok), vec![0, 1, 2, 3]);
    }

    fn drain<T, S: ItemSource<T>>(s: &mut S) -> Vec<T> {
        let mut out = vec![];
        s.for_each_remaining(&mut |x| out.push(x));
        out
    }

    fn spl(n: usize) -> ZipSpliterator<usize> {
        ZipSpliterator::over(tabulate(n, |i| i).unwrap())
    }

    #[test]
    fn traverses_in_order() {
        let mut s = spl(8);
        assert_eq!(s.estimate_size(), 8);
        assert_eq!(drain(&mut s), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn split_gives_even_positions() {
        let mut s = spl(8);
        let mut prefix = s.try_split().unwrap();
        assert_eq!(drain(&mut prefix), vec![0, 2, 4, 6]);
        assert_eq!(drain(&mut s), vec![1, 3, 5, 7]);
    }

    #[test]
    fn recursive_zip_splits() {
        // Two levels of zip splitting on [0..8): residue classes mod 4.
        let mut s = spl(8);
        let mut even = s.try_split().unwrap();
        let mut ee = even.try_split().unwrap();
        let mut oo = s.try_split().unwrap();
        assert_eq!(drain(&mut ee), vec![0, 4]); // ≡ 0 (mod 4)
        assert_eq!(drain(&mut even), vec![2, 6]); // ≡ 2 (mod 4)
        assert_eq!(drain(&mut oo), vec![1, 5]); // ≡ 1 (mod 4)
        assert_eq!(drain(&mut s), vec![3, 7]); // ≡ 3 (mod 4)
    }

    #[test]
    fn singleton_does_not_split() {
        let mut s = spl(1);
        assert!(s.try_split().is_none());
        assert_eq!(drain(&mut s), vec![0]);
    }

    #[test]
    fn advertises_power2() {
        let s = spl(4);
        assert!(require_power2(&s).is_ok());
    }

    #[test]
    fn levels_track_depth() {
        let mut s = spl(8);
        assert_eq!(s.level(), 0);
        let p = s.try_split().unwrap();
        assert_eq!(p.level(), 1);
        assert_eq!(s.level(), 1);
        let mut p = p;
        let q = p.try_split().unwrap();
        assert_eq!(q.level(), 2);
    }

    #[test]
    fn hooked_split_transforms_local_state() {
        // Model the polynomial x_degree: local doubles on each split and
        // both halves see the doubled value.
        let base = spl(8);
        let hook: Arc<dyn Fn(&mut u64) -> u64 + Send + Sync> = Arc::new(|local| {
            *local *= 2;
            *local
        });
        let mut h = HookedZipSpliterator::new(base, 1u64, hook);
        let mut left = h.try_split().unwrap();
        assert_eq!(*h.local(), 2);
        assert_eq!(*left.local(), 2);
        let l2 = left.try_split().unwrap();
        assert_eq!(*left.local(), 4);
        assert_eq!(*l2.local(), 4);
        // h was split once: its local stays 2 until it splits again.
        assert_eq!(*h.local(), 2);
    }

    #[test]
    fn hooked_shared_state_sees_max_level() {
        use parking_lot::Mutex;
        let shared = Arc::new(Mutex::new(1u64));
        let s2 = Arc::clone(&shared);
        let hook: Arc<dyn Fn(&mut u64) -> u64 + Send + Sync> = Arc::new(move |local| {
            *local *= 2;
            let mut g = s2.lock();
            if *g < *local {
                *g = *local; // synchronized max-update from the paper
            }
            *local
        });
        let mut h = HookedZipSpliterator::new(spl(8), 1u64, hook);
        let mut a = h.try_split().unwrap();
        let _ = a.try_split().unwrap();
        let _ = h.try_split().unwrap();
        assert_eq!(*shared.lock(), 4);
    }

    /// Block-cuts `s` down to singletons with `try_split_prefix`,
    /// checking at every node that the strided-run contract holds, that
    /// `encounter_rank` names the run's first element (values equal
    /// their physical index here) and that each cut halves the node.
    /// Appends the leaves' elements to `out` in tree order.
    fn check_block_tree(mut s: ZipSpliterator<usize>, out: &mut Vec<usize>) {
        let (base, step) = s.encounter_rank().expect("zip nodes carry ranks");
        let (items, stride) = s.try_as_strided().expect("zip nodes borrow");
        assert_eq!(stride, step, "the run's stride is the rank step");
        assert!(step == 1 || items.len() % step == 1, "strided-run contract");
        let run: Vec<usize> = items.iter().step_by(step).copied().collect();
        assert_eq!(run.len(), s.estimate_size());
        assert_eq!(run[0], base, "rank base is the first element's index");
        match s.try_split_prefix() {
            Some(prefix) => {
                assert_eq!(prefix.estimate_size(), run.len() / 2);
                assert_eq!(prefix.estimate_size() + s.estimate_size(), run.len());
                check_block_tree(prefix, out);
                check_block_tree(s, out);
            }
            None => {
                assert_eq!(run.len(), 1, "only singletons refuse a block cut");
                out.extend(drain(&mut s));
            }
        }
    }

    #[test]
    fn prefix_cuts_partition_encounter_order_at_every_depth() {
        for n in [1usize, 2, 4, 8, 64] {
            let mut out = vec![];
            check_block_tree(spl(n), &mut out);
            assert_eq!(out, (0..n).collect::<Vec<_>>(), "n={n}");
        }
        // Inside a residue class (after parity splits) the blocks stay
        // strided and still partition that class in encounter order.
        let mut s = spl(32);
        let mut evens = s.try_split().unwrap();
        let zero_mod_4 = evens.try_split().unwrap();
        for (class, expect) in [
            (zero_mod_4, (0..32).step_by(4).collect::<Vec<_>>()),
            (evens, (2..32).step_by(4).collect()),
            (s, (1..32).step_by(2).collect()),
        ] {
            let mut out = vec![];
            check_block_tree(class, &mut out);
            assert_eq!(out, expect);
        }
        // Non-power-of-two descriptors cut floor/ceil.
        let mut odd = ZipSpliterator::from_parts(Storage::new((0..5).collect()), 0, 4, 1);
        let mut prefix = odd.try_split_prefix().unwrap();
        assert_eq!(drain(&mut prefix), vec![0, 1]);
        assert_eq!(drain(&mut odd), vec![2, 3, 4]);
    }

    #[test]
    fn drained_or_singleton_sources_refuse_prefix_cuts() {
        let mut one = spl(1);
        assert!(one.try_split_prefix().is_none());
        let mut s = spl(4);
        s.mark_drained();
        assert!(s.try_split_prefix().is_none());
    }

    #[test]
    fn hooked_zip_keeps_parity_splits_only() {
        let hook: Arc<dyn Fn(&mut u64) -> u64 + Send + Sync> = Arc::new(|local| {
            *local *= 2;
            *local
        });
        let mut h = HookedZipSpliterator::new(spl(8), 1u64, hook);
        assert!(
            h.try_split_prefix().is_none(),
            "the hook is defined on parity splits"
        );
        assert_eq!(*h.local(), 1, "a refused cut runs no hook");
        assert_eq!(drain(&mut h), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn zip_then_drain_partial() {
        let mut s = spl(4);
        let mut first = None;
        s.try_advance(&mut |x| first = Some(x));
        assert_eq!(first, Some(0));
        assert_eq!(drain(&mut s), vec![1, 2, 3]);
    }
}
