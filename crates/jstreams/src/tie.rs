//! `TieSpliterator`: splits a PowerList source like the **tie** operator.
//!
//! Each `try_split` hands off the first half of the remaining elements —
//! the `p` of `p | q` — as the returned spliterator and keeps the second
//! half. This coincides with Java's default segment-wise splitting (the
//! paper notes the default "is somehow similar to the operator tie"), but
//! the explicit class advertises `POWER2` and carries the split level for
//! splitting-phase hooks.

use crate::characteristics::Characteristics;
use crate::spliterator::{ItemSource, LeafAccess, Spliterator};
use powerlist::{PowerList, PowerView, Storage};

/// Spliterator decomposing a power-of-two source by halving (tie).
///
/// State is the paper's descriptor: shared storage plus
/// `(start, end, incr)` with **inclusive** `end`, exactly as the
/// `ZipSpliterator(list, 0, list.size()-1)` constructor of Section IV.A.
pub struct TieSpliterator<T> {
    storage: Storage<T>,
    start: usize,
    end: usize, // inclusive physical index of the last element
    incr: usize,
    level: u32,
    exhausted: bool,
}

impl<T> TieSpliterator<T> {
    /// Spliterator over a whole PowerList.
    pub fn over(list: PowerList<T>) -> Self {
        let view = list.view();
        Self::from_view(&view)
    }

    /// Spliterator over an existing no-copy view.
    pub fn from_view(view: &PowerView<T>) -> Self {
        TieSpliterator {
            storage: view.storage(),
            start: view.start(),
            end: view.start() + (view.len() - 1) * view.incr(),
            incr: view.incr().max(1),
            level: 0,
            exhausted: false,
        }
    }

    /// Raw descriptor constructor (paper-style `(list, start, end, incr)`
    /// with inclusive `end`).
    ///
    /// # Panics
    ///
    /// Panics on an invalid descriptor; use
    /// [`TieSpliterator::try_from_parts`] for untrusted inputs.
    pub fn from_parts(storage: Storage<T>, start: usize, end: usize, incr: usize) -> Self {
        assert!(incr >= 1, "increment must be at least 1");
        assert!(start <= end, "start must not exceed end");
        assert!(end < storage.len(), "end out of bounds");
        TieSpliterator {
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

    /// How many `try_split`s produced this spliterator (the tree depth of
    /// the corresponding divide-and-conquer node).
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

impl<T: Clone> ItemSource<T> for TieSpliterator<T> {
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

impl<T> LeafAccess<T> for TieSpliterator<T> {
    // A tie run over a stride-1 view is a contiguous slab of the shared
    // storage (`step == 1`); strided views (built from an unzipped
    // PowerView) keep their stride.
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

impl<T: Clone + Send + Sync> Spliterator<T> for TieSpliterator<T> {
    fn try_split(&mut self) -> Option<Self> {
        let n = self.remaining();
        if n < 2 {
            return None;
        }
        let half = n / 2;
        self.level += 1;
        let prefix = TieSpliterator {
            storage: self.storage.clone(),
            start: self.start,
            end: self.start + (half - 1) * self.incr,
            incr: self.incr,
            level: self.level,
            exhausted: false,
        };
        // self keeps the suffix (the `q` of p | q).
        self.start += half * self.incr;
        Some(prefix)
    }

    fn characteristics(&self) -> Characteristics {
        Characteristics::powerlist_default()
    }

    // Physical storage indices, monotone in encounter order — the same
    // keyspace ZipSpliterator reports, so tie- and zip-derived leaves of
    // a shared storage rank consistently.
    fn encounter_rank(&self) -> Option<(usize, usize)> {
        Some((self.start, self.incr))
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
            TieSpliterator::try_from_parts(storage.clone(), 0, 3, 0).err(),
            Some(powerlist::Error::ZeroIncrement)
        );
        assert_eq!(
            TieSpliterator::try_from_parts(storage.clone(), 3, 1, 1).err(),
            Some(powerlist::Error::Empty)
        );
        assert_eq!(
            TieSpliterator::try_from_parts(storage.clone(), 0, 4, 1).err(),
            Some(powerlist::Error::DescriptorOutOfBounds { end: 4, len: 4 })
        );
        let mut ok = TieSpliterator::try_from_parts(storage, 0, 3, 1).unwrap();
        assert_eq!(drain(&mut ok), vec![0, 1, 2, 3]);
    }

    fn drain<T: Clone>(s: &mut TieSpliterator<T>) -> Vec<T> {
        let mut out = vec![];
        s.for_each_remaining(&mut |x| out.push(x));
        out
    }

    fn spl(n: usize) -> TieSpliterator<usize> {
        TieSpliterator::over(tabulate(n, |i| i).unwrap())
    }

    #[test]
    fn traverses_in_order() {
        let mut s = spl(8);
        assert_eq!(s.estimate_size(), 8);
        assert_eq!(drain(&mut s), (0..8).collect::<Vec<_>>());
        assert_eq!(s.estimate_size(), 0);
    }

    #[test]
    fn split_gives_first_half() {
        let mut s = spl(8);
        let mut prefix = s.try_split().unwrap();
        assert_eq!(prefix.level(), 1);
        assert_eq!(s.level(), 1);
        assert_eq!(drain(&mut prefix), vec![0, 1, 2, 3]);
        assert_eq!(drain(&mut s), vec![4, 5, 6, 7]);
    }

    #[test]
    fn recursive_splits_reach_singletons() {
        let mut s = spl(4);
        let mut l = s.try_split().unwrap();
        let mut ll = l.try_split().unwrap();
        let mut sr = s.try_split().unwrap();
        assert_eq!(drain(&mut ll), vec![0]);
        assert_eq!(drain(&mut l), vec![1]);
        assert_eq!(drain(&mut sr), vec![2]);
        assert_eq!(drain(&mut s), vec![3]);
    }

    #[test]
    fn singleton_does_not_split() {
        let mut s = spl(1);
        assert!(s.try_split().is_none());
        assert_eq!(drain(&mut s), vec![0]);
        assert!(s.try_split().is_none());
    }

    #[test]
    fn advertises_power2() {
        let s = spl(16);
        assert!(s.has_characteristics(Characteristics::POWER2));
        assert!(require_power2(&s).is_ok());
    }

    #[test]
    fn partial_traversal_then_split() {
        let mut s = spl(8);
        let mut first = None;
        s.try_advance(&mut |x| first = Some(x));
        assert_eq!(first, Some(0));
        // 7 remain; split hands off the first 3.
        let mut prefix = s.try_split().unwrap();
        assert_eq!(drain(&mut prefix), vec![1, 2, 3]);
        assert_eq!(drain(&mut s), vec![4, 5, 6, 7]);
    }

    #[test]
    fn from_view_respects_stride() {
        let p = tabulate(8, |i| i).unwrap();
        let v = p.view();
        let (even, _) = v.unzip().unwrap();
        let mut s = TieSpliterator::from_view(&even);
        assert_eq!(s.estimate_size(), 4);
        assert_eq!(drain(&mut s), vec![0, 2, 4, 6]);
    }

    #[test]
    fn try_advance_until_empty() {
        let mut s = spl(2);
        let mut seen = vec![];
        while s.try_advance(&mut |x| seen.push(x)) {}
        assert_eq!(seen, vec![0, 1]);
        assert_eq!(s.estimate_size(), 0);
    }
}
