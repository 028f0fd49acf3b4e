//! Truncating adapters: `limit` and `skip`.
//!
//! These complete the familiar Java stream surface (`peek` is a fused
//! [`InspectStage`](crate::fused::InspectStage)). Both truncations
//! exploit `SIZED`/`SUBSIZED` sources (all PowerList spliterators are):
//! when the pipeline splits, the prefix — which precedes the suffix in
//! encounter order — absorbs as much of the `skip` and receives as much
//! of the `limit` allowance as its exact size dictates, so truncated
//! streams still parallelise.
//!
//! Note that truncation destroys the `POWER2` characteristic (an
//! arbitrary prefix length is not a power of two), which the
//! characteristics propagation makes visible: a limited/skipped stream
//! no longer qualifies for PowerList collects, exactly like a filtered
//! one.

use crate::characteristics::Characteristics;
use crate::spliterator::{ItemSource, LeafAccess, Spliterator};

/// Truncates a source to its first `limit` elements (encounter order).
pub struct LimitSpliterator<S> {
    inner: S,
    remaining: usize,
}

impl<S> LimitSpliterator<S> {
    /// Keeps only the first `limit` elements of `inner`.
    pub fn new(inner: S, limit: usize) -> Self {
        LimitSpliterator {
            inner,
            remaining: limit,
        }
    }
}

impl<T, S: ItemSource<T>> ItemSource<T> for LimitSpliterator<S> {
    fn try_advance(&mut self, action: &mut dyn FnMut(T)) -> bool {
        if self.remaining == 0 {
            return false;
        }
        if self.inner.try_advance(action) {
            self.remaining -= 1;
            true
        } else {
            self.remaining = 0;
            false
        }
    }

    fn for_each_remaining(&mut self, action: &mut dyn FnMut(T)) {
        while self.try_advance(action) {}
    }

    fn estimate_size(&self) -> usize {
        self.inner.estimate_size().min(self.remaining)
    }
}

// Truncation changes which elements remain without moving storage; the
// inner run no longer matches the logical run, so no borrowed access.
impl<T, S> LeafAccess<T> for LimitSpliterator<S> {}

/// Allowance distribution treats the prefix's reported size as exact
/// (only `SIZED | SUBSIZED` sources guarantee that) and assumes the
/// split-off prefix *precedes* the suffix in encounter order (zip's
/// parity splits interleave instead, so allowance and skip debt would
/// land on the wrong elements). Pipelines failing either condition stay
/// sequential — always correct.
fn splittable_exactly<T>(inner: &impl Spliterator<T>) -> bool {
    inner.has_characteristics(Characteristics::SIZED | Characteristics::SUBSIZED)
        && inner.prefix_splits()
}

impl<T, S: Spliterator<T>> Spliterator<T> for LimitSpliterator<S> {
    fn try_split(&mut self) -> Option<Self> {
        if self.remaining < 2 || !splittable_exactly(&self.inner) {
            return None;
        }
        let prefix = self.inner.try_split()?;
        // The prefix precedes us: it takes allowance up to its exact
        // size; we keep the rest.
        let prefix_size = prefix.estimate_size();
        let prefix_allow = self.remaining.min(prefix_size);
        self.remaining -= prefix_allow;
        Some(LimitSpliterator {
            inner: prefix,
            remaining: prefix_allow,
        })
    }

    fn characteristics(&self) -> Characteristics {
        self.inner
            .characteristics()
            .without(Characteristics::POWER2)
    }

    // Limit only truncates the tail: while allowance remains, the j-th
    // delivered element is the inner's j-th, so ranks forward as-is.
    fn encounter_rank(&self) -> Option<(usize, usize)> {
        self.inner.encounter_rank()
    }
}

/// Drops the first `skip` elements of a source (encounter order).
pub struct SkipSpliterator<S> {
    inner: S,
    to_skip: usize,
}

impl<S> SkipSpliterator<S> {
    /// Skips the first `skip` elements of `inner`.
    pub fn new(inner: S, skip: usize) -> Self {
        SkipSpliterator {
            inner,
            to_skip: skip,
        }
    }
}

impl<T, S: ItemSource<T>> ItemSource<T> for SkipSpliterator<S> {
    fn try_advance(&mut self, action: &mut dyn FnMut(T)) -> bool {
        while self.to_skip > 0 {
            if !self.inner.try_advance(&mut |_| {}) {
                self.to_skip = 0;
                return false;
            }
            self.to_skip -= 1;
        }
        self.inner.try_advance(action)
    }

    fn for_each_remaining(&mut self, action: &mut dyn FnMut(T)) {
        while self.to_skip > 0 {
            if !self.inner.try_advance(&mut |_| {}) {
                self.to_skip = 0;
                return;
            }
            self.to_skip -= 1;
        }
        self.inner.for_each_remaining(action)
    }

    fn estimate_size(&self) -> usize {
        self.inner.estimate_size().saturating_sub(self.to_skip)
    }
}

impl<T, S> LeafAccess<T> for SkipSpliterator<S> {}

impl<T, S: Spliterator<T>> Spliterator<T> for SkipSpliterator<S> {
    fn try_split(&mut self) -> Option<Self> {
        if !splittable_exactly(&self.inner) {
            return None;
        }
        let prefix = self.inner.try_split()?;
        // The prefix absorbs skip up to its exact size.
        let prefix_size = prefix.estimate_size();
        let prefix_skip = self.to_skip.min(prefix_size);
        self.to_skip -= prefix_skip;
        Some(SkipSpliterator {
            inner: prefix,
            to_skip: prefix_skip,
        })
    }

    fn characteristics(&self) -> Characteristics {
        self.inner
            .characteristics()
            .without(Characteristics::POWER2)
    }

    // The j-th delivered element is the inner's (to_skip + j)-th
    // remaining one, so the rank base advances by the unpaid skip debt.
    fn encounter_rank(&self) -> Option<(usize, usize)> {
        self.inner
            .encounter_rank()
            .map(|(base, step)| (base.saturating_add(self.to_skip.saturating_mul(step)), step))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spliterator::SliceSpliterator;
    use crate::tie::TieSpliterator;
    use powerlist::tabulate;

    fn drain<T, S: ItemSource<T>>(s: &mut S) -> Vec<T> {
        let mut out = vec![];
        s.for_each_remaining(&mut |x| out.push(x));
        out
    }

    #[test]
    fn limit_truncates() {
        let _serial = crate::test_serial::shared();
        let mut s = LimitSpliterator::new(SliceSpliterator::new((0..10).collect::<Vec<_>>()), 4);
        assert_eq!(s.estimate_size(), 4);
        assert_eq!(drain(&mut s), vec![0, 1, 2, 3]);
    }

    #[test]
    fn limit_longer_than_source() {
        let _serial = crate::test_serial::shared();
        let mut s = LimitSpliterator::new(SliceSpliterator::new(vec![1, 2]), 10);
        assert_eq!(s.estimate_size(), 2);
        assert_eq!(drain(&mut s), vec![1, 2]);
    }

    #[test]
    fn limit_zero_is_empty() {
        let _serial = crate::test_serial::shared();
        let mut s = LimitSpliterator::new(SliceSpliterator::new(vec![1, 2]), 0);
        assert_eq!(s.estimate_size(), 0);
        assert!(drain(&mut s).is_empty());
    }

    #[test]
    fn limit_split_preserves_prefix_semantics() {
        let _serial = crate::test_serial::shared();
        // limit 5 over [0..8): prefix [0..4) gets allowance 4, suffix 1.
        let mut s = LimitSpliterator::new(TieSpliterator::over(tabulate(8, |i| i).unwrap()), 5);
        let mut prefix = s.try_split().unwrap();
        let mut all = drain(&mut prefix);
        all.extend(drain(&mut s));
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn skip_drops_prefix() {
        let _serial = crate::test_serial::shared();
        let mut s = SkipSpliterator::new(SliceSpliterator::new((0..10).collect::<Vec<_>>()), 7);
        assert_eq!(s.estimate_size(), 3);
        assert_eq!(drain(&mut s), vec![7, 8, 9]);
    }

    #[test]
    fn skip_more_than_source() {
        let _serial = crate::test_serial::shared();
        let mut s = SkipSpliterator::new(SliceSpliterator::new(vec![1, 2]), 5);
        assert_eq!(s.estimate_size(), 0);
        assert!(drain(&mut s).is_empty());
    }

    #[test]
    fn skip_split_absorbs_in_prefix() {
        let _serial = crate::test_serial::shared();
        // skip 3 over [0..8): prefix [0..4) absorbs all 3.
        let mut s = SkipSpliterator::new(TieSpliterator::over(tabulate(8, |i| i).unwrap()), 3);
        let mut prefix = s.try_split().unwrap();
        let mut all = drain(&mut prefix);
        all.extend(drain(&mut s));
        assert_eq!(all, vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn skip_then_limit_composition() {
        let _serial = crate::test_serial::shared();
        let inner = SliceSpliterator::new((0..20).collect::<Vec<_>>());
        let skipped = SkipSpliterator::new(inner, 5);
        let mut limited = LimitSpliterator::new(skipped, 4);
        assert_eq!(drain(&mut limited), vec![5, 6, 7, 8]);
    }

    #[test]
    fn truncation_drops_power2() {
        let _serial = crate::test_serial::shared();
        let s = LimitSpliterator::new(TieSpliterator::over(tabulate(8, |i| i).unwrap()), 3);
        assert!(!s.has_characteristics(Characteristics::POWER2));
        let s = SkipSpliterator::new(TieSpliterator::over(tabulate(8, |i| i).unwrap()), 3);
        assert!(!s.has_characteristics(Characteristics::POWER2));
    }

    /// A SIZED slice with the exactness flags stripped — models a
    /// filtered inner whose estimate is only an upper bound.
    struct Opaque(SliceSpliterator<i32>);

    impl ItemSource<i32> for Opaque {
        fn try_advance(&mut self, action: &mut dyn FnMut(i32)) -> bool {
            self.0.try_advance(action)
        }
        fn for_each_remaining(&mut self, action: &mut dyn FnMut(i32)) {
            self.0.for_each_remaining(action)
        }
        fn estimate_size(&self) -> usize {
            self.0.estimate_size()
        }
    }

    impl LeafAccess<i32> for Opaque {}

    impl Spliterator<i32> for Opaque {
        fn try_split(&mut self) -> Option<Self> {
            self.0.try_split().map(Opaque)
        }
        fn characteristics(&self) -> Characteristics {
            self.0
                .characteristics()
                .without(Characteristics::SIZED | Characteristics::SUBSIZED)
        }
    }

    #[test]
    fn exact_size_tracks_truncation_exactly() {
        let _serial = crate::test_serial::shared();
        // Over a SIZED inner, truncated estimates are exact — including
        // the saturating over-skip, which must report exactly zero
        // rather than wrap.
        let s = SkipSpliterator::new(SliceSpliterator::new((0..10).collect::<Vec<_>>()), 7);
        assert_eq!(s.exact_size(), Some(3));
        let s = SkipSpliterator::new(SliceSpliterator::new(vec![1, 2]), 5);
        assert_eq!(s.exact_size(), Some(0));
        let s = LimitSpliterator::new(SliceSpliterator::new(vec![1, 2]), 10);
        assert_eq!(s.exact_size(), Some(2));
        let s = LimitSpliterator::new(SliceSpliterator::new((0..10).collect::<Vec<_>>()), 4);
        assert_eq!(s.exact_size(), Some(4));
    }

    #[test]
    fn truncation_over_an_inexact_inner_stays_inexact() {
        let _serial = crate::test_serial::shared();
        // skip 4 over an upper bound of 10: the residue estimate (6) is
        // still only an upper bound, and `exact_size` must refuse it —
        // this is the value the driver's leaf cutoff and the tuner's
        // size bucketing consume.
        let s = SkipSpliterator::new(Opaque(SliceSpliterator::new((0..10).collect())), 4);
        assert_eq!(s.estimate_size(), 6);
        assert_eq!(s.exact_size(), None);
        let s = LimitSpliterator::new(Opaque(SliceSpliterator::new((0..10).collect())), 4);
        assert_eq!(s.exact_size(), None);
        // And allowance distribution refuses to split what it cannot
        // count: inexact inners stay sequential.
        let mut s = SkipSpliterator::new(Opaque(SliceSpliterator::new((0..10).collect())), 1);
        assert!(s.try_split().is_none());
        let mut s = LimitSpliterator::new(Opaque(SliceSpliterator::new((0..10).collect())), 8);
        assert!(s.try_split().is_none());
    }
}
