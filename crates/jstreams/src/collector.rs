//! The `Collector` abstraction: supplier / accumulator / combiner.
//!
//! Java's `Collector<T, A, R>` wraps the three functions of the mutable
//! reduction `collect(supplier, accumulator, combiner)`. The paper uses
//! this interface as the **template method of a divide-and-conquer
//! skeleton**: the supplier creates leaf containers, the accumulator
//! folds elements into them, and the combiner computes interior nodes of
//! the computation tree. This trait is the Rust rendering, with two
//! deliberate deltas:
//!
//! * `combine` consumes both partial containers and returns the merged
//!   one (Java folds the second into the first through a `BiConsumer`;
//!   ownership makes the same data flow explicit);
//! * `leaf` is an overridable hook for the Section V observation that
//!   splitting stops above singletons and the remaining sub-list is
//!   processed by `forEachRemaining` — collectors may replace that
//!   element-by-element default with a specialised sequential kernel
//!   (e.g. Horner for the polynomial, sequential FFT at the leaves).

use crate::placement::{
    self, JoiningPlacement, OutputBuffer, PlacementSpec, VecPlacement, WindowRule,
};
use crate::spliterator::ItemSource;
use std::sync::Arc;

/// A mutable-reduction recipe: Java's `Collector<T, A, R>`.
///
/// Contract (same as Java's): `combine(a, b)` must equal the container
/// obtained by accumulating `b`'s elements into `a` in order — the
/// *compatibility* condition that makes parallel and sequential collects
/// agree for associative decompositions.
pub trait Collector<T>: Send + Sync {
    /// The mutable accumulation type (`A`).
    type Acc: Send;
    /// The result type (`R`).
    type Out;

    /// Creates a fresh result container. In a parallel execution this is
    /// called once per leaf and "must return a fresh value each time".
    fn supplier(&self) -> Self::Acc;

    /// Folds one element into a container (associative,
    /// non-interfering, stateless).
    fn accumulate(&self, acc: &mut Self::Acc, item: T);

    /// Merges two partial containers produced by sibling subtrees;
    /// `left` precedes `right` in encounter order.
    fn combine(&self, left: Self::Acc, right: Self::Acc) -> Self::Acc;

    /// Final transformation from accumulation to result (Java's
    /// `finisher`).
    fn finish(&self, acc: Self::Acc) -> Self::Out;

    /// Processes one leaf: a sub-source the driver decided not to split
    /// further. The default drains the source through
    /// [`Collector::accumulate`]; override to install a specialised
    /// sequential kernel.
    fn leaf(&self, source: &mut dyn ItemSource<T>) -> Self::Acc {
        let mut acc = self.supplier();
        source.for_each_remaining(&mut |x| self.accumulate(&mut acc, x));
        acc
    }

    /// Zero-copy leaf kernel over a borrowed strided run: the leaf's
    /// elements are `items[0], items[step], items[2*step], …` — a tie
    /// half when `step == 1`, a zip-split residue class when `step > 1`.
    /// The driver calls this (before the cloning drain) when the leaf's
    /// spliterator exposes its remaining elements via
    /// [`LeafAccess::try_as_strided`](crate::LeafAccess::try_as_strided);
    /// returning `Some(acc)` consumes the leaf without per-element
    /// callbacks or clones, returning `None` (the default) falls back to
    /// [`Collector::leaf`]. An override must produce the same container
    /// the accumulate-drain would.
    fn leaf_strided(&self, _items: &[T], _step: usize) -> Option<Self::Acc> {
        None
    }

    /// Destination-passing capability: `Some` when this collector can
    /// collect through a root-allocated output buffer with per-leaf
    /// write windows (see [`crate::placement`]), `None` (the default)
    /// to always use the splice route. A `Some` answer must come with a
    /// matching [`Collector::try_reserve`] override.
    fn placement_spec(&self) -> Option<PlacementSpec> {
        None
    }

    /// Slot count of the borrowed strided run for a non-`unit`
    /// placement collector (joining: total bytes of the run's strings).
    /// Only called when [`Collector::placement_spec`] returns a spec
    /// with `unit == false`; the default is never consulted.
    fn placement_measure(&self, _items: &[T], _step: usize) -> usize {
        0
    }

    /// Allocates the destination buffer for a placement collect of
    /// `slots` output slots. `None` (the default, and the required
    /// answer when [`Collector::placement_spec`] is `None`) falls back
    /// to the splice route.
    fn try_reserve(&self, _slots: usize) -> Option<Arc<dyn OutputBuffer<T, Self::Out>>> {
        None
    }
}

/// Builds a collector from three closures (plus an identity finisher),
/// mirroring the raw `collect(supplier, accumulator, combiner)` call of
/// the paper's first example.
pub struct FnCollector<Sup, Acc, Com> {
    supplier: Sup,
    accumulator: Acc,
    combiner: Com,
}

impl<Sup, Acc, Com> FnCollector<Sup, Acc, Com> {
    /// Wraps the three functions of a mutable reduction.
    pub fn new(supplier: Sup, accumulator: Acc, combiner: Com) -> Self {
        FnCollector {
            supplier,
            accumulator,
            combiner,
        }
    }
}

impl<T, A, Sup, Acc, Com> Collector<T> for FnCollector<Sup, Acc, Com>
where
    A: Send,
    Sup: Fn() -> A + Send + Sync,
    Acc: Fn(&mut A, T) + Send + Sync,
    Com: Fn(A, A) -> A + Send + Sync,
{
    type Acc = A;
    type Out = A;

    fn supplier(&self) -> A {
        (self.supplier)()
    }

    fn accumulate(&self, acc: &mut A, item: T) {
        (self.accumulator)(acc, item)
    }

    fn combine(&self, left: A, right: A) -> A {
        (self.combiner)(left, right)
    }

    fn finish(&self, acc: A) -> A {
        acc
    }
}

/// Collector into a plain `Vec<T>` by concatenation — the ordinary
/// (tie-compatible) list collector.
pub struct VecCollector;

impl<T: Clone + Send + 'static> Collector<T> for VecCollector {
    type Acc = Vec<T>;
    type Out = Vec<T>;

    fn supplier(&self) -> Vec<T> {
        Vec::new()
    }

    fn accumulate(&self, acc: &mut Vec<T>, item: T) {
        acc.push(item);
    }

    fn combine(&self, mut left: Vec<T>, mut right: Vec<T>) -> Vec<T> {
        if left.len() >= right.len() {
            left.append(&mut right);
            left
        } else {
            // Small-side merge: prepend the smaller left in one splice
            // (a single reserve + shift of the larger side) instead of
            // growing the small vector and copying the large one into
            // it element range by element range.
            right.splice(0..0, left.drain(..));
            right
        }
    }

    fn finish(&self, acc: Vec<T>) -> Vec<T> {
        acc
    }

    // A contiguous run copies in one `to_vec`.
    fn leaf_strided(&self, items: &[T], step: usize) -> Option<Vec<T>> {
        Some(if step == 1 {
            items.to_vec()
        } else {
            items.iter().step_by(step).cloned().collect()
        })
    }

    fn placement_spec(&self) -> Option<PlacementSpec> {
        Some(PlacementSpec {
            rule: WindowRule::Concat,
            gap: 0,
            unit: true,
        })
    }

    fn try_reserve(&self, slots: usize) -> Option<Arc<dyn OutputBuffer<T, Vec<T>>>> {
        placement::reserve(VecPlacement::new(slots))
    }
}

/// Reduction collector: folds every element with an associative binary
/// operator starting from an identity — `Stream::reduce(identity, op)`.
pub struct ReduceCollector<T, Op> {
    identity: T,
    op: Op,
}

impl<T, Op> ReduceCollector<T, Op> {
    /// `identity` must be a true identity of `op` and `op` associative,
    /// or parallel results will differ from sequential ones (same
    /// contract as Java).
    pub fn new(identity: T, op: Op) -> Self {
        ReduceCollector { identity, op }
    }
}

impl<T, Op> Collector<T> for ReduceCollector<T, Op>
where
    T: Clone + Send + Sync,
    Op: Fn(T, T) -> T + Send + Sync,
{
    type Acc = T;
    type Out = T;

    fn supplier(&self) -> T {
        self.identity.clone()
    }

    fn accumulate(&self, acc: &mut T, item: T) {
        let prev = std::mem::replace(acc, self.identity.clone());
        *acc = (self.op)(prev, item);
    }

    fn combine(&self, left: T, right: T) -> T {
        (self.op)(left, right)
    }

    fn finish(&self, acc: T) -> T {
        acc
    }

    // A contiguous run folds straight off the slice iterator: the plain
    // loop runs several times faster than `step_by(1)`.
    fn leaf_strided(&self, items: &[T], step: usize) -> Option<T> {
        let mut acc = self.identity.clone();
        if step == 1 {
            for x in items {
                acc = (self.op)(acc, x.clone());
            }
        } else {
            for x in items.iter().step_by(step) {
                acc = (self.op)(acc, x.clone());
            }
        }
        Some(acc)
    }
}

/// Counting collector (`Stream::count`).
pub struct CountCollector;

impl<T: Send> Collector<T> for CountCollector {
    type Acc = usize;
    type Out = usize;

    fn supplier(&self) -> usize {
        0
    }

    fn accumulate(&self, acc: &mut usize, _item: T) {
        *acc += 1;
    }

    fn combine(&self, left: usize, right: usize) -> usize {
        left + right
    }

    fn finish(&self, acc: usize) -> usize {
        acc
    }

    fn leaf(&self, source: &mut dyn ItemSource<T>) -> usize {
        // Count by traversal: `estimate_size` is only an upper bound for
        // non-SIZED sources (e.g. after `filter`), and a leaf cannot see
        // the spliterator's characteristics to know the difference.
        let mut n = 0usize;
        source.for_each_remaining(&mut |_| n += 1);
        n
    }

    // A borrowed run's length is exact (the slice comes from the source's
    // own storage, unlike a possibly-lying `estimate_size`), so counting
    // needs no traversal at all.
    fn leaf_strided(&self, items: &[T], step: usize) -> Option<usize> {
        Some(items.len().div_ceil(step))
    }
}

/// Min/max collector (`Stream::min` / `Stream::max`): keeps the extreme
/// element seen so far; ties resolve to the earlier element in encounter
/// order, matching Java's `BinaryOperator.minBy/maxBy` semantics.
pub struct ExtremumCollector {
    want_max: bool,
}

impl ExtremumCollector {
    /// Collector computing the minimum.
    pub fn min() -> Self {
        ExtremumCollector { want_max: false }
    }

    /// Collector computing the maximum.
    pub fn max() -> Self {
        ExtremumCollector { want_max: true }
    }

    fn better<T: Ord>(&self, candidate: &T, incumbent: &T) -> bool {
        if self.want_max {
            candidate > incumbent
        } else {
            candidate < incumbent
        }
    }

    /// A clone of the first extreme element of `run`.
    fn best_of<'a, T: Ord + Clone + 'a>(&self, run: impl Iterator<Item = &'a T>) -> Option<T> {
        let mut best: Option<&T> = None;
        for x in run {
            if best.is_none_or(|b| self.better(x, b)) {
                best = Some(x);
            }
        }
        best.cloned()
    }
}

impl<T: Ord + Send + Clone> Collector<T> for ExtremumCollector {
    type Acc = Option<T>;
    type Out = Option<T>;

    fn supplier(&self) -> Option<T> {
        None
    }

    fn accumulate(&self, acc: &mut Option<T>, item: T) {
        match acc {
            None => *acc = Some(item),
            Some(cur) => {
                if self.better(&item, cur) {
                    *acc = Some(item);
                }
            }
        }
    }

    fn combine(&self, left: Option<T>, right: Option<T>) -> Option<T> {
        match (left, right) {
            (None, r) => r,
            (l, None) => l,
            (Some(l), Some(r)) => {
                // Encounter order: the right element must be strictly
                // better to displace the left one.
                if self.better(&r, &l) {
                    Some(r)
                } else {
                    Some(l)
                }
            }
        }
    }

    fn finish(&self, acc: Option<T>) -> Option<T> {
        acc
    }

    // Scan the borrowed run by reference and clone only the winner; a
    // contiguous run scans the slice iterator itself, not `step_by(1)`.
    fn leaf_strided(&self, items: &[T], step: usize) -> Option<Option<T>> {
        Some(if step == 1 {
            self.best_of(items.iter())
        } else {
            self.best_of(items.iter().step_by(step))
        })
    }
}

/// The paper's running example: concatenating words with a separator.
/// The separator is inserted by the combiner, i.e. only at parallel
/// merge points — reproducing the Section IV remark that "if the stream
/// hadn't been parallel, the combiner would not be used".
pub struct JoiningCollector {
    separator: String,
}

impl JoiningCollector {
    /// Collector joining strings with `separator` between *partial
    /// results*.
    pub fn new(separator: impl Into<String>) -> Self {
        JoiningCollector {
            separator: separator.into(),
        }
    }
}

impl Collector<String> for JoiningCollector {
    type Acc = String;
    type Out = String;

    fn supplier(&self) -> String {
        String::new()
    }

    fn accumulate(&self, acc: &mut String, item: String) {
        acc.push_str(&item);
    }

    fn combine(&self, mut left: String, right: String) -> String {
        left.push_str(&self.separator);
        left.push_str(&right);
        left
    }

    fn finish(&self, acc: String) -> String {
        acc
    }

    // A contiguous run joins in one `concat`, sized up front.
    fn leaf_strided(&self, items: &[String], step: usize) -> Option<String> {
        if step == 1 {
            return Some(items.concat());
        }
        let mut acc = String::new();
        for s in items.iter().step_by(step) {
            acc.push_str(s);
        }
        Some(acc)
    }

    fn placement_spec(&self) -> Option<PlacementSpec> {
        Some(PlacementSpec {
            rule: WindowRule::Concat,
            gap: self.separator.len(),
            unit: false,
        })
    }

    // Byte-length prepass: output slots are bytes, so a subtree's slot
    // count is the summed length of its strings (separator slots are
    // budgeted by the driver from the combine count).
    fn placement_measure(&self, items: &[String], step: usize) -> usize {
        items.iter().step_by(step).map(String::len).sum()
    }

    fn try_reserve(&self, slots: usize) -> Option<Arc<dyn OutputBuffer<String, String>>> {
        placement::reserve(JoiningPlacement::new(slots, &self.separator))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spliterator::SliceSpliterator;

    #[test]
    fn fn_collector_wraps_closures() {
        let c = FnCollector::new(
            Vec::new,
            |v: &mut Vec<i32>, x| v.push(x),
            |mut a: Vec<i32>, mut b| {
                a.append(&mut b);
                a
            },
        );
        let mut acc = c.supplier();
        c.accumulate(&mut acc, 1);
        c.accumulate(&mut acc, 2);
        let other = {
            let mut o = c.supplier();
            c.accumulate(&mut o, 3);
            o
        };
        assert_eq!(c.combine(acc, other), vec![1, 2, 3]);
    }

    #[test]
    fn vec_collector_concatenates() {
        let c = VecCollector;
        let merged = c.combine(vec![1, 2], vec![3]);
        assert_eq!(c.finish(merged), vec![1, 2, 3]);
    }

    #[test]
    fn vec_combine_merges_into_the_larger_side_preserving_order() {
        let c = VecCollector;
        // Small left, large right: the prepend-splice branch must still
        // put left before right in encounter order.
        assert_eq!(c.combine(vec![1], vec![2, 3, 4, 5]), vec![1, 2, 3, 4, 5]);
        // Large left absorbs a small right (the append branch).
        assert_eq!(c.combine(vec![1, 2, 3, 4], vec![5]), vec![1, 2, 3, 4, 5]);
        // Equal sides stay on the append branch.
        assert_eq!(c.combine(vec![1, 2], vec![3, 4]), vec![1, 2, 3, 4]);
        // Empty sides on either branch.
        assert_eq!(c.combine(vec![], vec![7]), vec![7]);
        assert_eq!(c.combine(vec![7], vec![]), vec![7]);
    }

    #[test]
    fn reduce_collector_is_compatible() {
        // combine(a, accumulated(b)) == accumulated over concatenation
        let c = ReduceCollector::new(0i64, |a, b| a + b);
        let mut a = c.supplier();
        for x in [1, 2, 3] {
            c.accumulate(&mut a, x);
        }
        let mut b = c.supplier();
        for x in [4, 5] {
            c.accumulate(&mut b, x);
        }
        assert_eq!(c.combine(a, b), 15);
    }

    #[test]
    fn count_collector_uses_sized_leaf() {
        let c = CountCollector;
        let mut src = SliceSpliterator::new(vec![9, 9, 9, 9]);
        assert_eq!(c.leaf(&mut src), 4);
        // And the source is drained afterwards.
        assert_eq!(src.estimate_size(), 0);
    }

    #[test]
    fn joining_collector_inserts_separator_only_at_combine() {
        let c = JoiningCollector::new(", ");
        let mut left = c.supplier();
        c.accumulate(&mut left, "the".to_string());
        let mut right = c.supplier();
        c.accumulate(&mut right, "cat".to_string());
        assert_eq!(c.combine(left, right), "the, cat");

        // Sequential accumulation into one container: no separator.
        let mut seq = c.supplier();
        c.accumulate(&mut seq, "the".to_string());
        c.accumulate(&mut seq, "cat".to_string());
        assert_eq!(c.finish(seq), "thecat");
    }

    #[test]
    fn default_leaf_drains_source() {
        let c = VecCollector;
        let mut src = SliceSpliterator::new(vec![1, 2, 3]);
        assert_eq!(c.leaf(&mut src), vec![1, 2, 3]);
        assert_eq!(src.estimate_size(), 0);
    }
}
