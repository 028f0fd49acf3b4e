//! PowerList-specific stream pieces: decomposition choice, the identity
//! and map collectors of Section IV, and checked collection back into a
//! [`PowerList`].

use crate::characteristics::Characteristics;
use crate::collector::Collector;
use crate::placement::{
    self, OutputBuffer, PlacementBuf, PlacementSpec, RunWriter, Window, WindowRule,
};
use crate::spliterator::{ItemSource, LeafAccess, Spliterator};
use crate::stream::{stream_support, Stream};
use crate::tie::TieSpliterator;
use crate::zip::ZipSpliterator;
use powerlist::{is_power_of_two, Error, PowerArray, PowerList};
use std::sync::Arc;

/// Which deconstruction operator drives the splitting phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decomposition {
    /// Halving — `p | q`.
    Tie,
    /// Parity — `p ♮ q`.
    Zip,
}

/// A spliterator that decomposes a PowerList with either operator;
/// the common source type for [`power_stream`].
pub enum PowerSpliterator<T> {
    /// Tie-splitting source.
    Tie(TieSpliterator<T>),
    /// Zip-splitting source.
    Zip(ZipSpliterator<T>),
}

impl<T> PowerSpliterator<T> {
    /// Builds the spliterator for `list` under the chosen decomposition.
    pub fn over(list: PowerList<T>, decomposition: Decomposition) -> Self {
        match decomposition {
            Decomposition::Tie => PowerSpliterator::Tie(TieSpliterator::over(list)),
            Decomposition::Zip => PowerSpliterator::Zip(ZipSpliterator::over(list)),
        }
    }
}

impl<T: Clone> ItemSource<T> for PowerSpliterator<T> {
    fn try_advance(&mut self, action: &mut dyn FnMut(T)) -> bool {
        match self {
            PowerSpliterator::Tie(s) => s.try_advance(action),
            PowerSpliterator::Zip(s) => s.try_advance(action),
        }
    }

    fn for_each_remaining(&mut self, action: &mut dyn FnMut(T)) {
        match self {
            PowerSpliterator::Tie(s) => s.for_each_remaining(action),
            PowerSpliterator::Zip(s) => s.for_each_remaining(action),
        }
    }

    fn estimate_size(&self) -> usize {
        match self {
            PowerSpliterator::Tie(s) => s.estimate_size(),
            PowerSpliterator::Zip(s) => s.estimate_size(),
        }
    }
}

impl<T> LeafAccess<T> for PowerSpliterator<T> {
    fn try_as_strided(&self) -> Option<(&[T], usize)> {
        match self {
            PowerSpliterator::Tie(s) => s.try_as_strided(),
            PowerSpliterator::Zip(s) => s.try_as_strided(),
        }
    }

    fn mark_drained(&mut self) {
        match self {
            PowerSpliterator::Tie(s) => s.mark_drained(),
            PowerSpliterator::Zip(s) => s.mark_drained(),
        }
    }
}

impl<T: Clone + Send + Sync> Spliterator<T> for PowerSpliterator<T> {
    fn try_split(&mut self) -> Option<Self> {
        match self {
            PowerSpliterator::Tie(s) => s.try_split().map(PowerSpliterator::Tie),
            PowerSpliterator::Zip(s) => s.try_split().map(PowerSpliterator::Zip),
        }
    }

    fn characteristics(&self) -> Characteristics {
        match self {
            PowerSpliterator::Tie(s) => s.characteristics(),
            PowerSpliterator::Zip(s) => s.characteristics(),
        }
    }

    fn prefix_splits(&self) -> bool {
        match self {
            PowerSpliterator::Tie(s) => s.prefix_splits(),
            PowerSpliterator::Zip(s) => s.prefix_splits(),
        }
    }

    fn try_split_prefix(&mut self) -> Option<Self> {
        match self {
            PowerSpliterator::Tie(s) => s.try_split_prefix().map(PowerSpliterator::Tie),
            PowerSpliterator::Zip(s) => s.try_split_prefix().map(PowerSpliterator::Zip),
        }
    }

    fn encounter_rank(&self) -> Option<(usize, usize)> {
        match self {
            PowerSpliterator::Tie(s) => s.encounter_rank(),
            PowerSpliterator::Zip(s) => s.encounter_rank(),
        }
    }
}

/// Creates a (parallel by default) stream over a PowerList, decomposed by
/// the chosen operator — the adaptation's entry point.
pub fn power_stream<T>(
    list: PowerList<T>,
    decomposition: Decomposition,
) -> Stream<T, PowerSpliterator<T>>
where
    T: Clone + Send + Sync + 'static,
{
    stream_support(PowerSpliterator::over(list, decomposition), true)
}

/// The identity PowerList collector of Section IV.B's first example:
/// supplier `PowerList::new`, accumulator `add`, combiner
/// `tieAll`/`zipAll` matching the decomposition. Collecting a stream
/// decomposed by `d` with `PowerListCollector::new(d)` reproduces the
/// source exactly — "meant to verify the correct decomposition and
/// combining".
pub struct PowerListCollector {
    decomposition: Decomposition,
}

impl PowerListCollector {
    /// Identity collector recombining with the given operator.
    pub fn new(decomposition: Decomposition) -> Self {
        PowerListCollector { decomposition }
    }
}

/// [`OutputBuffer`] for [`PowerListCollector`]: identical to the plain
/// vector destination except that `finish` promotes to a
/// [`PowerArray`]. The window rule (chosen by the collector) carries
/// the tie/zip recomposition: combine itself is a true no-op.
struct PowerPlacement<T> {
    buf: PlacementBuf<T>,
}

impl<T: Clone + Send + 'static> OutputBuffer<T, PowerArray<T>> for PowerPlacement<T> {
    fn writer(&self, w: Window) -> Option<RunWriter<'_, T>> {
        Some(self.buf.writer(w))
    }

    fn fill_run(&self, w: Window, items: &[T], step: usize) -> u64 {
        self.buf.fill_run(w, items, step)
    }

    fn combine(&self, _parent: Window, _left_slots: usize) {}

    fn finish(&self) -> PowerArray<T> {
        PowerArray::from(self.buf.finish_vec())
    }
}

impl<T: Clone + Send + 'static> Collector<T> for PowerListCollector {
    type Acc = PowerArray<T>;
    type Out = PowerArray<T>;

    fn supplier(&self) -> PowerArray<T> {
        PowerArray::new()
    }

    fn accumulate(&self, acc: &mut PowerArray<T>, item: T) {
        acc.push(item);
    }

    fn combine(&self, mut left: PowerArray<T>, right: PowerArray<T>) -> PowerArray<T> {
        match self.decomposition {
            Decomposition::Tie => left.tie_all(right),
            Decomposition::Zip => left.zip_all(right),
        }
        left
    }

    fn finish(&self, acc: PowerArray<T>) -> PowerArray<T> {
        acc
    }

    // A contiguous run copies in one `to_vec`.
    fn leaf_strided(&self, items: &[T], step: usize) -> Option<PowerArray<T>> {
        Some(PowerArray::from(if step == 1 {
            items.to_vec()
        } else {
            items.iter().step_by(step).cloned().collect()
        }))
    }

    // The window rule mirrors the *combine algebra*, not the split
    // geometry: `tie_all` concatenates, `zip_all` interleaves. This is
    // what keeps placement identical to splice even for mismatched
    // decompositions (zip-split source recombined with tie, and vice
    // versa).
    fn placement_spec(&self) -> Option<PlacementSpec> {
        Some(PlacementSpec {
            rule: match self.decomposition {
                Decomposition::Tie => WindowRule::Concat,
                Decomposition::Zip => WindowRule::Interleave,
            },
            gap: 0,
            unit: true,
        })
    }

    fn try_reserve(&self, slots: usize) -> Option<Arc<dyn OutputBuffer<T, PowerArray<T>>>> {
        placement::reserve(PowerPlacement {
            buf: PlacementBuf::new(slots),
        })
    }
}

/// The map-as-collect of Section IV.B: "if instead of providing as the
/// accumulator a simple add function, we give a function that first
/// applies an operation and then adds the value, a map definition is
/// obtained".
pub struct PowerMapCollector<F> {
    decomposition: Decomposition,
    f: Arc<F>,
}

impl<F> PowerMapCollector<F> {
    /// Map collector applying `f` at accumulation time.
    pub fn new(decomposition: Decomposition, f: F) -> Self {
        PowerMapCollector {
            decomposition,
            f: Arc::new(f),
        }
    }
}

impl<T, U, F> Collector<T> for PowerMapCollector<F>
where
    T: Clone + Send,
    U: Send,
    F: Fn(T) -> U + Send + Sync,
{
    type Acc = PowerArray<U>;
    type Out = PowerArray<U>;

    fn supplier(&self) -> PowerArray<U> {
        PowerArray::new()
    }

    fn accumulate(&self, acc: &mut PowerArray<U>, item: T) {
        acc.push((self.f)(item));
    }

    fn combine(&self, mut left: PowerArray<U>, right: PowerArray<U>) -> PowerArray<U> {
        match self.decomposition {
            Decomposition::Tie => left.tie_all(right),
            Decomposition::Zip => left.zip_all(right),
        }
        left
    }

    fn finish(&self, acc: PowerArray<U>) -> PowerArray<U> {
        acc
    }

    // A contiguous run maps off the plain slice iterator, which runs
    // faster than `step_by(1)`.
    fn leaf_strided(&self, items: &[T], step: usize) -> Option<PowerArray<U>> {
        let f = |x: &T| (self.f)(x.clone());
        Some(PowerArray::from(if step == 1 {
            items.iter().map(f).collect::<Vec<U>>()
        } else {
            items.iter().step_by(step).map(f).collect()
        }))
    }
}

/// Runs the identity collect on a stream and promotes the result to a
/// strict [`PowerList`], after verifying the `POWER2` contract the paper
/// checks before executing PowerList functions.
pub fn collect_powerlist<T, S>(
    stream: Stream<T, S>,
    decomposition: Decomposition,
) -> Result<PowerList<T>, Error>
where
    T: Clone + Send + Sync + 'static,
    S: Spliterator<T> + 'static,
{
    let n = stream.estimate_size();
    if !stream.characteristics().contains(Characteristics::POWER2) || !is_power_of_two(n) {
        return Err(if n == 0 {
            Error::Empty
        } else {
            Error::NotPowerOfTwo(n)
        });
    }
    stream
        .collect(PowerListCollector::new(decomposition))
        .into_powerlist()
}

/// Fully fallible PowerList collect: shape violations (`POWER2`
/// contract, non-power-of-two promotion) surface as
/// [`ExecError::Shape`](crate::ExecError::Shape) and execution faults
/// (contained panics, cancellation, deadlines) as the other
/// [`ExecError`](crate::ExecError) variants — nothing panics.
pub fn try_collect_powerlist<T, S>(
    stream: Stream<T, S>,
    decomposition: Decomposition,
    cfg: &crate::ExecConfig,
) -> Result<PowerList<T>, crate::ExecError>
where
    T: Clone + Send + Sync + 'static,
    S: Spliterator<T> + 'static,
{
    let n = stream.estimate_size();
    if !stream.characteristics().contains(Characteristics::POWER2) || !is_power_of_two(n) {
        return Err(crate::ExecError::Shape(if n == 0 {
            Error::Empty
        } else {
            Error::NotPowerOfTwo(n)
        }));
    }
    let out = stream.try_collect(PowerListCollector::new(decomposition), cfg)?;
    out.into_powerlist().map_err(crate::ExecError::Shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerlist::tabulate;

    fn list(n: usize) -> PowerList<i64> {
        tabulate(n, |i| i as i64 * 3 - 7).unwrap()
    }

    #[test]
    fn identity_collect_zip_reproduces_source() {
        let _serial = crate::test_serial::shared();
        // The paper's verification example: ZipSpliterator + zipAll.
        let p = list(64);
        let s = power_stream(p.clone(), Decomposition::Zip).with_leaf_size(1);
        let out = collect_powerlist(s, Decomposition::Zip).unwrap();
        assert_eq!(out, p);
    }

    #[test]
    fn identity_collect_tie_reproduces_source() {
        let _serial = crate::test_serial::shared();
        let p = list(64);
        let s = power_stream(p.clone(), Decomposition::Tie).with_leaf_size(4);
        let out = collect_powerlist(s, Decomposition::Tie).unwrap();
        assert_eq!(out, p);
    }

    #[test]
    fn identity_collect_sequential_also_works() {
        let _serial = crate::test_serial::shared();
        let p = list(32);
        let s = power_stream(p.clone(), Decomposition::Zip).sequential();
        let out = collect_powerlist(s, Decomposition::Zip).unwrap();
        assert_eq!(out, p);
    }

    #[test]
    fn mismatched_decomposition_scrambles() {
        let _serial = crate::test_serial::shared();
        // Splitting by zip but recombining by tie yields inv (bit
        // reversal) when split to singletons — the algebraic reason the
        // combiner must match the spliterator.
        let p = tabulate(8, |i| i).unwrap();
        let s = power_stream(p.clone(), Decomposition::Zip).with_leaf_size(1);
        let out = s.collect(PowerListCollector::new(Decomposition::Tie));
        let expected = powerlist::perm::inv_indexed(&p);
        assert_eq!(out.into_powerlist().unwrap(), expected);
    }

    #[test]
    fn map_collector_applies_function() {
        let _serial = crate::test_serial::shared();
        let p = list(16);
        let s = power_stream(p.clone(), Decomposition::Zip).with_leaf_size(2);
        let out = s.collect(PowerMapCollector::new(Decomposition::Zip, |x: i64| x * x));
        let expected: Vec<i64> = p.iter().map(|x| x * x).collect();
        assert_eq!(out.into_vec(), expected);
    }

    #[test]
    fn filter_breaks_power2_contract() {
        let _serial = crate::test_serial::shared();
        let p = list(16);
        let s = power_stream(p, Decomposition::Tie).filter(|x| *x > 0);
        let err = collect_powerlist(s, Decomposition::Tie).unwrap_err();
        assert!(matches!(err, Error::NotPowerOfTwo(_)));
    }

    #[test]
    fn map_keeps_power2_contract() {
        let _serial = crate::test_serial::shared();
        let p = list(16);
        let s = power_stream(p, Decomposition::Zip).map(|x| x + 1);
        let out = collect_powerlist(s, Decomposition::Zip).unwrap();
        assert_eq!(out.len(), 16);
        assert_eq!(out[0], -6);
    }

    #[test]
    fn various_leaf_sizes_agree() {
        let _serial = crate::test_serial::shared();
        let p = list(128);
        for leaf in [1usize, 2, 8, 32, 128] {
            let s = power_stream(p.clone(), Decomposition::Zip).with_leaf_size(leaf);
            let out = collect_powerlist(s, Decomposition::Zip).unwrap();
            assert_eq!(out, p, "leaf={leaf}");
        }
    }

    #[test]
    fn singleton_powerlist_roundtrip() {
        let _serial = crate::test_serial::shared();
        let p = PowerList::singleton(5i64);
        let s = power_stream(p.clone(), Decomposition::Zip);
        assert_eq!(collect_powerlist(s, Decomposition::Zip).unwrap(), p);
    }

    #[test]
    fn try_collect_powerlist_routes_shape_and_exec_errors() {
        let _serial = crate::test_serial::shared();
        use crate::{ExecConfig, ExecError};
        // Happy path matches the infallible entry point.
        let p = list(32);
        let s = power_stream(p.clone(), Decomposition::Zip).with_leaf_size(2);
        let cfg = ExecConfig::par().with_leaf_size(2);
        let out = try_collect_powerlist(s, Decomposition::Zip, &cfg).unwrap();
        assert_eq!(out, p);
        // Shape violation: filter drops POWER2.
        let s = power_stream(list(16), Decomposition::Tie).filter(|x| *x > 0);
        let err = try_collect_powerlist(s, Decomposition::Tie, &cfg).unwrap_err();
        assert!(matches!(err, ExecError::Shape(Error::NotPowerOfTwo(_))));
        // Execution fault: a pre-cancelled token.
        let token = forkjoin::CancelToken::new();
        token.cancel(forkjoin::CancelReason::User);
        let s = power_stream(list(16), Decomposition::Zip);
        let err = try_collect_powerlist(
            s,
            Decomposition::Zip,
            &ExecConfig::seq().with_cancel_token(token),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::Cancelled));
    }
}
