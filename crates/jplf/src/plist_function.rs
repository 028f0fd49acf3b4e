//! Multi-way divide-and-conquer: JPLF's PList functions.
//!
//! "The JPLF also includes PList functions, that express multi-way
//! divide-and-conquer computations \[21\]" (paper, Section III). A
//! [`PListFunction`] generalises [`PowerFunction`](crate::PowerFunction)
//! to recursions that split into *n* sub-problems per level, where *n*
//! may differ from level to level (chosen by [`PListFunction::arity`]
//! from the current length).
//!
//! [`compute_plist_sequential`] is the reference semantics.
//! [`ForkJoinExecutor::try_execute_plist`] is the parallel executor: an
//! n-ary terminal on the split-tree walker ([`jstreams::walk`]), so it
//! shares the session contract of the binary executors (cancel,
//! deadline, panic containment, pool fallback and plobs events).

use crate::executor::{ExecConfig, ExecError, ForkJoinExecutor};
use crate::function::Decomp;
use jstreams::walk::{self, NaryTerminal};
use jstreams::ExecSession;
use plobs::{Event, LeafRoute};
use powerlist::PList;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

/// A shareable associative binary operator over `T`.
pub type BinOp<T> = Arc<dyn Fn(&T, &T) -> T + Send + Sync>;

/// A multi-way divide-and-conquer function over [`PList`]s.
pub trait PListFunction: Send + Sized + 'static {
    /// Element type of the input.
    type Elem: Clone + Send + Sync + 'static;
    /// Result type.
    type Out: Send + 'static;

    /// The arity to split a list of length `len` with at this level.
    /// Returning `< 2` — or a non-divisor of `len` — stops the
    /// decomposition and sends the list to [`PListFunction::leaf_case`].
    fn arity(&self, len: usize) -> usize;

    /// Which *n*-way operator deconstructs the input.
    fn decomposition(&self) -> Decomp;

    /// Value on singletons.
    fn basic_case(&self, value: &Self::Elem) -> Self::Out;

    /// Descending phase: the function instance for child `index` of an
    /// `arity`-way split.
    fn create_child(&self, index: usize, arity: usize) -> Self;

    /// Ascending phase: merges the children's results in order.
    fn combine_n(&self, parts: Vec<Self::Out>) -> Self::Out;

    /// Value on an undecomposable non-singleton list. The default
    /// treats the elements as an all-the-way split — `combine_n` over
    /// the per-element basic cases — which is correct whenever
    /// `combine_n` is associative across regroupings (true for the
    /// reduce/map-shaped functions PLists are used for). Override for
    /// functions with stricter structure.
    fn leaf_case(&self, list: &PList<Self::Elem>) -> Self::Out {
        if list.is_singleton() {
            return self.basic_case(&list[0]);
        }
        let outs = list.iter().map(|e| self.basic_case(e)).collect();
        self.combine_n(outs)
    }
}

/// Sequential template-method recursion for PList functions — the
/// reference semantics.
pub fn compute_plist_sequential<F: PListFunction>(f: &F, input: &PList<F::Elem>) -> F::Out {
    if input.is_singleton() {
        return f.basic_case(&input[0]);
    }
    match children(f, input) {
        Some(children) => {
            let outs = children
                .into_iter()
                .map(|(child, part)| compute_plist_sequential(&child, &part))
                .collect();
            f.combine_n(outs)
        }
        None => f.leaf_case(input),
    }
}

/// The descending phase of one level: the `arity(len)`-way split of
/// `input`, each part paired with its child function instance. `None`
/// when the arity is below 2 or does not divide the length (a singleton
/// included).
#[allow(clippy::type_complexity)]
fn children<F: PListFunction>(f: &F, input: &PList<F::Elem>) -> Option<Vec<(F, PList<F::Elem>)>> {
    let k = f.arity(input.len());
    if k < 2 || input.len() % k != 0 {
        return None;
    }
    let parts = match f.decomposition() {
        Decomp::Tie => input.clone().untie_n(k),
        Decomp::Zip => input.clone().unzip_n(k),
    }
    .expect("divisibility checked above");
    Some(
        parts
            .into_iter()
            .enumerate()
            .map(|(i, part)| (f.create_child(i, k), part))
            .collect(),
    )
}

impl ForkJoinExecutor {
    /// Fallibly runs the PList function `f` on `input`, fork-join
    /// parallel: each level's `arity`-way split fans out on the
    /// executor's pool, and below the executor's split policy the leaf
    /// runs [`compute_plist_sequential`]. The tuner is not consulted.
    ///
    /// It runs on the split-tree walker ([`walk::submit_n`]) under the
    /// session limits of `cfg`, with the contract of
    /// [`Executor::try_execute`](crate::Executor::try_execute): panics
    /// in the function's primitives surface as [`ExecError::Panicked`],
    /// cancel tokens and deadlines are honoured at every node, and a
    /// shut-down or saturated pool runs the whole list as one contained
    /// leaf with a recorded `Event::Fallback`.
    pub fn try_execute_plist<F>(
        &self,
        f: &F,
        input: &PList<F::Elem>,
        cfg: &ExecConfig,
    ) -> Result<F::Out, ExecError>
    where
        F: PListFunction + Clone,
    {
        let session = ExecSession::new(cfg);
        let compute = PListCompute {
            session: session.clone(),
            _function: PhantomData,
        };
        let root = (f.clone(), input.clone());
        let out = match walk::fallback_reason(self.pool(), cfg) {
            Some(reason) => {
                plobs::emit(Event::Fallback { reason });
                session
                    .check()
                    .and_then(|()| session.run(|| compute.leaf(root)))
            }
            None => walk::submit_n(self.pool(), compute, root, self.policy()),
        };
        out.map_err(|i| session.error_of(i))
    }
}

/// The fork-join subtree protocol of a [`PListFunction`]: a node is a
/// function instance plus its list, a split is one level's descending
/// phase, and the parent instance's `combine_n` merges the children.
struct PListCompute<F> {
    session: ExecSession,
    _function: PhantomData<fn(F)>,
}

impl<F: PListFunction> NaryTerminal for PListCompute<F> {
    type Node = (F, PList<F::Elem>);
    type Out = F::Out;
    /// The parent instance, whose `combine_n` merges the parts.
    type Cut = F;
    type Session = ExecSession;

    fn session(&self) -> &ExecSession {
        &self.session
    }

    fn exact_size(&self, (_, input): &(F, PList<F::Elem>)) -> Option<usize> {
        Some(input.len())
    }

    #[allow(clippy::type_complexity)]
    fn split_n(
        &self,
        (f, input): (F, PList<F::Elem>),
    ) -> Result<(Vec<(F, PList<F::Elem>)>, F), (F, PList<F::Elem>)> {
        match children(&f, &input) {
            Some(children) => Ok((children, f)),
            None => Err((f, input)),
        }
    }

    fn leaf(&self, (f, input): (F, PList<F::Elem>)) -> F::Out {
        let start = plobs::enabled().then(Instant::now);
        let out = compute_plist_sequential(&f, &input);
        if let Some(start) = start {
            plobs::emit(Event::Leaf {
                route: LeafRoute::Template,
                items: input.len() as u64,
                ns: start.elapsed().as_nanos() as u64,
            });
        }
        out
    }

    fn combine_n(&self, f: F, parts: Vec<F::Out>) -> F::Out {
        f.combine_n(parts)
    }
}

/// Multi-way reduce: the canonical PList function (associative operator
/// over `arity`-way tie splits).
pub struct NWayReduce<T> {
    arity: usize,
    op: BinOp<T>,
}

impl<T> Clone for NWayReduce<T> {
    fn clone(&self) -> Self {
        NWayReduce {
            arity: self.arity,
            op: Arc::clone(&self.op),
        }
    }
}

impl<T> NWayReduce<T> {
    /// Reduce with the given associative operator, splitting `arity`
    /// ways per level.
    pub fn new(arity: usize, op: impl Fn(&T, &T) -> T + Send + Sync + 'static) -> Self {
        NWayReduce {
            arity: arity.max(2),
            op: Arc::new(op),
        }
    }
}

impl<T> PListFunction for NWayReduce<T>
where
    T: Clone + Send + Sync + 'static,
{
    type Elem = T;
    type Out = T;

    fn arity(&self, len: usize) -> usize {
        if len.is_multiple_of(self.arity) {
            self.arity
        } else if len.is_multiple_of(2) {
            2 // degrade gracefully for lengths the arity does not divide
        } else {
            1
        }
    }

    fn decomposition(&self) -> Decomp {
        Decomp::Tie
    }

    fn basic_case(&self, v: &T) -> T {
        v.clone()
    }

    fn create_child(&self, _index: usize, _arity: usize) -> Self {
        self.clone()
    }

    fn combine_n(&self, parts: Vec<T>) -> T {
        let mut it = parts.into_iter();
        let first = it.next().expect("combine_n of at least one part");
        it.fold(first, |a, b| (self.op)(&a, &b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plist(n: usize) -> PList<i64> {
        PList::from_vec((1..=n as i64).collect()).unwrap()
    }

    #[test]
    fn three_way_reduce_sums() {
        let _serial = crate::test_serial::shared();
        let f = NWayReduce::new(3, |a: &i64, b: &i64| a + b);
        let p = plist(27);
        assert_eq!(compute_plist_sequential(&f, &p), 27 * 28 / 2);
    }

    #[test]
    fn arity_degrades_for_awkward_lengths() {
        let _serial = crate::test_serial::shared();
        let f = NWayReduce::new(3, |a: &i64, b: &i64| a + b);
        // 20 = 2·2·5: levels fall back to 2-way, then a leaf of 5.
        let p = plist(20);
        assert_eq!(compute_plist_sequential(&f, &p), 210);
        // A prime length is a single leaf.
        let p = plist(13);
        assert_eq!(compute_plist_sequential(&f, &p), 91);
    }

    #[test]
    fn parallel_matches_sequential() {
        let _serial = crate::test_serial::shared();
        let exec = ForkJoinExecutor::new(3, 8);
        let f = NWayReduce::new(4, |a: &i64, b: &i64| a + b);
        for n in [1usize, 4, 16, 64, 256, 20, 100] {
            let p = plist(n);
            let seq = compute_plist_sequential(&f, &p);
            let par = exec.try_execute_plist(&f, &p, &ExecConfig::par());
            assert_eq!(par.ok(), Some(seq), "n={n}");
        }
    }

    #[test]
    fn noncommutative_order_preserved() {
        let _serial = crate::test_serial::shared();
        let f = NWayReduce::new(3, |a: &String, b: &String| format!("{a}{b}"));
        let p = PList::from_vec((0..9).map(|i| i.to_string()).collect()).unwrap();
        assert_eq!(compute_plist_sequential(&f, &p), "012345678");
        let exec = ForkJoinExecutor::new(2, 1);
        let par = exec.try_execute_plist(&f, &p, &ExecConfig::par());
        assert_eq!(par.ok().as_deref(), Some("012345678"));
    }

    #[test]
    fn zip_decomposition_commutative_ok() {
        let _serial = crate::test_serial::shared();
        // With a commutative op, zip regrouping yields the same sum.
        #[derive(Clone)]
        struct ZipSum;
        impl PListFunction for ZipSum {
            type Elem = i64;
            type Out = i64;
            fn arity(&self, len: usize) -> usize {
                if len.is_multiple_of(3) {
                    3
                } else {
                    1
                }
            }
            fn decomposition(&self) -> Decomp {
                Decomp::Zip
            }
            fn basic_case(&self, v: &i64) -> i64 {
                *v
            }
            fn create_child(&self, _: usize, _: usize) -> Self {
                ZipSum
            }
            fn combine_n(&self, parts: Vec<i64>) -> i64 {
                parts.into_iter().sum()
            }
        }
        let p = plist(27);
        assert_eq!(compute_plist_sequential(&ZipSum, &p), 27 * 28 / 2);
    }

    #[test]
    fn singleton_plist() {
        let _serial = crate::test_serial::shared();
        let f = NWayReduce::new(3, |a: &i64, b: &i64| a + b);
        assert_eq!(compute_plist_sequential(&f, &plist(1)), 1);
    }
}
