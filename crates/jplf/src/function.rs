//! The `PowerFunction` template (JPLF's core abstraction).
//!
//! JPLF defines divide-and-conquer functions with the *template method*
//! pattern (paper, Section III): a `PowerFunction` class whose `compute`
//! implements the solving strategy, with user-provided primitives
//!
//! * `basic_case` — the value on singletons,
//! * `combine` — the ascending phase,
//! * `create_left_function` / `create_right_function` — the descending
//!   phase: the function instances the two halves are computed with
//!   (this is how per-level parameters travel, e.g. polynomial
//!   evaluation descending with `x²`).
//!
//! Because executors are written purely against these primitives, the
//! same function definition runs sequentially, on the fork-join pool, or
//! on the simulated-MPI executor (Section III: "the execution is managed
//! separately from the PowerList function definition").

use powerlist::{PowerList, PowerView};

/// Result of a descending-phase data transformation: `None` to recurse
/// on the halves themselves, or the two element lists to recurse on
/// instead (Eq.-5-style functions).
pub type TransformedHalves<T> = Option<(PowerList<T>, PowerList<T>)>;

/// Which deconstruction operator drives the recursion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decomp {
    /// Split in halves (`p | q`).
    Tie,
    /// Split by parity (`p ♮ q`).
    Zip,
}

/// A divide-and-conquer function over PowerLists, defined by the JPLF
/// primitives.
///
/// Instances carry their own parameters (the polynomial's point `x`, the
/// FFT's root of unity, ...); the descending phase produces the child
/// instances via [`PowerFunction::create_left`] /
/// [`PowerFunction::create_right`].
pub trait PowerFunction: Send + Sized + 'static {
    /// Element type of the input PowerList.
    type Elem: Clone + Send + Sync + 'static;
    /// Result type.
    type Out: Send + 'static;

    /// The deconstruction operator applied to the input at every level.
    fn decomposition(&self) -> Decomp;

    /// Leaf phase: the function's value on a singleton `[a]`.
    fn basic_case(&self, value: &Self::Elem) -> Self::Out;

    /// Descending phase: the function instance for the left half
    /// (`p` of `p | q` / `p ♮ q`). Defaults to parameter-free descent
    /// when `Self: Clone`.
    fn create_left(&self) -> Self;

    /// Descending phase: the function instance for the right half.
    fn create_right(&self) -> Self;

    /// Ascending phase: combines the two sub-results. `left`/`right`
    /// follow the deconstruction's order (`p` before `q`).
    fn combine(&self, left: Self::Out, right: Self::Out) -> Self::Out;

    /// Optional descending-phase *data* transformation, for functions of
    /// the paper's Eq. 5 shape `f(p | q) = f(p ⊕ q) | f(p ⊗ q)`: given
    /// the two halves, return the element lists the recursive calls run
    /// on instead. The default (`None`) recurses on the halves
    /// themselves, which covers map/reduce/FFT-style functions whose
    /// descending phase "only distributes the input data".
    fn transform_halves(
        &self,
        _left: &PowerView<Self::Elem>,
        _right: &PowerView<Self::Elem>,
    ) -> TransformedHalves<Self::Elem> {
        None
    }

    /// Leaf kernel: computes the function's value on a whole sub-list
    /// that an executor decided not to decompose further.
    ///
    /// The paper's Section V observes that "the basic case is, in many
    /// situations, applied to sublists that are not singletons" and may
    /// be "specialised by overriding" — e.g. polynomial evaluation runs
    /// a sequential Horner on its leaf. The default is the template
    /// recursion itself ([`compute_sequential`]), which is always
    /// correct; override it with a tight sequential loop when one
    /// exists. Overrides must compute exactly what the recursion would
    /// (tested per function in this repository).
    fn leaf_case(&self, view: &PowerView<Self::Elem>) -> Self::Out {
        compute_sequential(self, view)
    }
}

/// The template method itself: sequential structural recursion using the
/// four primitives. This is both the reference semantics all executors
/// must agree with, and the leaf kernel parallel executors call below
/// their splitting threshold.
pub fn compute_sequential<F: PowerFunction>(f: &F, input: &PowerView<F::Elem>) -> F::Out {
    if input.is_singleton() {
        return f.basic_case(input.singleton_value());
    }
    let (l, r) = match f.decomposition() {
        Decomp::Tie => input.untie().expect("non-singleton"),
        Decomp::Zip => input.unzip().expect("non-singleton"),
    };
    let (fl, fr) = (f.create_left(), f.create_right());
    let (lo, ro) = match f.transform_halves(&l, &r) {
        None => (compute_sequential(&fl, &l), compute_sequential(&fr, &r)),
        Some((l2, r2)) => (
            compute_sequential(&fl, &l2.view()),
            compute_sequential(&fr, &r2.view()),
        ),
    };
    f.combine(lo, ro)
}

/// Convenience wrapper: run the template on an owned list.
pub fn compute_on_list<F: PowerFunction>(f: &F, input: PowerList<F::Elem>) -> F::Out {
    compute_sequential(f, &input.view())
}

/// Fallible template recursion: the same structural recursion as
/// [`compute_sequential`], run under an execution session — the
/// session's token/deadline is checked at every node, and the
/// user-provided primitives run under panic containment. The currency of
/// the executors' `try_execute` paths.
pub fn try_compute_sequential<F: PowerFunction>(
    f: &F,
    input: &PowerView<F::Elem>,
    session: &jstreams::ExecSession,
) -> Result<F::Out, jstreams::Interrupt> {
    session.check()?;
    if input.is_singleton() {
        return session.run(|| f.basic_case(input.singleton_value()));
    }
    let (l, r) = match f.decomposition() {
        Decomp::Tie => input.untie().expect("non-singleton"),
        Decomp::Zip => input.unzip().expect("non-singleton"),
    };
    let (fl, fr) = session.run(|| (f.create_left(), f.create_right()))?;
    let transformed = session.run(|| f.transform_halves(&l, &r))?;
    let (lo, ro) = match transformed {
        None => (
            try_compute_sequential(&fl, &l, session)?,
            try_compute_sequential(&fr, &r, session)?,
        ),
        Some((l2, r2)) => (
            try_compute_sequential(&fl, &l2.view(), session)?,
            try_compute_sequential(&fr, &r2.view(), session)?,
        ),
    };
    session.run(|| f.combine(lo, ro))
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerlist::tabulate;

    /// Sum via tie decomposition — the simplest reduce.
    #[derive(Clone)]
    struct Sum;

    impl PowerFunction for Sum {
        type Elem = i64;
        type Out = i64;
        fn decomposition(&self) -> Decomp {
            Decomp::Tie
        }
        fn basic_case(&self, v: &i64) -> i64 {
            *v
        }
        fn create_left(&self) -> Self {
            Sum
        }
        fn create_right(&self) -> Self {
            Sum
        }
        fn combine(&self, l: i64, r: i64) -> i64 {
            l + r
        }
    }

    /// Map(+c) via zip decomposition, returning a PowerList.
    #[derive(Clone)]
    struct AddC(i64);

    impl PowerFunction for AddC {
        type Elem = i64;
        type Out = PowerList<i64>;
        fn decomposition(&self) -> Decomp {
            Decomp::Zip
        }
        fn basic_case(&self, v: &i64) -> PowerList<i64> {
            PowerList::singleton(v + self.0)
        }
        fn create_left(&self) -> Self {
            AddC(self.0)
        }
        fn create_right(&self) -> Self {
            AddC(self.0)
        }
        fn combine(&self, l: PowerList<i64>, r: PowerList<i64>) -> PowerList<i64> {
            PowerList::zip(l, r)
        }
    }

    /// Eq. 5-style function with a descending-phase data transformation:
    /// f(p | q) = f(p + q) | f(p - q), basic case identity.
    #[derive(Clone)]
    struct SumDiffDescend;

    impl PowerFunction for SumDiffDescend {
        type Elem = i64;
        type Out = PowerList<i64>;
        fn decomposition(&self) -> Decomp {
            Decomp::Tie
        }
        fn basic_case(&self, v: &i64) -> PowerList<i64> {
            PowerList::singleton(*v)
        }
        fn create_left(&self) -> Self {
            SumDiffDescend
        }
        fn create_right(&self) -> Self {
            SumDiffDescend
        }
        fn combine(&self, l: PowerList<i64>, r: PowerList<i64>) -> PowerList<i64> {
            PowerList::tie(l, r)
        }
        fn transform_halves(
            &self,
            l: &PowerView<i64>,
            r: &PowerView<i64>,
        ) -> TransformedHalves<i64> {
            let plus = powerlist::ops::zip_with(&l.to_powerlist(), &r.to_powerlist(), |a, b| a + b)
                .expect("similar halves");
            let minus =
                powerlist::ops::zip_with(&l.to_powerlist(), &r.to_powerlist(), |a, b| a - b)
                    .expect("similar halves");
            Some((plus, minus))
        }
    }

    #[test]
    fn sum_reduces() {
        let _serial = crate::test_serial::shared();
        let p = tabulate(16, |i| i as i64).unwrap();
        assert_eq!(compute_on_list(&Sum, p), 120);
    }

    #[test]
    fn sum_singleton() {
        let _serial = crate::test_serial::shared();
        assert_eq!(compute_on_list(&Sum, PowerList::singleton(7)), 7);
    }

    #[test]
    fn map_via_zip_preserves_order() {
        let _serial = crate::test_serial::shared();
        let p = tabulate(8, |i| i as i64).unwrap();
        let out = compute_on_list(&AddC(100), p);
        assert_eq!(out.as_slice(), &[100, 101, 102, 103, 104, 105, 106, 107]);
    }

    #[test]
    fn eq5_transform_halves_runs() {
        let _serial = crate::test_serial::shared();
        // length 2: f([a, b]) = [a+b] | [a-b]
        let p = PowerList::from_vec(vec![5i64, 3]).unwrap();
        let out = compute_on_list(&SumDiffDescend, p);
        assert_eq!(out.as_slice(), &[8, 2]);
        // length 4: one more level — f([a,b,c,d]) descends on
        // ([a+c, b+d], [a-c, b-d]) and each half again.
        let p = PowerList::from_vec(vec![1i64, 2, 3, 4]).unwrap();
        let out = compute_on_list(&SumDiffDescend, p);
        // halves: plus=[4,6], minus=[-2,-2]
        // f(plus) = [10, -2]; f(minus) = [-4, 0]
        assert_eq!(out.as_slice(), &[10, -2, -4, 0]);
    }
}
